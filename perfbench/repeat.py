"""Run one workload over several seeds and summarize each metric.

Usage (from the repository root):

    python3 perfbench/repeat.py --workload chi --seeds 1-10 \
        [--out perfbench/results/chi.json]

Runs ``run.py --trace 0`` once per seed, one run at a time, with the
``run_seconds`` from BENCHMARK.json.  For each metric it prints the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread, (Q3 - Q1) / median, next to a third of the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = []
    for seed in _seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
             "--trace", "0"],
            capture_output=True, text=True, cwd=ROOT, timeout=180)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        machine = json.loads(lines[-2])
        runs.append({"seed": seed, **result, "notes": machine})
        print(f"seed {seed}: passes " + " ".join(
            f"{p:.3f}" for p in machine["pass_s"]) + "  measured " + " ".join(
            f"{p:.3f}" for p in machine["raw_pass_s"]), file=sys.stderr)
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}",
              file=sys.stderr)

    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        summary[name] = {"unit": runs[0]["metrics"][name]["unit"],
                         **summarize(values)}
        s = summary[name]
        bound = bounds.get(name)
        limit = f"  (bound/3 {bound / 3:.3f})" if bound is not None else ""
        spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
        print(f"{name:45s} median {s['median']:.6g} {s['unit']}  "
              f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {spread}{limit}")
        print("    values " + " ".join(f"{v:.4g}" for v in values))
    if args.out:
        Path(args.out).write_text(json.dumps({
            "workload": args.workload,
            "seeds": [r["seed"] for r in runs],
            "all_correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "machine": runs[0]["notes"]["machine"],
            "metrics": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

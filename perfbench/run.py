"""jsrbound benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload {enum,chi,calls} --seed N \
        --seconds S --trace {0,1} [--smoke]

The workload's task list is generated from the seed, written as JSON
input files and run through ``jsrbound.cli.main(argv)`` in this process,
one call after another (one closed-loop client).  Every output envelope
is checked from outside the program after its call, outside the timed
region.  Passes over the task list repeat for about ``--seconds``; a
pass always completes.  End-to-end times are normalized to a fixed
machine speed by reference-kernel samples taken next to and inside
every call (see speed.py).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one
untraced pass, then traced passes with spans around every public
function of the eight layer modules, and prints the per-layer metrics
(see tracing.py).  Spans go to ``.perfbench_out/`` as JSONL.
``--smoke`` shrinks every task and makes a single pass; the self-tests
use it.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``.
``failed / attempted`` is the error rate: calls with a non-zero exit
code, an error envelope or a failed output check.  Without ``src/`` the
script exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import math
import os
import statistics
import sys
import time
from pathlib import Path

# The workload is single-threaded; one BLAS thread keeps runs steady on a
# shared two-core machine.  Set before numpy is first imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402

import checks  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

# Fresh-interpreter set-up probes per run; setup_s is their median.
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
# Reference-kernel samples taken before and after each probe.
PROBE_KERNELS = 5


def listed_metrics(kind: str) -> list[tuple[str, str]]:
    """(name, unit) of the ``end_to_end`` or ``per_layer`` metrics, in the
    order BENCHMARK.json lists them."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in bench[kind]]


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def machine_notes() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    caches = {}
    # Cache sizes as the kernel reports them; read-only, absent elsewhere.
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob(
            "index*")):
        try:
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                level = (index / "level").read_text().strip()
                caches[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "caches": caches,
        "shared_machine": "yes: other tenants' load is not controlled",
    }


def pin_to_current_cpu() -> None:
    """Keep this process, and the set-up probes it starts, on the CPU it
    runs on now.

    The machine's speed swings differ from CPU to CPU, so the kernel
    samples that normalize a probe (see speed.py) must run where the
    probe runs.  Unpinned, probes spread 0.11 to 0.22 over five seeds,
    pinned 0.05.  Where the current CPU cannot be read, nothing is
    pinned.
    """
    try:
        stat = Path("/proc/self/stat").read_text()
        # Field 39, "processor"; the command name before it may hold spaces.
        cpu = int(stat.rsplit(")", 1)[1].split()[36])
        os.sched_setaffinity(0, {cpu})
    except (OSError, ValueError, IndexError, AttributeError):
        pass


# ---------------------------------------------------------------------------
# Set-up


def _write_json(path: Path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def write_inputs(tasks, work: Path, prefix: str) -> list[str | None]:
    """One JSON input file per task that takes a matrix set."""
    paths = []
    for i, task in enumerate(tasks):
        if task.matrices is None:
            paths.append(None)
            continue
        path = work / f"{prefix}-{i}.json"
        _write_json(path, workloads.input_doc(task.matrices))
        paths.append(str(path))
    return paths


class SetupProbes:
    """Set-up times of ``count`` fresh interpreters, spread over the run.

    One probe runs before the first pass, then one between calls each
    time another ``seconds / count`` of call time has been measured; any
    still missing run after the last pass.  Taken back to back, the
    probes of a run all fell into one of the machine's speed swings, and
    setup_s spread more than wall_s over ten seeds.  Each probe's times
    are normalized by reference-kernel samples taken just before and
    just after it (see speed.py).
    """

    def __init__(self, warm_argv: list[list[str]], work: Path, count: int,
                 seconds: float):
        self.spec = work / "warmup.json"
        _write_json(self.spec, warm_argv)
        self.count = count
        self.spacing = seconds / count
        self.results: list[dict] = []

    def when_due(self, measured_s: float) -> None:
        if (len(self.results) < self.count
                and measured_s >= len(self.results) * self.spacing):
            self.results.append(self._probe())

    def finish(self) -> list[dict]:
        while len(self.results) < self.count:
            self.results.append(self._probe())
        return self.results

    def _probe(self) -> dict:
        probe = Path(__file__).resolve().parent / "probe.py"
        before = [speed.timed_kernel() for _ in range(PROBE_KERNELS)]
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(probe), str(SRC), str(self.spec)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        if Path(doc["module"]).resolve().parent.parent != SRC.resolve():
            raise RuntimeError(f"probe imported jsrbound from {doc['module']}")
        after = [speed.timed_kernel() for _ in range(PROBE_KERNELS)]
        factor = statistics.fmean(before + after) / speed.REFERENCE_S
        return {"setup_s": (doc["end"] - t0) / factor,
                "import_s": (doc["import"] - t0) / factor,
                "warmup_s": (doc["end"] - doc["import"]) / factor}


# ---------------------------------------------------------------------------
# Passes


class Runner:
    """Runs task lists through the CLI and checks every envelope.

    With a ``speed.SpeedSampler``, ``call_s`` and ``pass_s`` hold
    normalized times (see speed.py) and ``raw_pass_s`` the measured
    ones; without it they are equal.
    """

    def __init__(self, cli_module, tasks, work: Path, between_calls,
                 sampler: speed.SpeedSampler | None = None):
        self.cli = cli_module
        self.tasks = tasks
        self.out_path = work / "out.json"
        self.inputs = write_inputs(tasks, work, "in")
        # Called untimed after every checked call with the measured call
        # time so far.
        self.between_calls = between_calls
        self.sampler = sampler
        self.call_s: list[float] = []
        self.pass_s: list[float] = []
        self.raw_pass_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.first_docs: list[dict | None] | None = None

    def _main(self, argv: list[str]) -> int:
        try:
            # Looked up per call so that an installed tracer is used.
            return self.cli.main(argv)
        except Exception:  # noqa: BLE001 - a crash is a failed call
            traceback.print_exc(file=sys.stderr)
            return -1

    def call(self, task, input_path) -> tuple[float, float, int, dict | None]:
        """One timed CLI call: (normalized s, measured s, exit code,
        envelope).  Reading the output is not timed."""
        self.out_path.unlink(missing_ok=True)
        argv = task.argv(input_path, str(self.out_path))
        if self.sampler is None:
            t0 = time.perf_counter()
            code = self._main(argv)
            elapsed = time.perf_counter() - t0
            factor = 1.0
        else:
            code, elapsed, factor = self.sampler.around(
                lambda: self._main(argv))
        doc = None
        if code != -1:
            try:
                with open(self.out_path, encoding="utf-8") as fh:
                    doc = json.load(fh)
            except (OSError, ValueError):
                pass
        return elapsed / factor, elapsed, code, doc

    def warm_up(self, warm, inputs) -> None:
        for task, path in zip(warm, inputs):
            self.call(task, path)

    def run_pass(self) -> None:
        docs: list[dict | None] = []
        bad: set[int] = set()
        total = raw_total = 0.0
        for i, (task, path) in enumerate(zip(self.tasks, self.inputs)):
            elapsed, raw, code, doc = self.call(task, path)
            total += elapsed
            raw_total += raw
            self.call_s.append(elapsed)
            problems = checks.check_call(task, code, doc)
            if problems:
                bad.add(i)
                for p in problems:
                    print(f"check failed: task {i}: {p}", file=sys.stderr)
            docs.append(doc)
            self.between_calls(sum(self.raw_pass_s) + raw_total)
        for i in checks.check_pairs(self.tasks, docs) - bad:
            bad.add(i)
            print(f"check failed: task {i}: bound and oracle disagree",
                  file=sys.stderr)
        self.pass_s.append(total)
        self.raw_pass_s.append(raw_total)
        self.attempted += len(self.tasks)
        self.failed += len(bad)
        if self.first_docs is None:
            self.first_docs = [None if i in bad else d
                               for i, d in enumerate(docs)]

    def run_for(self, seconds: float) -> None:
        """``seconds`` divided by the first pass's time, rounded, passes.

        At least one pass; the measured time ends within half a pass of
        ``seconds``.
        """
        self.run_pass()
        for _ in range(math.floor(seconds / self.raw_pass_s[-1] + 0.5) - 1):
            self.run_pass()


def _mean_log(values: list[float]) -> float:
    return (statistics.fmean(math.log(v) for v in values) if values
            else 0.0)


def task_medians(call_s: list[float], tasks: int) -> list[float]:
    """Median time of each task over the passes; ``call_s`` lists the
    calls pass after pass."""
    return [statistics.median(call_s[i::tasks]) for i in range(tasks)]


def end_to_end_metrics(runner: Runner, setups: list[dict]) -> dict:
    docs = [(t, d) for t, d in zip(runner.tasks, runner.first_docs or [])
            if d is not None]
    gaps = [d["result"]["best_upper"] / d["result"]["best_lower"]
            for t, d in docs if t.command == "bound"]
    ratios = [d["result"]["interval"]["ratio"]
              for t, d in docs if t.command == "certify"]
    # One value per task, its median over the passes, so that the
    # percentiles do not depend on how many passes fitted in the run.
    per_task = task_medians(runner.call_s, len(runner.tasks))
    if len(per_task) > 1:
        cuts = statistics.quantiles(per_task, n=100, method="inclusive")
        p50, p95 = cuts[49], cuts[94]
    else:
        p50 = p95 = per_task[0]
    values = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "wall_s": statistics.median(runner.pass_s),
        "call_p50_ms": p50 * 1e3,
        "call_p95_ms": p95 * 1e3,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "bound_gap": _mean_log(gaps),
        "cert_log_ratio": _mean_log(ratios),
    }
    samples = {
        "setup_s": len(setups), "wall_s": len(runner.pass_s),
        "call_p50_ms": len(per_task), "call_p95_ms": len(per_task),
        "peak_rss_mb": 1, "bound_gap": len(gaps),
        "cert_log_ratio": len(ratios),
    }
    return {name: (values[name], unit, samples[name])
            for name, unit in listed_metrics("end_to_end")}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny task sizes and a single pass")
    args = parser.parse_args(argv)

    if not (SRC / "jsrbound" / "cli.py").is_file():
        return _fail(f"no jsrbound sources under {SRC}")
    sys.path.insert(0, str(SRC))
    try:
        import jsrbound.cli as cli
    except ImportError as exc:
        return _fail(f"cannot import jsrbound: {exc}")
    if Path(cli.__file__).resolve().parent.parent != SRC.resolve():
        return _fail(f"jsrbound imported from {cli.__file__}, not {SRC}")

    pin_to_current_cpu()
    tasks = workloads.tasks_for(args.workload, args.seed, smoke=args.smoke)
    warm = workloads.warmup_tasks(tasks)
    work = OUT_DIR / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        warm_inputs = write_inputs(warm, work, "warm")
        warm_argv = [t.argv(path, str(work / "warm-out.json"))
                     for t, path in zip(warm, warm_inputs)]
        probes = SetupProbes(warm_argv, work,
                             1 if args.smoke else SETUP_PROBES, args.seconds)
        # Traced runs report measured times: the tracer would charge the
        # sampler's handler to whichever span it interrupts.
        sampler = None if args.trace else speed.SpeedSampler()
        runner = Runner(cli, tasks, work, probes.when_due, sampler)
        runner.warm_up(warm, warm_inputs)
        probes.when_due(0.0)
        if args.trace:
            runner.run_pass()
            untraced = runner.pass_s[0]
            tracer = tracing.Tracer()
            tracer.install()
            try:
                runner.run_for(0 if args.smoke else args.seconds - untraced)
            finally:
                tracer.uninstall()
            setups = probes.finish()
            traced = runner.pass_s[1:]
            values = tracing.layer_metrics(tracer.spans, len(traced))
            values["setup.import_s"] = statistics.median(
                s["import_s"] for s in setups)
            values["setup.warmup_s"] = statistics.median(
                s["warmup_s"] for s in setups)
            values["trace.wall_s.untraced"] = untraced
            values["trace.wall_s.traced"] = statistics.median(traced)
            values["trace.overhead_s"] = (values["trace.wall_s.traced"]
                                          - untraced)
            spans_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
            tracer.write_jsonl(spans_path)
            metrics = {name: (values[name], unit, None)
                       for name, unit in listed_metrics("per_layer")}
            print(f"spans: {len(tracer.spans)} written to {spans_path}")
        else:
            runner.run_for(0 if args.smoke else args.seconds)
            metrics = end_to_end_metrics(runner, probes.finish())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, (value, unit, n) in metrics.items():
        suffix = f" (n={n})" if n is not None else ""
        print(f"{name} = {value:.6g} {unit}{suffix}")
    print(f"error_rate = {runner.failed / runner.attempted:.6g} fraction "
          f"({runner.failed}/{runner.attempted})")
    print(json.dumps({"machine": machine_notes(), "workload": args.workload,
                      "seed": args.seed, "pass_s": runner.pass_s,
                      "raw_pass_s": runner.raw_pass_s,
                      "kernel_s_median": (statistics.median(sampler.samples)
                                          if sampler else None)}))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

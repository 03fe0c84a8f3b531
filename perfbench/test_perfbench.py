"""Self-tests of the benchmark: its checks, inputs, tracer and output.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import copy
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

import jsrbound.bounds  # noqa: E402
import jsrbound.cli  # noqa: E402
import jsrbound.core  # noqa: E402


def _call(task, tmp_path) -> dict:
    inp = tmp_path / "in.json"
    out = tmp_path / "out.json"
    inp.write_text(json.dumps(workloads.input_doc(task.matrices)))
    assert jsrbound.cli.main(task.argv(str(inp), str(out))) == 0
    return json.loads(out.read_text())


def _small_calls(seed=7):
    return workloads.calls_tasks(seed, rounds=1)


def _first(command: str, tasks):
    return next(t for t in tasks if t.command == command)


# ---------------------------------------------------------------------------
# Output checks catch tampered envelopes


def test_bound_check_passes_and_catches_a_nudged_upper_bound(tmp_path):
    task = _first("bound", _small_calls())
    doc = _call(task, tmp_path)
    assert checks.check_call(task, 0, doc) == []
    bad = copy.deepcopy(doc)
    # An upper bound nudged below its witness norm.
    bad["result"]["reports"][2]["upper"] *= 1.0 - 1e-6
    assert any("upper" in p for p in checks.check_call(task, 0, bad))


def test_bound_check_catches_a_wrong_witness_and_crossed_bounds(tmp_path):
    task = _first("bound", _small_calls())
    doc = _call(task, tmp_path)
    bad = copy.deepcopy(doc)
    word = bad["result"]["reports"][3]["witness_lower"]
    bad["result"]["reports"][3]["witness_lower"] = [3 - w for w in word]
    assert checks.check_call(task, 0, bad)
    bad = copy.deepcopy(doc)
    bad["result"]["best_lower"] = bad["result"]["best_upper"] * 1.01
    assert checks.check_call(task, 0, bad)


def test_error_envelope_and_exit_code_are_failures(tmp_path):
    task = _first("bound", _small_calls())
    assert checks.check_call(task, 1, {"command": "bound", "error": "x"})
    assert checks.check_call(task, 0, {"command": "bound", "error": "x"})
    assert checks.check_call(task, 0, None)


def test_certify_check_catches_a_wrong_ratio(tmp_path):
    task = _first("certify", _small_calls())
    doc = _call(task, tmp_path)
    assert checks.check_call(task, 0, doc) == []
    bad = copy.deepcopy(doc)
    bad["result"]["interval"]["ratio"] *= 1.0 + 1e-9
    assert checks.check_call(task, 0, bad)


def test_chi_check_catches_a_certificate_above_the_sample(tmp_path):
    task = _first("chi", _small_calls())
    doc = _call(task, tmp_path)
    assert checks.check_call(task, 0, doc) == []
    bad = copy.deepcopy(doc)
    bad["result"]["certified_lower"] = bad["result"]["sampled_inf"] * 1.5
    assert checks.check_call(task, 0, bad)


def test_reducible_input_must_sample_near_zero(tmp_path):
    task = next(t for t in _small_calls() if t.expect.get("reducible"))
    doc = _call(task, tmp_path)
    assert checks.check_call(task, 0, doc) == []
    bad = copy.deepcopy(doc)
    bad["result"]["chi"]["sampled_inf"] = 1e-3
    assert checks.check_call(task, 0, bad)


@pytest.mark.parametrize("command", ["zero-test", "kronecker", "example",
                                     "plan", "gamma"])
def test_construction_checks_pass_and_catch_tampering(command, tmp_path):
    task = _first(command, _small_calls())
    if task.matrices is None:
        out = tmp_path / "out.json"
        assert jsrbound.cli.main(task.argv(None, str(out))) == 0
        doc = json.loads(out.read_text())
    else:
        doc = _call(task, tmp_path)
    assert checks.check_call(task, 0, doc) == []
    bad = copy.deepcopy(doc)
    res = bad["result"]
    if command == "zero-test":
        res["zero_radius"] = not res["zero_radius"]
    elif command == "kronecker":
        res["ratio"] *= 1.0 + 1e-9
    elif command == "example":
        res["set"]["matrices"][0][0][0] += 1e-3
    elif command == "plan":
        res["n"] += 1
    else:
        res["heuristic"] = not res["heuristic"]
    assert checks.check_call(task, 0, bad)


def test_bound_and_oracle_twins_must_agree(tmp_path):
    tasks = [t for t in _small_calls() if "pair" in t.expect]
    docs = [_call(t, tmp_path) for t in tasks]
    assert checks.check_pairs(tasks, docs) == set()
    docs[1]["result"]["lower"] *= 1.0 - 1e-6
    assert checks.check_pairs(tasks, docs) == {0, 1}


# ---------------------------------------------------------------------------
# Inputs


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_depend_only_on_the_seed(workload):
    a = workloads.tasks_for(workload, 3)
    b = workloads.tasks_for(workload, 3)
    c = workloads.tasks_for(workload, 4)
    assert [t.args for t in a] == [t.args for t in b]
    assert all(np.array_equal(x.matrices, y.matrices) for x, y in zip(a, b)
               if x.matrices is not None)
    assert any(not np.array_equal(x.matrices, y.matrices)
               for x, y in zip(a, c) if x.matrices is not None)


def test_presentation_keeps_norms_and_spectral_radii():
    rng = np.random.default_rng(0)
    for d, norm in [(2, "l2"), (3, "l2"), (3, "l1"), (2, "linf"), (6, "l2")]:
        base = workloads._base_uniform((9, d), d, 3)
        shown = workloads._present(rng, base, norm)
        order = {"l1": 1, "l2": 2, "linf": np.inf}[norm]
        for stat in (lambda m: np.linalg.norm(m, order),
                     lambda m: np.max(np.abs(np.linalg.eigvals(m)))):
            assert sorted(map(stat, base)) == pytest.approx(
                sorted(map(stat, shown)), rel=1e-12)


# ---------------------------------------------------------------------------
# Tracer


def test_tracer_patches_every_namespace_and_restores_them(tmp_path):
    original = jsrbound.core.operator_norms
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert jsrbound.bounds.operator_norms is not original
        assert jsrbound.core.operator_norms is jsrbound.bounds.operator_norms
        _call(_first("bound", _small_calls()), tmp_path)
    finally:
        tracer.uninstall()
    assert jsrbound.bounds.operator_norms is original
    assert jsrbound.core.operator_norms is original
    names = {s[0]: s[2] for s in tracer.spans}
    norms = [s for s in tracer.spans if s[2] == "core.operator_norms"]
    assert norms and all(names[s[1]] == "core.max_over_products"
                         for s in norms)
    metrics = tracing.layer_metrics(tracer.spans, 1)
    assert metrics["cli.main.calls"] == 1
    assert metrics["bounds.sandwich.words"] > 0
    shares = [metrics[f"{layer}.self_share"] for layer in tracing.LAYERS]
    assert sum(shares) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Normalized times


def _spin(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_sampler_samples_inside_a_call_and_leaves_out_its_own_time():
    sampler = speed.SpeedSampler()
    previous = signal.getsignal(signal.SIGALRM)
    result, measured, factor = sampler.around(lambda: _spin(0.3) or 7)
    assert result == 7
    # Two brackets plus samples taken while the call ran.
    assert len(sampler.samples) >= 5
    # _spin stops on the clock, so handler time that was left in would
    # not lengthen the call; taking it out must shorten it.
    assert 0.2 < measured < 0.3
    assert factor > 0
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_percentiles_take_one_median_per_task():
    # Two passes of three tasks.
    assert run.task_medians([1.0, 5.0, 9.0, 3.0, 5.0, 7.0], 3) == [
        2.0, 5.0, 8.0]


# ---------------------------------------------------------------------------
# The command


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          capture_output=True, text=True, cwd=cwd,
                          timeout=170)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _run(["--workload", workload, "--seed", "1", "--seconds", "0",
                 "--trace", str(trace), "--smoke"])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = bench["end_to_end"] if trace == 0 else bench["per_layer"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        name, unit = m["name"], m["unit"]
        assert result["metrics"][name]["unit"] == unit
        assert any(line.startswith(f"{name} = ") and f" {unit}" in line
                   for line in lines), name


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "calls", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from jsrbound import (
    DEFAULT_WORD_BUDGET,
    MatrixSet,
    NormKind,
    bounds,
    cli,
    core,
    geometry,
    sphere_net,
    trace_estimate,
)
from jsrbound.cli import _build_parser, main
from jsrbound.core import RADIUS, TRACE

GOLDEN = '{"dim": 2, "matrices": [[[1, 1], [0, 1]], [[1, 0], [1, 1]]]}'
ROTATION = '{"dim": 2, "matrices": [[[0, -1], [1, 0]]]}'
SWAP = '{"dim": 2, "matrices": [[[0, 1], [1, 0]]]}'
NILPOTENT = '{"dim": 2, "matrices": [[[0, 1], [0, 0]]]}'
DIAGONAL = '{"dim": 2, "matrices": [[[2, 0], [0, 3]], [[1, 0], [0, 5]]]}'
TRIO3 = ('{"dim": 3, "matrices": [[[0, -1, 0], [1, 0, 0], [0, 0, 1]], '
         '[[1, 0, 0], [0, 0, -1], [0, 1, 0]], [[1, 2, 0], [0, 1, 1], '
         '[1, 0, 1]]]}')


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "jsrbound.cli", *args],
        capture_output=True, text=True,
    )


@pytest.fixture
def golden_file(tmp_path):
    path = tmp_path / "golden.json"
    path.write_text(GOLDEN)
    return str(path)


@pytest.fixture
def rotation_file(tmp_path):
    path = tmp_path / "rotation.json"
    path.write_text(ROTATION)
    return str(path)


class TestEnvelope:
    def test_bound_shape(self, golden_file):
        proc = run_cli("bound", "--input", golden_file, "--n-max", "4")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert set(doc) == {"command", "input_digest", "params", "result",
                            "warnings"}
        assert doc["command"] == "bound"
        assert doc["input_digest"].startswith("sha256:")
        assert doc["params"]["norm"] == "l2"
        assert doc["params"]["n_max"] == 4
        assert doc["result"]["best_lower"] == pytest.approx(1.6180339887, abs=1e-6)
        assert "timestamp" not in doc
        assert "timestamp" not in doc["result"]

    def test_defaults_recorded(self, rotation_file):
        doc = json.loads(run_cli("chi", "--input", rotation_file).stdout)
        assert doc["params"]["p"] == 1
        assert doc["params"]["mesh"] == 0.01
        assert doc["params"]["norm"] == "l2"

    def test_output_file(self, golden_file, tmp_path):
        out = tmp_path / "report.json"
        proc = run_cli("bound", "--input", golden_file, "--n-max", "2",
                       "--output", str(out))
        assert proc.returncode == 0
        assert proc.stdout == ""
        doc = json.loads(out.read_text())
        assert doc["command"] == "bound"

    def test_unwritable_output_gives_an_error_envelope(self, golden_file,
                                                       tmp_path):
        out = tmp_path / "missing-dir" / "report.json"
        proc = run_cli("bound", "--input", golden_file, "--n-max", "2",
                       "--output", str(out))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["command"] == "bound"
        assert "missing-dir" in doc["error"]
        assert not out.exists()


def _reject(constant: str):
    raise ValueError(f"{constant} is not JSON")


def _run_doc(*args: str) -> tuple[int, dict]:
    """Run the CLI in this process; the exit code and the JSON document."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(args))
    return code, json.loads(out.getvalue())


class TestParams:
    """``params`` lists a command's options in parser order, without
    ``--input`` and ``--output``."""

    @pytest.mark.parametrize("command, args, keys", [
        ("bound", ("--n-max", "2"), ["norm", "n_max", "trace", "max_words"]),
        ("oracle", ("--n-max", "2"), ["norm", "n_max", "max_words"]),
        ("chi", ("--mesh", "0.5"), ["norm", "p", "mesh", "max_words"]),
        ("irreducible", ("--mesh", "0.5"),
         ["norm", "p", "mesh", "tol", "max_words"]),
        ("certify", ("--mesh", "0.2", "--n", "2"),
         ["norm", "p", "mesh", "n", "max_words"]),
        ("gamma", ("--samples", "16"),
         ["samples", "rho_upper", "n", "max_words"]),
        ("zero-test", (), ["max_words"]),
    ])
    def test_keys_in_parser_order(self, rotation_file, command, args, keys):
        code, doc = _run_doc(command, *args, "--input", rotation_file)
        assert code == 0
        assert list(doc["params"]) == keys

    def test_example_and_kronecker_keys(self, tmp_path, golden_file):
        path = tmp_path / "swap.json"
        path.write_text(SWAP)
        code, doc = _run_doc("example", "v", "--input", str(path))
        assert code == 0
        assert doc["params"] == {"family": "v"}
        code, doc = _run_doc("kronecker", "--input", golden_file)
        assert code == 0
        assert doc["params"] == {"n": 1, "max_kron_dim": 4096}

    def test_plan_keys(self):
        code, doc = _run_doc("plan", "--nu", "2")
        assert code == 0
        assert doc["params"] == {"nu": 2.0, "epsilon": 0.05, "r": None,
                                 "max_words": 1 << 24}

    def test_resolved_values(self, rotation_file):
        code, doc = _run_doc("chi", "--input", rotation_file, "--norm",
                             "linf", "--mesh", "0.5")
        assert code == 0
        assert doc["params"] == {"norm": "linf", "p": 1, "mesh": 0.5,
                                 "max_words": 1 << 24}

    def test_no_max_words_option_where_unused(self, golden_file):
        for argv in (("example", "v"), ("kronecker",)):
            with pytest.raises(SystemExit) as exc, \
                    contextlib.redirect_stderr(io.StringIO()):
                main([*argv, "--input", golden_file, "--max-words", "9"])
            assert exc.value.code == 2


class TestPlanLargeN:
    @pytest.mark.parametrize("epsilon, n", [("1e-5", 69316),
                                            ("1e-9", 693147047)])
    def test_fits_budget_decided_without_forming_r_to_the_n(self, epsilon, n):
        start = time.perf_counter()
        code, doc = _run_doc("plan", "--nu", "2", "--epsilon", epsilon,
                             "--r", "2")
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert doc["result"] == {"n": n, "products_required": None,
                                 "fits_budget": False}


class TestDeterminism:
    def test_byte_identical_runs(self, golden_file, rotation_file):
        for args in (
            ("bound", "--input", golden_file, "--n-max", "5"),
            ("chi", "--input", rotation_file, "--mesh", "0.02"),
            ("certify", "--input", rotation_file, "--p", "1", "--n", "3"),
        ):
            first = run_cli(*args)
            second = run_cli(*args)
            assert first.stdout == second.stdout
            assert first.returncode == second.returncode == 0


    def test_cached_nets_change_no_envelope(self, tmp_path):
        """A chi envelope taken after other nets are cached, another mesh
        of its icosphere level among them, equals the one taken after the
        net cache is emptied, and a fresh process's."""
        path = tmp_path / "trio3.json"
        path.write_text(TRIO3)
        chi = ("chi", "--input", str(path), "--p", "2", "--mesh")

        def run(mesh: str) -> str:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main([*chi, mesh]) == 0
            return out.getvalue()

        for d, kind in ((2, NormKind.L1), (3, NormKind.LINF)):
            sphere_net(d, kind, 0.1)
        warm = [run(mesh) for mesh in ("0.12", "0.1", "0.1")]
        geometry._net_at.cache_clear()
        assert warm[1] == warm[2] == run("0.1") == run_cli(*chi, "0.1").stdout
        assert warm[0] != warm[1]


class TestCommands:
    def test_plan(self):
        doc = json.loads(
            run_cli("plan", "--nu", "1.4142135", "--epsilon", "0.1").stdout
        )
        assert doc["result"]["n"] == 4
        assert doc["input_digest"] is None

    def test_zero_test_true(self, tmp_path):
        path = tmp_path / "nilpotent.json"
        path.write_text(NILPOTENT)
        doc = json.loads(run_cli("zero-test", "--input", str(path)).stdout)
        assert doc["result"]["zero_radius"] is True

    def test_example_v(self, tmp_path):
        path = tmp_path / "swap.json"
        path.write_text(SWAP)
        doc = json.loads(run_cli("example", "v", "--input", str(path)).stdout)
        assert doc["result"]["bound"]["chi_lower"] == 0.5
        assert doc["result"]["set"]["dim"] == 2
        assert len(doc["result"]["set"]["matrices"]) == 3

    def test_example_p(self, tmp_path):
        path = tmp_path / "swap.json"
        path.write_text(SWAP)
        doc = json.loads(run_cli("example", "p", "--input", str(path)).stdout)
        assert doc["result"]["bound"]["family"] == "P"
        assert len(doc["result"]["set"]["matrices"]) == 2

    def test_example_rejects_multi_matrix_input(self, golden_file):
        proc = run_cli("example", "v", "--input", golden_file)
        assert proc.returncode == 1
        assert "single matrix" in json.loads(proc.stdout)["error"]

    def test_oracle_matches_bound(self, golden_file):
        bound = json.loads(
            run_cli("bound", "--input", golden_file, "--n-max", "4").stdout
        )
        oracle = json.loads(
            run_cli("oracle", "--input", golden_file, "--n-max", "4").stdout
        )
        assert oracle["result"]["lower"] == pytest.approx(
            bound["result"]["best_lower"], rel=1e-12
        )
        assert oracle["result"]["upper"] == pytest.approx(
            bound["result"]["best_upper"], rel=1e-12
        )

    def test_kronecker(self, golden_file):
        doc = json.loads(
            run_cli("kronecker", "--input", golden_file, "--n", "2").stdout
        )
        ratio = doc["result"]["upper"] / doc["result"]["lower"]
        assert ratio == pytest.approx(2.0 ** 0.5, rel=1e-12)

    def test_irreducible(self, rotation_file):
        doc = json.loads(run_cli("irreducible", "--input", rotation_file).stdout)
        assert doc["result"]["irreducible"] is True
        assert doc["result"]["agreement"] == "consistent"

    def test_irreducible_positive_certificate_at_any_tol(self, golden_file):
        code, doc = _run_doc("irreducible", "--input", golden_file,
                             "--tol", "10")
        assert code == 0
        assert doc["result"]["chi"]["certified_lower"] == 0.41485291572496
        assert doc["result"]["agreement"] == "consistent"

    def test_certify(self, rotation_file):
        doc = json.loads(
            run_cli("certify", "--input", rotation_file, "--p", "1",
                    "--n", "4", "--mesh", "0.005").stdout
        )
        interval = doc["result"]["interval"]
        assert interval["upper"] == pytest.approx(1.0, abs=1e-9)
        assert interval["lower"] <= 1.0

    def test_gamma(self, rotation_file):
        doc = json.loads(run_cli("gamma", "--input", rotation_file).stdout)
        assert doc["result"]["gamma_lower"] == pytest.approx(0.5, abs=0.01)
        assert doc["warnings"] == []


class TestWarnings:
    def test_trace_flagged_heuristic(self, golden_file):
        doc = json.loads(
            run_cli("bound", "--input", golden_file, "--n-max", "3",
                    "--trace").stdout
        )
        assert len(doc["result"]["trace_estimates"]) == 3
        assert any("heuristic" in w for w in doc["warnings"])

    def test_trace_estimates_equal_per_n_calls(self, tmp_path):
        """The one-pass estimates are bit-equal to ``trace_estimate``."""
        rng = np.random.default_rng(5)
        for d, r in ((2, 2), (3, 3)):
            mats = rng.uniform(-1.0, 1.0, (r, d, d))
            path = tmp_path / f"set{d}.json"
            path.write_text(json.dumps({"dim": d,
                                        "matrices": mats.tolist()}))
            code, doc = _run_doc("bound", "--input", str(path), "--n-max",
                                 "6", "--trace")
            assert code == 0
            ms = MatrixSet.from_arrays(mats)
            assert [v.hex() for v in doc["result"]["trace_estimates"]] == [
                trace_estimate(ms, n).hex() for n in range(1, 7)]

    def test_trace_takes_one_enumeration_pass(self, golden_file,
                                              monkeypatch):
        """bound --trace enumerates once, for the bounds and the trace
        estimates together: its reports are those of bound alone, and a
        budget error keeps them as ``partial``."""
        _, plain = _run_doc("bound", "--input", golden_file, "--n-max", "6")
        calls = []
        original = core.max_over_products

        def counted(*args, **kwargs):
            calls.append(list(args[2]))
            return original(*args, **kwargs)

        for module in (core, bounds, cli):
            if hasattr(module, "max_over_products"):
                monkeypatch.setattr(module, "max_over_products", counted)
        code, doc = _run_doc("bound", "--input", golden_file, "--n-max", "6",
                             "--trace")
        assert code == 0
        assert calls == [[NormKind.L2, RADIUS, TRACE]]
        assert doc["result"]["reports"] == plain["result"]["reports"]
        assert len(doc["result"]["trace_estimates"]) == 6
        calls.clear()
        code, doc = _run_doc("bound", "--input", golden_file, "--n-max", "30",
                             "--max-words", "100", "--trace")
        assert code == 1 and "budget is 100" in doc["error"]
        assert len(calls) == 1
        assert doc["partial"] == plain["result"]["reports"]

    def test_uncertified_chi_warns(self, tmp_path):
        path = tmp_path / "diag.json"
        path.write_text(DIAGONAL)
        doc = json.loads(run_cli("chi", "--input", str(path)).stdout)
        assert doc["result"]["certified_lower"] == 0.0
        assert any("not certified" in w for w in doc["warnings"])


def _scaled_file(tmp_path, text: str, c: float) -> str:
    doc = json.loads(text)
    doc["matrices"] = [[[c * v for v in row] for row in m]
                       for m in doc["matrices"]]
    path = tmp_path / f"scaled-{c!r}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _run_strict(*args: str) -> dict:
    """Run the CLI in this process with RuntimeWarnings as errors."""
    out = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out):
        warnings.simplefilter("error", RuntimeWarning)
        assert main(list(args)) == 0, out.getvalue()
    return json.loads(out.getvalue())["result"]


class TestScaleFree:
    def test_bound_results_scale_with_the_input(self, golden_file, tmp_path):
        c = 2.0 ** 600
        plain = _run_strict("bound", "--input", golden_file, "--n-max", "4")
        scaled = _run_strict("bound", "--input",
                             _scaled_file(tmp_path, GOLDEN, c), "--n-max", "4")
        for key in ("best_lower", "best_upper"):
            assert scaled[key] == pytest.approx(c * plain[key], rel=1e-12)
        for a, b in zip(plain["reports"], scaled["reports"]):
            for key in ("lower", "upper", "best_lower", "best_upper"):
                assert b[key] == pytest.approx(c * a[key], rel=1e-12)

    @pytest.mark.parametrize("c", [1e-200, 1e200])
    def test_far_from_unit_scale(self, golden_file, tmp_path, c):
        scaled = _scaled_file(tmp_path, GOLDEN, c)
        cases = [("bound", "--n-max", "4", "best_lower", "best_upper"),
                 ("oracle", "--n-max", "4", "lower", "upper"),
                 ("kronecker", "--n", "2", "lower", "upper")]
        for command, flag, value, low, high in cases:
            plain = _run_strict(command, "--input", golden_file, flag, value)
            got = _run_strict(command, "--input", scaled, flag, value)
            assert got[low] == pytest.approx(c * plain[low], rel=1e-12)
            assert got[high] == pytest.approx(c * plain[high], rel=1e-12)
        plain = _run_strict("gamma", "--input", golden_file)
        got = _run_strict("gamma", "--input", scaled)
        assert got["gamma_lower"] == pytest.approx(plain["gamma_lower"],
                                                   rel=1e-12)
        assert _run_strict("zero-test", "--input", scaled) == \
            {"zero_radius": False}
        triangular = _scaled_file(tmp_path, NILPOTENT, c)
        assert _run_strict("zero-test", "--input", triangular) == \
            {"zero_radius": True}

    def test_zero_test_at_moderate_scales(self, tmp_path):
        for c in (1e-20, 1e100):
            path = _scaled_file(tmp_path, GOLDEN, c)
            assert _run_strict("zero-test", "--input", path) == \
                {"zero_radius": False}

    @pytest.mark.parametrize("command", ["chi", "certify", "irreducible"])
    def test_reach_products_beyond_the_float_range_exit_1(self, tmp_path,
                                                          command):
        """chi is not homogeneous, so its reach products are not rescaled:
        a length-2 product of 1e400 is refused, with no overflow warning."""
        path = _scaled_file(tmp_path, ROTATIONS3, 1e200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, doc = _run_doc(command, "--input", path, "--mesh", "0.3")
        assert code == 1
        assert doc == {"command": command, "error": "a product of at most 2 "
                       "members leaves the float range"}

    def test_long_products_of_one_matrix(self, tmp_path):
        path = tmp_path / "single.json"
        path.write_text('{"dim": 2, "matrices": [[[2, 1], [0, 1.5]]]}')
        result = _run_strict("bound", "--input", str(path), "--n-max", "600")
        assert len(result["reports"]) == 600
        assert result["best_lower"] == pytest.approx(2.0, rel=1e-12)


class TestParserOnce:
    """``main`` reuses one parser; no option carries over between calls."""

    def _calls(self, golden_file, out) -> list[tuple[str, ...]]:
        bound = ("bound", "--input", golden_file)
        return [
            (*bound, "--n-max", "3", "--trace"),
            (*bound, "--n-max", "3"),
            (*bound, "--n-max", "9", "--max-words", "100"),
            (*bound, "--n-max", "9"),
            (*bound, "--n-max", "2", "--output", out),
            (*bound, "--n-max", "2", "--norm", "l1"),
            ("chi", "--input", golden_file, "--mesh", "0.2", "--p", "2"),
            ("chi", "--input", golden_file, "--mesh", "0.2"),
            ("plan", "--nu", "3", "--r", "2", "--max-words", "10"),
            ("plan", "--nu", "3", "--r", "2"),
        ]

    def _run_all(self, calls, out, fresh: bool) -> list[tuple]:
        """(exit code, stdout, --output file or None) of each call."""
        runs = []
        for argv in calls:
            if fresh:
                _build_parser.cache_clear()
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = main(list(argv))
            written = out.read_text() if out.exists() else None
            out.unlink(missing_ok=True)
            runs.append((code, stdout.getvalue(), written))
        return runs

    def test_envelopes_match_fresh_parsers(self, golden_file, tmp_path):
        out = tmp_path / "out.json"
        calls = self._calls(golden_file, str(out))
        reused = self._run_all(calls, out, fresh=False)
        assert _build_parser() is _build_parser()
        assert reused == self._run_all(calls, out, fresh=True)
        docs = [json.loads(text or written) for _, text, written in reused]
        assert [code for code, _, _ in reused] == [0, 0, 1, 0, 0, 0, 0, 0,
                                                   0, 0]
        assert "trace_estimates" in docs[0]["result"]
        assert "trace_estimates" not in docs[1]["result"]
        assert "budget is 100" in docs[2]["error"]
        assert docs[3]["params"]["max_words"] == DEFAULT_WORD_BUDGET
        assert reused[4][1] == "" and reused[4][2] is not None
        assert reused[5][1] != "" and reused[5][2] is None
        assert docs[6]["params"]["p"] == 2 and docs[7]["params"]["p"] == 1
        assert docs[8]["result"]["fits_budget"] is False
        assert docs[9]["result"]["fits_budget"] is True


class TestExitCodes:
    def test_usage_error_is_2(self):
        assert run_cli("bound", "--no-such-flag").returncode == 2
        assert run_cli().returncode == 2

    def test_computation_error_is_1_with_module_message(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dim": 2, "matrices": [[[1, 1]]]}')
        proc = run_cli("bound", "--input", str(path))
        assert proc.returncode == 1
        doc = json.loads(proc.stdout)
        assert "ragged matrix: expected 2 rows" in doc["error"]

    def test_missing_file_is_1(self):
        assert run_cli("bound", "--input", "/no/such/file.json").returncode == 1

    def test_negative_kron_input_is_1(self, rotation_file):
        proc = run_cli("kronecker", "--input", rotation_file)
        assert proc.returncode == 1
        assert "nonnegative" in json.loads(proc.stdout)["error"]

    def test_budget_error_is_1(self, golden_file):
        proc = run_cli("bound", "--input", golden_file, "--n-max", "30",
                       "--max-words", "100")
        assert proc.returncode == 1
        assert "budget" in json.loads(proc.stdout)["error"]
        code, full = _run_doc("bound", "--input", golden_file, "--n-max", "6")
        assert code == 0
        assert json.loads(proc.stdout)["partial"] == full["result"]["reports"]

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_plan_budget_must_be_positive(self, budget):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["plan", "--nu", "3", "--r", "2", "--max-words",
                         budget])
        assert code == 1
        assert json.loads(out.getvalue(), parse_constant=_reject) == {
            "command": "plan",
            "error": f"max_words must be a positive integer, got {budget}"}

    def test_integer_beyond_the_float_range_is_1(self, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text('{"dim": 1, "matrices": [[[1' + "0" * 400 + ']]]}')
        proc = run_cli("bound", "--input", str(path))
        assert proc.returncode == 1
        assert json.loads(proc.stdout, parse_constant=_reject) == {
            "command": "bound",
            "error": "matrix 1, entry (0, 0): integer beyond the float range"}

    @pytest.mark.parametrize("p", ["0", "1"])
    def test_crosscheck_p_below_d_minus_1_is_1(self, tmp_path, p):
        path = tmp_path / "pair3.json"
        path.write_text(ROTATIONS3)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["irreducible", "--input", str(path), "--p", p,
                         "--mesh", "0.1"])
        assert code == 1
        assert json.loads(out.getvalue(), parse_constant=_reject) == {
            "command": "irreducible",
            "error": f"the crosscheck needs p >= d - 1 = 2, got p={p}"}

    @pytest.mark.parametrize("command", ["chi", "irreducible", "certify"])
    def test_dimension_4_names_the_supported_ones(self, tmp_path, command):
        path = tmp_path / "quad.json"
        path.write_text(json.dumps({"dim": 4, "matrices": [
            [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]]]}))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([command, "--input", str(path)])
        assert code == 1
        error = json.loads(out.getvalue(), parse_constant=_reject)["error"]
        assert "d=4" in error and "{1, 2, 3}" in error
        assert "sampling_fallback" not in error


R3 = ('{"dim": 2, "matrices": [[[1, 1], [0, 1]], [[1, 0], [1, 1]], '
      '[[0, 1], [-1, 0]]]}')
NONNEG3 = ('{"dim": 3, "matrices": [[[1, 1, 0], [0, 1, 0], [0, 0, 1]], '
           '[[1, 0, 0], [1, 1, 0], [0, 1, 1]]]}')
ROTATIONS3 = ('{"dim": 3, "matrices": [[[0, -1, 0], [1, 0, 0], [0, 0, 1]], '
              '[[1, 0, 0], [0, 0, -1], [0, 1, 0]]]}')
QUAD3 = ('{"dim": 4, "matrices": [[[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], '
         '[1, 0, 0, 0]], [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], '
         '[0, 0, 0, 1]], [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], '
         '[0, 0, 1, 1]]]}')


class TestOversizedRequests:
    """Requests far beyond the word budget or the net size limit end in
    an error envelope at once, before any count or array is formed."""

    @pytest.mark.parametrize("text, args, message", [
        (R3, ("oracle", "--n-max", "20000"),
         "brute force over n <= 20000 requires more than 2^19999 words, "
         "budget is 16777216"),
        (R3, ("oracle", "--n-max", "100000"),
         "brute force over n <= 100000 requires more than 2^99999 words, "
         "budget is 16777216"),
        (R3, ("chi", "--p", "20000"),
         "products of length <= 20000 require more than 2^19999 words, "
         "budget is 16777216"),
        (R3, ("certify", "--n", "20000"),
         "enumerating length-20000 products requires more than 2^19999 "
         "words, budget is 16777216"),
        (R3, ("gamma", "--n", "20000"),
         "enumerating length-20000 products requires more than 2^19999 "
         "words, budget is 16777216"),
        (NONNEG3, ("kronecker", "--n", "10000000"),
         "Kronecker power dimension more than 2^9999999 exceeds the limit "
         "4096"),
        (R3, ("chi", "--mesh", "1e-15"),
         "a circle net at mesh 1e-15 needs more than 4194304 points"),
        (ROTATIONS3, ("chi", "--norm", "l1", "--mesh", "1e-9"),
         "a polyhedral net at mesh 1e-09 needs more than 4194304 points"),
        (ROTATIONS3, ("chi", "--mesh", "1e-9"),
         "an icosphere at mesh 1e-09 needs more than 4194304 points"),
        (ROTATIONS3, ("irreducible", "--mesh", "5e-324"),
         "an icosphere at mesh 5e-324 needs more than 4194304 points"),
        (ROTATIONS3, ("chi", "--norm", "linf", "--mesh", "5e-324"),
         "a polyhedral net at mesh 5e-324 needs more than 4194304 points"),
        (R3, ("certify", "--norm", "l1", "--mesh", "5e-324"),
         "a circle net at mesh 5e-324 needs more than 4194304 points"),
        (R3, ("gamma", "--samples", "10000000000000000"),
         "gamma with 10000000000000000 samples needs more than 4194304 "
         "points"),
        (ROTATIONS3, ("chi", "--p", "1", "--mesh", "0.001"),
         "an icosphere at mesh 0.001 needs more than 4194304 points"),
        (ROTATIONS3, ("gamma", "--samples", "3000000"),
         "an icosphere at mesh 0.001171875 needs more than 4194304 points"),
        # 3^0 + ... + 3^40 reach products exceed the budget; the
        # dimension is refused before they are counted.
        (QUAD3, ("chi", "--p", "40"),
         "deterministic sphere nets are available for d in {1, 2, 3}, "
         "got d=4"),
        (QUAD3, ("certify", "--p", "40"),
         "deterministic sphere nets are available for d in {1, 2, 3}, "
         "got d=4"),
        (QUAD3, ("irreducible", "--p", "40"),
         "deterministic sphere nets are available for d in {1, 2, 3}, "
         "got d=4"),
        (R3, ("chi", "--mesh", "nan"), "mesh must be positive and finite, "
         "got nan"),
        (R3, ("chi", "--mesh", "inf"), "mesh must be positive and finite, "
         "got inf"),
    ])
    def test_error_envelope_within_a_second(self, tmp_path, text, args,
                                            message):
        path = tmp_path / "set.json"
        path.write_text(text)
        start = time.perf_counter()
        code, doc = _run_doc(*args, "--input", str(path))
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert doc == {"command": args[0], "error": message}

    @pytest.mark.parametrize("args, message", [
        (("plan", "--nu", "inf"), "nu must exceed 1 and be finite, got inf"),
        (("plan", "--nu", "nan"), "nu must exceed 1 and be finite, got nan"),
        (("plan", "--nu", "2", "--epsilon", "nan"),
         "epsilon must be positive and finite, got nan"),
        (("plan", "--nu", "2", "--epsilon", "inf"),
         "epsilon must be positive and finite, got inf"),
        (("gamma", "--rho-upper", "nan"),
         "rho_upper must be non-negative and finite, got nan"),
        (("gamma", "--rho-upper", "inf"),
         "rho_upper must be non-negative and finite, got inf"),
        (("gamma", "--rho-upper", "-5"),
         "rho_upper must be non-negative and finite, got -5.0"),
        (("irreducible", "--tol", "nan"),
         "tolerance must be non-negative and finite, got nan"),
    ])
    def test_bad_numeric_option_is_a_strict_json_error(self, tmp_path, args,
                                                       message):
        path = tmp_path / "set.json"
        path.write_text(R3)
        extra = () if args[0] == "plan" else ("--input", str(path))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([*args, *extra])
        assert code == 1
        assert json.loads(out.getvalue(), parse_constant=_reject) == {
            "command": args[0], "error": message}

    def test_counts_below_2_to_the_1024_are_printed_in_full(self, tmp_path):
        path = tmp_path / "set.json"
        path.write_text(R3)
        code, doc = _run_doc("oracle", "--n-max", "600", "--input", str(path))
        assert code == 1
        total = sum(3 ** n for n in range(1, 601))
        assert total < 1 << 1024
        assert doc["error"] == (f"brute force over n <= 600 requires {total} "
                                "words, budget is 16777216")

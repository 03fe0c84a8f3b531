from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
import warnings

import pytest

from jsrbound.cli import main

GOLDEN = '{"dim": 2, "matrices": [[[1, 1], [0, 1]], [[1, 0], [1, 1]]]}'
ROTATION = '{"dim": 2, "matrices": [[[0, -1], [1, 0]]]}'
SWAP = '{"dim": 2, "matrices": [[[0, 1], [1, 0]]]}'
NILPOTENT = '{"dim": 2, "matrices": [[[0, 1], [0, 0]]]}'
DIAGONAL = '{"dim": 2, "matrices": [[[2, 0], [0, 3]], [[1, 0], [0, 5]]]}'


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

    def test_long_products_of_one_matrix(self, tmp_path):
        path = tmp_path / "single.json"
        path.write_text('{"dim": 2, "matrices": [[[2, 1], [0, 1.5]]]}')
        result = _run_strict("bound", "--input", str(path), "--n-max", "600")
        assert len(result["reports"]) == 600
        assert result["best_lower"] == pytest.approx(2.0, rel=1e-12)


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

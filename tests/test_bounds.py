from __future__ import annotations

import numpy as np
import pytest

from jsrbound import (
    BudgetExceededError,
    MatrixSet,
    NormKind,
    OverflowRiskError,
    gelfand_upper,
    kronecker_bounds,
    sandwich,
    spectral_lower,
    trace_estimate,
    zero_radius_test,
)
from jsrbound.core import _product_chunks

from .conftest import GOLDEN_PAIR, PHI, QUARTER_TURN, random_set

NILPOTENT = MatrixSet.from_arrays([[[0.0, 1.0], [0.0, 0.0]]])


def _all_products(mset: MatrixSet, n: int) -> list[np.ndarray]:
    """Plodding reference enumeration used as the in-test oracle."""
    prods = [np.eye(mset.dim)]
    for _ in range(n):
        prods = [m @ p for p in prods for m in mset.members]
    return prods


class TestGelfandUpper:
    def test_scalar_doubling(self):
        ms = MatrixSet.from_arrays([2.0 * np.eye(2)])
        assert gelfand_upper(ms, 4, NormKind.L1) == pytest.approx(2.0)

    def test_sign_pair(self):
        ms = MatrixSet.from_arrays([np.eye(2), -np.eye(2)])
        assert gelfand_upper(ms, 3, NormKind.LINF) == pytest.approx(1.0)

    def test_golden_pair_n2_l1(self):
        # max column sum over the four products is 3
        oracle = max(
            max(np.abs(p).sum(axis=0)) for p in _all_products(GOLDEN_PAIR, 2)
        )
        assert oracle == 3.0
        assert gelfand_upper(GOLDEN_PAIR, 2, NormKind.L1) == pytest.approx(
            np.sqrt(3.0)
        )


class TestSpectralLower:
    def test_scalar(self):
        ms = MatrixSet.from_arrays([2.0 * np.eye(2)])
        assert spectral_lower(ms, 1) == pytest.approx(2.0)

    def test_nilpotent(self):
        assert spectral_lower(NILPOTENT, 2) == 0.0

    def test_golden_pair_n2(self):
        # rho(A2 A1) solves x^2 - 3x + 1 = 0, largest root (3 + sqrt 5)/2
        oracle = np.sqrt((3.0 + np.sqrt(5.0)) / 2.0)
        assert oracle == pytest.approx(PHI)
        assert spectral_lower(GOLDEN_PAIR, 2) == pytest.approx(oracle)


class TestSandwich:
    def test_identity_collapses(self):
        ms = MatrixSet.from_arrays([np.eye(2)])
        for rep in sandwich(ms, 3, NormKind.L2):
            assert rep.lower_n == pytest.approx(1.0)
            assert rep.upper_n == pytest.approx(1.0)

    def test_isometry_collapses(self):
        for rep in sandwich(QUARTER_TURN, 4, NormKind.L2):
            assert rep.lower_n == pytest.approx(1.0)
            assert rep.upper_n == pytest.approx(1.0)

    def test_golden_pair_brackets(self):
        reports = sandwich(GOLDEN_PAIR, 8, NormKind.L2)
        assert reports[-1].best_lower >= 1.618033
        best_uppers = [rep.best_upper for rep in reports]
        best_lowers = [rep.best_lower for rep in reports]
        assert best_uppers == sorted(best_uppers, reverse=True)
        assert best_lowers == sorted(best_lowers)
        assert reports[-1].best_upper - reports[-1].best_lower < 0.25

    def test_lower_never_exceeds_upper(self, rng):
        for _ in range(12):
            ms = random_set(rng, int(rng.integers(2, 4)), int(rng.integers(2, 4)))
            for kind in NormKind:
                reports = sandwich(ms, 4, kind)
                for rep in reports:
                    assert rep.lower_n <= rep.upper_n + 1e-9
                assert reports[-1].best_lower <= reports[-1].best_upper + 1e-9

    def test_budget_error_keeps_partial_reports(self):
        with pytest.raises(BudgetExceededError) as info:
            sandwich(GOLDEN_PAIR, 20, NormKind.L2, max_words=100)
        partial = info.value.partial
        assert len(partial) == 6  # 2^6 = 64 fits, 2^7 does not
        assert partial[-1].n == 6

    def test_witnesses_have_requested_length(self):
        rep = sandwich(GOLDEN_PAIR, 3, NormKind.L2)[-1]
        assert len(rep.witness_lower) == 3
        assert len(rep.witness_upper) == 3

    def test_report_dict_shape(self):
        doc = sandwich(GOLDEN_PAIR, 2, NormKind.L1)[-1].to_dict()
        assert set(doc) == {
            "n", "kind", "lower", "upper", "best_lower", "best_upper",
            "witness_lower", "witness_upper",
        }


class TestTraceEstimate:
    def test_scalar(self):
        ms = MatrixSet.from_arrays([2.0 * np.eye(1)])
        assert trace_estimate(ms, 1) == pytest.approx(2.0)

    def test_rotation_squares_to_minus_identity(self):
        assert trace_estimate(QUARTER_TURN, 2) == pytest.approx(np.sqrt(2.0))

    def test_golden_pair_n2(self):
        # traces of the four products are 2, 3, 3, 2
        traces = sorted(abs(np.trace(p)) for p in _all_products(GOLDEN_PAIR, 2))
        assert traces == [2.0, 2.0, 3.0, 3.0]
        assert trace_estimate(GOLDEN_PAIR, 2) == pytest.approx(np.sqrt(3.0))


class TestKronecker:
    def test_single_member_coincides(self):
        ms = MatrixSet.from_arrays([2.0 * np.eye(1)])
        lower, upper = kronecker_bounds(ms, 2)
        assert lower == pytest.approx(2.0)
        assert upper == pytest.approx(2.0)

    def test_scalar_pair(self):
        ms = MatrixSet.from_arrays([[[1.0]], [[3.0]]])
        lower, upper = kronecker_bounds(ms, 1)
        assert upper == pytest.approx(4.0)
        assert lower == pytest.approx(2.0)
        assert lower <= 3.0 <= upper

    def test_golden_pair_contains_radius(self):
        lower, upper = kronecker_bounds(GOLDEN_PAIR, 2)
        assert lower <= PHI <= upper

    def test_ratio_is_exact_root_of_r(self, rng):
        for _ in range(8):
            ms = MatrixSet.from_arrays(rng.uniform(0, 1, size=(2, 2, 2)))
            for n in (1, 2, 3):
                lower, upper = kronecker_bounds(ms, n)
                assert upper / lower == pytest.approx(2.0 ** (1.0 / n), rel=1e-12)

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            kronecker_bounds(GOLDEN_PAIR.scaled(-1.0), 1)

    def test_dimension_budget(self):
        ms = MatrixSet.from_arrays(np.ones((2, 2, 2)))
        with pytest.raises(BudgetExceededError):
            kronecker_bounds(ms, 4, max_kron_dim=8)


class TestZeroRadius:
    def test_nilpotent_true(self):
        assert zero_radius_test(NILPOTENT) is True

    def test_identity_false(self):
        assert zero_radius_test(MatrixSet.from_arrays([np.eye(2)])) is False

    def test_two_nilpotents_false(self):
        # one product order has spectral radius 1
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        b = np.array([[0.0, 0.0], [1.0, 0.0]])
        assert max(abs(np.linalg.eigvals(a @ b))) == pytest.approx(1.0)
        ms = MatrixSet.from_arrays([a, b])
        assert zero_radius_test(ms) is False

    def test_strictly_triangular_family(self, rng):
        for d in (2, 3):
            mats = np.triu(rng.uniform(-1, 1, size=(3, d, d)), k=1)
            ms = MatrixSet.from_arrays(mats)
            assert zero_radius_test(ms) is True

    def test_tolerance_tracks_input_magnitude(self):
        # guard is 1e-12 * (1 + max input entry): upscaled nilpotents whose
        # products only vanish to rounding still count as zero
        assert zero_radius_test(NILPOTENT.scaled(1e-8)) is True
        assert zero_radius_test(NILPOTENT.scaled(1e6)) is True
        assert zero_radius_test(GOLDEN_PAIR.scaled(0.5)) is False


def _unit(d: int, i: int, j: int) -> np.ndarray:
    e = np.zeros((d, d))
    e[i, j] = 1.0
    return e


class TestChunkedScans:
    """Scans over a shrunk engine block (64 floats) behave as one block."""

    def test_overflow_in_a_later_block_keeps_partial(self, monkeypatch):
        ms = MatrixSet.from_arrays([1e-20 * np.eye(2), 1e27 * np.eye(2)])
        with pytest.raises(OverflowRiskError) as whole:
            sandwich(ms, 8, NormKind.L2)
        monkeypatch.setattr("jsrbound.core._CHUNK_FLOATS", 64)
        # 4 floats per word: length-6 words come in 4 blocks of 2^4 words,
        # and only the last head, (2, 2), reaches 1e27^6 > OVERFLOW_LIMIT
        chunks = _product_chunks(ms, 6, 1 << 20)
        assert [next(chunks)[0] for _ in range(3)] == [0, 16, 32]
        with pytest.raises(OverflowRiskError):
            next(chunks)
        with pytest.raises(OverflowRiskError) as chunked:
            sandwich(ms, 8, NormKind.L2)
        partial = chunked.value.partial
        assert [rep.n for rep in partial] == [1, 2, 3, 4, 5]
        assert [rep.to_dict() for rep in partial] == \
            [rep.to_dict() for rep in whole.value.partial]

    def test_zero_radius_verdicts_match_one_block(self, rng, monkeypatch):
        sets = [
            NILPOTENT,
            GOLDEN_PAIR,
            MatrixSet.from_arrays([_unit(2, 0, 1), _unit(2, 1, 0)]),
            *(MatrixSet.from_arrays(np.triu(rng.uniform(-1, 1, (3, d, d)),
                                            k=1)) for d in (3, 4)),
            random_set(rng, 3, 3),
        ]
        whole = [zero_radius_test(ms) for ms in sets]
        assert whole == [True, False, False, True, True, False]
        monkeypatch.setattr("jsrbound.core._CHUNK_FLOATS", 64)
        assert [zero_radius_test(ms) for ms in sets] == whole

    def test_zero_radius_first_nonzero_in_a_late_block(self, small_chunks):
        # E12, E23, E33 in d = 3: 9 blocks of 3 words, one per pair of
        # first factors; only words starting E33 then E23 or E33 survive
        ms = MatrixSet.from_arrays([_unit(3, 0, 1), _unit(3, 1, 2),
                                    _unit(3, 2, 2)])
        blocks = [b for _, b in _product_chunks(ms, 3, 1 << 20)]
        assert len(blocks) == 9
        nonzero = [k for k, b in enumerate(blocks) if np.max(np.abs(b)) > 0]
        assert nonzero[0] == 7
        assert zero_radius_test(ms) is False

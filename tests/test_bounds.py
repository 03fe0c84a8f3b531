from __future__ import annotations

import math

import numpy as np
import pytest

from jsrbound import (
    BudgetExceededError,
    ConvergenceError,
    MatrixSet,
    NormKind,
    brute_force_interval,
    gelfand_upper,
    kronecker_bounds,
    sandwich,
    trace_estimate,
    zero_radius_test,
)
from jsrbound.core import RADIUS, _product_chunks, _root, max_over_products
import jsrbound.core as core_module

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
    """The step-n lower bound, as ``sandwich`` reports it."""

    def test_scalar(self):
        ms = MatrixSet.from_arrays([2.0 * np.eye(2)])
        assert sandwich(ms, 1, NormKind.L2)[0].lower == pytest.approx(2.0)

    def test_nilpotent(self):
        assert sandwich(NILPOTENT, 2, NormKind.L2)[1].lower == 0.0

    def test_golden_pair_n2(self):
        # rho(A2 A1) solves x^2 - 3x + 1 = 0, largest root (3 + sqrt 5)/2
        oracle = np.sqrt((3.0 + np.sqrt(5.0)) / 2.0)
        assert oracle == pytest.approx(PHI)
        assert sandwich(GOLDEN_PAIR, 2, NormKind.L2)[1].lower == \
            pytest.approx(oracle)


class TestSandwich:
    def test_identity_collapses(self):
        ms = MatrixSet.from_arrays([np.eye(2)])
        for rep in sandwich(ms, 3, NormKind.L2):
            assert rep.lower == pytest.approx(1.0)
            assert rep.upper == pytest.approx(1.0)

    def test_isometry_collapses(self):
        for rep in sandwich(QUARTER_TURN, 4, NormKind.L2):
            assert rep.lower == pytest.approx(1.0)
            assert rep.upper == pytest.approx(1.0)

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
                    assert rep.lower <= rep.upper + 1e-9
                assert reports[-1].best_lower <= reports[-1].best_upper + 1e-9

    def test_budget_error_keeps_partial_reports(self):
        with pytest.raises(BudgetExceededError) as info:
            sandwich(GOLDEN_PAIR, 20, NormKind.L2, max_words=100)
        partial = info.value.partial
        assert len(partial) == 6  # 2^6 = 64 fits, 2^7 does not
        assert partial[-1].n == 6

    def test_eigensolver_error_keeps_the_earlier_levels(self, monkeypatch):
        radii = core_module.spectral_radii

        def failing_at_level_3(stack):
            # the 4 necklaces of the 2^3 words, the radius's one block
            if stack.shape[0] == 4:
                raise ConvergenceError("eigenvalue iteration failed")
            return radii(stack)

        expect = [rep.to_dict() for rep in sandwich(GOLDEN_PAIR, 2,
                                                    NormKind.L2)]
        monkeypatch.setattr(core_module, "spectral_radii", failing_at_level_3)
        with pytest.raises(ConvergenceError) as info:
            sandwich(GOLDEN_PAIR, 5, NormKind.L2)
        assert [rep.to_dict() for rep in info.value.partial] == expect

    def test_float_budget_is_refused_by_name(self):
        with pytest.raises(ValueError, match="max_words must be a positive "
                                             "integer, got 1000000.0"):
            sandwich(GOLDEN_PAIR, 3, NormKind.L2, 1e6)

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

    @pytest.mark.parametrize("limit", [0, -3, 8.0, True])
    def test_limit_must_be_a_positive_int(self, limit):
        ms = MatrixSet.from_arrays(np.ones((2, 2, 2)))
        with pytest.raises(ValueError, match="max_kron_dim must be a "
                                             "positive integer"):
            kronecker_bounds(ms, 1, max_kron_dim=limit)


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

    def test_scales_far_apart_match_one_block(self, monkeypatch):
        ms = MatrixSet.from_arrays([1e-20 * np.eye(2), 1e27 * np.eye(2)])
        whole = sandwich(ms, 8, NormKind.L2)
        monkeypatch.setattr("jsrbound.core._CHUNK_FLOATS", 64)
        # 4 floats per word: length-6 words come in 4 blocks of 2^4 words;
        # the members are divided by 2^e, which keeps every level in range
        e = math.frexp(1e27)[1]
        chunks = list(_product_chunks(ms, 6, 1 << 20))
        assert [(start, exp) for start, _, exp in chunks] == \
            [(0, 6 * e), (16, 6 * e), (32, 6 * e), (48, 6 * e)]
        chunked = sandwich(ms, 8, NormKind.L2)
        assert [rep.to_dict() for rep in chunked] == \
            [rep.to_dict() for rep in whole]
        for rep in whole:
            assert rep.upper == pytest.approx(1e27, rel=1e-12)

    def test_rescaled_later_block_matches_one_block(self, monkeypatch):
        ms = MatrixSet.from_arrays([np.eye(2), 2.0 ** -250 * np.eye(2)])
        whole = sandwich(ms, 8, NormKind.L2)
        monkeypatch.setattr("jsrbound.core._CHUNK_FLOATS", 64)
        # members / 2: the table of length 4 tops at 2^-4 and is kept as
        # it is; of the groups of prefixes under it, only (2, 2, ., .)
        # leaves [2^-500, 2^500] at length 5 (it tops at 2^-505) and is
        # multiplied by 2^504; word (2, 2, 1, 1, 1, 1) is 2^-500 I
        chunks = list(_product_chunks(ms, 6, 1 << 20))
        assert [exp for _, _, exp in chunks] == [6, 6, 6, 6 - 504]
        assert np.array_equal(chunks[3][1][0], 2.0 ** -2 * np.eye(2))
        chunked = sandwich(ms, 8, NormKind.L2)
        assert [rep.to_dict() for rep in chunked] == \
            [rep.to_dict() for rep in whole]

    def test_reports_match_single_level_calls(self, rng, small_chunks):
        """Past the last level that fits one block (length 2, and 4 for the
        last set), the
        one pass of ``sandwich`` still gives each level's single-level
        maxima."""
        sets = [random_set(rng, 2, 3), random_set(rng, 3, 2),
                MatrixSet.from_arrays([1e-20 * np.eye(2), 1e27 * np.eye(2)])]
        for ms in sets:
            for kind in NormKind:
                for rep in sandwich(ms, 5, kind):
                    upper, lower = max_over_products(ms, rep.n,
                                                     [kind, RADIUS])
                    assert (rep.upper, rep.witness_upper) == (
                        _root(*upper[:2], rep.n), upper[2])
                    assert (rep.lower, rep.witness_lower) == (
                        _root(*lower[:2], rep.n), lower[2])

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
        blocks = [b for _, b, _ in _product_chunks(ms, 3, 1 << 20)]
        assert len(blocks) == 9
        nonzero = [k for k, b in enumerate(blocks) if np.max(np.abs(b)) > 0]
        assert nonzero[0] == 7
        assert zero_radius_test(ms) is False


SCALES = (2.0 ** -900, 1e-200, 1e200, 2.0 ** 900)
STRICTLY_UPPER = MatrixSet.from_arrays(
    [[[0.0, 0.5, -1.0], [0.0, 0.0, 2.0], [0.0, 0.0, 0.0]],
     [[0.0, -3.0, 1.0], [0.0, 0.0, 0.25], [0.0, 0.0, 0.0]]])


class TestScaleFree:
    """Bounds of c * set are c times the bounds of the set, at any scale."""

    @pytest.mark.parametrize("c", SCALES)
    def test_sandwich(self, c):
        plain = sandwich(GOLDEN_PAIR, 6, NormKind.L2)
        scaled = sandwich(GOLDEN_PAIR.scaled(c), 6, NormKind.L2)
        for a, b in zip(plain, scaled):
            for key in ("lower", "upper", "best_lower", "best_upper"):
                assert getattr(b, key) == pytest.approx(c * getattr(a, key),
                                                        rel=1e-12)
            # both sides equal phi * c in l2 (bound collapse), so they may
            # cross by an ulp, as they do at unit scale
            assert b.best_lower <= b.best_upper * (1.0 + 1e-12)

    @pytest.mark.parametrize("c", SCALES)
    def test_brute_force_interval(self, c):
        plain = brute_force_interval(GOLDEN_PAIR, 5, NormKind.L1)
        scaled = brute_force_interval(GOLDEN_PAIR.scaled(c), 5, NormKind.L1)
        assert scaled.lower == pytest.approx(c * plain.lower, rel=1e-12)
        assert scaled.upper == pytest.approx(c * plain.upper, rel=1e-12)
        assert scaled.lower <= scaled.upper

    @pytest.mark.parametrize("c", SCALES)
    def test_trace_estimate(self, c):
        for n in (1, 4):
            assert trace_estimate(GOLDEN_PAIR.scaled(c), n) == pytest.approx(
                c * trace_estimate(GOLDEN_PAIR, n), rel=1e-12)

    @pytest.mark.parametrize("c", SCALES)
    def test_kronecker_bounds(self, c):
        for n in (1, 2, 3):
            plain = kronecker_bounds(GOLDEN_PAIR, n)
            scaled = kronecker_bounds(GOLDEN_PAIR.scaled(c), n)
            assert scaled == pytest.approx(
                (c * plain[0], c * plain[1]), rel=1e-12)

    @pytest.mark.parametrize("c", SCALES)
    def test_zero_radius_verdicts(self, c):
        assert zero_radius_test(GOLDEN_PAIR.scaled(c)) is False
        assert zero_radius_test(NILPOTENT.scaled(c)) is True
        assert zero_radius_test(STRICTLY_UPPER.scaled(c)) is True

    def test_zero_radius_verdict_is_the_same_for_power_of_two_multiples(
            self, rng):
        sets = [GOLDEN_PAIR, NILPOTENT, STRICTLY_UPPER, random_set(rng, 3, 2),
                MatrixSet.from_arrays([[[1e-13, 1.0], [0.0, 1e-13]]])]
        for ms in sets:
            verdict = zero_radius_test(ms)
            for k in (-1000, -7, 3, 1000):
                assert zero_radius_test(ms.scaled(2.0 ** k)) is verdict

    def test_products_beyond_the_float_range(self):
        # A^n has entries near 2^n, past the float range from n = 1024 on
        ms = MatrixSet.from_arrays([[[2.0, 1.0], [0.0, 1.5]]])
        for n in (600, 1100):
            [(rho, exponent, _)] = max_over_products(ms, n, [RADIUS])
            assert _root(rho, exponent, n) == pytest.approx(2.0, rel=1e-12)
            # ||A^n|| <= 2^n (1 + 2 n) in l1
            upper = gelfand_upper(ms, n, NormKind.L1)
            assert 2.0 <= upper <= 2.0 * (1.0 + 2.0 * n) ** (1.0 / n)

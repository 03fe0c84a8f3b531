from __future__ import annotations

import math

import numpy as np
import pytest

from jsrbound import (
    BudgetExceededError,
    MatrixSet,
    NormKind,
    brute_force_interval,
    sandwich,
)

from .conftest import GOLDEN_PAIR, QUARTER_TURN, random_set


class TestBruteForceInterval:
    def test_scalar_doubling(self):
        ms = MatrixSet.from_arrays([2.0 * np.eye(2)])
        interval = brute_force_interval(ms, 5, NormKind.L1)
        assert interval.lower == pytest.approx(2.0)
        assert interval.upper == pytest.approx(2.0)

    def test_isometry(self):
        interval = brute_force_interval(QUARTER_TURN, 4, NormKind.L2)
        assert interval.lower == pytest.approx(1.0)
        assert interval.upper == pytest.approx(1.0)

    def test_golden_pair(self):
        interval = brute_force_interval(GOLDEN_PAIR, 8, NormKind.L2)
        assert interval.lower >= 1.6180339
        assert interval.upper - interval.lower < 0.25
        # both ends collapse onto the golden ratio, so allow rounding slack
        assert interval.lower <= interval.upper + 1e-9

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            brute_force_interval(GOLDEN_PAIR, 30, NormKind.L2, max_words=1000)

    def test_dict_shape(self):
        doc = brute_force_interval(GOLDEN_PAIR, 2, NormKind.L1).to_dict()
        assert set(doc) == {
            "n_max", "kind", "lower", "upper", "witness_lower", "witness_upper",
        }


class TestAgreementWithSandwich:
    def test_bounds_and_witnesses_match(self, rng):
        # two fully independent enumerations must land on identical values
        for _ in range(8):
            d = int(rng.integers(2, 4))
            r = int(rng.integers(2, 4))
            ms = random_set(rng, d, r)
            for kind in NormKind:
                reports = sandwich(ms, 4, kind)
                interval = brute_force_interval(ms, 4, kind)
                assert interval.lower == pytest.approx(
                    reports[-1].best_lower, rel=1e-12, abs=1e-15
                )
                assert interval.upper == pytest.approx(
                    reports[-1].best_upper, rel=1e-12, abs=1e-15
                )

    def test_tie_breaking_matches(self):
        # identical members force ties everywhere; both routes pick the
        # lexicographically first witness
        twin = MatrixSet.from_arrays([np.eye(2), np.eye(2)])
        interval = brute_force_interval(twin, 3, NormKind.L2)
        reports = sandwich(twin, 3, NormKind.L2)
        assert interval.witness_lower == (1,)
        assert reports[0].witness_lower == (1,)


def _reference_interval(mset, n_max, kind):
    """The oracle word by word: one eigvals call and one norm call per
    word.  The stacked oracle must match it bit for bit, witnesses
    included."""
    def norm_of(matrix):
        if kind is NormKind.L1:
            return float(np.max(np.sum(np.abs(matrix), axis=0)))
        if kind is NormKind.LINF:
            return float(np.max(np.sum(np.abs(matrix), axis=1)))
        return float(np.max(np.linalg.svd(matrix, compute_uv=False)))

    def rho_of(matrix):
        return float(np.max(np.abs(np.linalg.eigvals(matrix))))

    def root(value, n, exponent):
        # value^(1/n) 2^(exponent/n), by ldexp outside the normal range.
        if -1021 <= exponent / n <= 1023:
            return value ** (1.0 / n) * 2.0 ** (exponent / n)
        whole, rest = divmod(exponent, n)
        try:
            return math.ldexp(value ** (1.0 / n) * 2.0 ** (rest / n), whole)
        except OverflowError:
            return math.inf

    best_lower = -np.inf
    best_upper = np.inf
    witness_lower = ()
    witness_upper = ()
    level = [((), np.eye(mset.dim))]
    exponent = 0
    for n in range(1, n_max + 1):
        level = [
            (word + (t,), member @ prod)
            for word, prod in level
            for t, member in enumerate(mset.members, start=1)
        ]
        shift = math.frexp(max(np.max(np.abs(p)) for _, p in level))[1]
        if abs(shift) > 500:
            level = [(word, np.ldexp(prod, -shift)) for word, prod in level]
            exponent += shift
        for word, prod in level:
            rho_root = root(rho_of(prod), n, exponent)
            if rho_root > best_lower:
                best_lower = rho_root
                witness_lower = word
        norm_best = None
        norm_word = ()
        for word, prod in level:
            value = norm_of(prod)
            if norm_best is None or value > norm_best:
                norm_best = value
                norm_word = word
        norm_root = root(norm_best, n, exponent)
        if norm_root < best_upper:
            best_upper = norm_root
            witness_upper = norm_word
    return float(best_lower), float(best_upper), witness_lower, witness_upper


def _rotation(angle):
    c, s = math.cos(angle), math.sin(angle)
    return [[c, -s], [s, c]]


def _n_max(r, budget):
    """The largest n with r^n <= budget, at most 12."""
    n = 1
    while n < 12 and r ** (n + 1) <= budget:
        n += 1
    return n


TIE_SETS = {
    "identity": MatrixSet.from_arrays([np.eye(2), np.eye(2)]),
    "rotation pair": MatrixSet.from_arrays([_rotation(1.0), _rotation(2.2)]),
    "permutations": MatrixSet.from_arrays(
        [np.eye(3)[[1, 2, 0]], np.eye(3)[[1, 0, 2]], np.eye(3)[[0, 2, 1]]]),
    "zero": MatrixSet.from_arrays([np.zeros((2, 2)), np.zeros((2, 2))]),
    "nilpotent": MatrixSet.from_arrays(
        [[[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]],
         [[0.0, 2.0, -1.0], [0.0, 0.0, 3.0], [0.0, 0.0, 0.0]]]),
}


def _outcome(call):
    """The call's result, or the type and text of what it raised."""
    try:
        return call()
    except Exception as exc:
        return type(exc), str(exc)


def _assert_matches_reference(mset, n_max, kind):
    def batched():
        interval = brute_force_interval(mset, n_max, kind)
        return (interval.lower, interval.upper, interval.witness_lower,
                interval.witness_upper)

    assert _outcome(batched) == _outcome(
        lambda: _reference_interval(mset, n_max, kind))


class TestRootsPastTheNormalRange:
    """A root 2^(s / n) rho^(1/n) with s / n outside [-1021, 1023] is taken
    by ldexp: finite near the top of the float range, and with every bit
    of a normal float near the bottom of it."""

    @pytest.mark.parametrize("factor", [1e308, 1e-308],
                             ids=["1e308", "1e-308"])
    @pytest.mark.parametrize("kind", list(NormKind))
    def test_golden_pair_matches_sandwich(self, kind, factor):
        ms = GOLDEN_PAIR.scaled(factor)
        for n_max in (4, 8):
            interval = brute_force_interval(ms, n_max, kind)
            report = sandwich(ms, n_max, kind)[-1]
            assert interval.lower == pytest.approx(report.best_lower,
                                                   rel=1e-15, abs=0.0)
            assert interval.upper == pytest.approx(report.best_upper,
                                                   rel=1e-15, abs=0.0)

    def test_roots_past_the_float_range_read_inf(self):
        """A radius of 2^1024 and more is +inf, not an error."""
        ms = MatrixSet.from_arrays([np.diag([1.5e308, 1.0])])
        interval = brute_force_interval(ms, 3, NormKind.L2)
        assert interval.lower == interval.upper == 1.5e308
        huge = MatrixSet.from_arrays([[[1e308, 1e308], [1e308, 1e308]]])
        assert brute_force_interval(huge, 1, NormKind.L2).upper == math.inf


class TestStackedLevels:
    """One eigvals call and one norm call per level, bit for bit the
    per-word values and witnesses."""

    @pytest.mark.parametrize("kind", list(NormKind))
    def test_random_sets_match_the_per_word_loop(self, rng, kind):
        # Levels of up to 4,096 words in 2-d, 512 in the other dimensions.
        for d in range(1, 5):
            for r in range(1, 5):
                ms = random_set(rng, d, r)
                _assert_matches_reference(
                    ms, _n_max(r, 4096 if d == 2 else 512), kind)

    @pytest.mark.parametrize("factor", [2.0 ** 600, 2.0 ** -600, 1e300,
                                        1e-300],
                             ids=["2^600", "2^-600", "1e300", "1e-300"])
    @pytest.mark.parametrize("kind", list(NormKind))
    def test_rescaled_levels_match_the_per_word_loop(self, rng, kind,
                                                     factor):
        for d in range(1, 5):
            for r in (1, 2, 3):
                ms = random_set(rng, d, r).scaled(factor)
                _assert_matches_reference(ms, _n_max(r, 256), kind)

    @pytest.mark.parametrize("factor", [1e308, 4.9e-319],
                             ids=["1e308", "4.9e-319"])
    @pytest.mark.parametrize("kind", list(NormKind))
    def test_extreme_sets_fail_or_match_as_the_per_word_loop(self, rng, kind,
                                                            factor):
        # Times 1e308 and 4.9e-319 the roots lie outside [2^-1021,
        # 2^1023], where both take them by ldexp; should they raise,
        # both raise the same error.
        for d in (1, 2, 3):
            ms = random_set(rng, d, 2).scaled(factor)
            _assert_matches_reference(ms, 6, kind)

    @pytest.mark.parametrize("name", sorted(TIE_SETS))
    @pytest.mark.parametrize("kind", list(NormKind))
    def test_tie_sets_match_the_per_word_loop(self, kind, name):
        ms = TIE_SETS[name]
        _assert_matches_reference(ms, _n_max(ms.r, 1024), kind)
        _assert_matches_reference(ms.scaled(2.0 ** 600), 4, kind)

    @pytest.mark.parametrize("kind", list(NormKind))
    def test_one_linalg_call_per_level(self, monkeypatch, kind):
        calls = {"eigvals": 0, "svd": 0}
        for name in calls:
            real = getattr(np.linalg, name)

            def spy(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, spy)
        brute_force_interval(GOLDEN_PAIR, 7, kind)
        assert calls == {"eigvals": 7,
                         "svd": 7 if kind is NormKind.L2 else 0}

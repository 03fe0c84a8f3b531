from __future__ import annotations

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


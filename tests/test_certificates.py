from __future__ import annotations

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jsrbound import (
    MatrixSet,
    NoCertificateError,
    NormKind,
    StepPlan,
    UnsupportedDimensionError,
    brute_force_interval,
    certified_interval,
    chi_measure,
    eta_p,
    nu_p,
    plan_steps,
    protasov_gamma,
    sphere_net,
)

import jsrbound.certificates as certificates_module
import jsrbound.geometry as geometry

from .conftest import DIAGONAL_PAIR, GOLDEN_PAIR, QUARTER_TURN

SQRT2 = float(np.sqrt(2.0))


class TestNu:
    def test_quarter_turn(self):
        assert nu_p(QUARTER_TURN, 1, NormKind.L2, SQRT2 / 2) == pytest.approx(SQRT2)

    def test_contractive_numerator_is_one(self):
        ms = MatrixSet.from_arrays([np.eye(2)])
        assert nu_p(ms, 1, NormKind.L2, 0.5) == pytest.approx(2.0)

    def test_doubled_rotation_is_recomputed_not_rescaled(self):
        # chi of {2R}: hull of (+-x, +-2Rx) has inscribed radius 2/sqrt 5,
        # from the facet through (1,0) and (0,2)
        doubled = QUARTER_TURN.scaled(2.0)
        est = chi_measure(doubled, 1, NormKind.L2, 0.005)
        assert est.sampled_inf == pytest.approx(2.0 / np.sqrt(5.0), abs=1e-9)
        value = nu_p(doubled, 1, NormKind.L2, est.sampled_inf)
        assert value == pytest.approx(2.0 / (2.0 / np.sqrt(5.0)), rel=1e-9)

    def test_no_certificate(self):
        with pytest.raises(NoCertificateError, match="no certificate"):
            nu_p(QUARTER_TURN, 1, NormKind.L2, 0.0)

    def test_beyond_the_float_range_is_no_certificate(self):
        # ||set||^2 = 1e400 overflows: no float constant, hence no certificate
        ms = MatrixSet.from_arrays([1e200 * np.eye(2)])
        assert nu_p(ms, 1, NormKind.L2, 0.5) == pytest.approx(2e200)
        with pytest.raises(NoCertificateError, match="overflows"):
            nu_p(ms, 2, NormKind.L2, 0.5)

    def test_p_too_small(self):
        ms = MatrixSet.from_arrays([np.eye(3)])
        with pytest.raises(ValueError) as exc:
            nu_p(ms, 1, NormKind.L2, 0.5)
        assert str(exc.value) == "the certificate needs p >= d - 1 = 2, got p=1"


class TestEta:
    def test_unit_rho(self):
        assert eta_p(GOLDEN_PAIR, 1, 1.0, 0.5) == pytest.approx(2.0)

    def test_quarter_turn(self):
        assert eta_p(QUARTER_TURN, 1, 1.0, SQRT2 / 2) == pytest.approx(SQRT2)

    def test_arithmetic(self):
        assert eta_p(GOLDEN_PAIR, 3, 2.0, 0.25) == pytest.approx(32.0)

    def test_nonpositive_inputs(self):
        with pytest.raises(ValueError):
            eta_p(GOLDEN_PAIR, 1, -1.0, 0.5)
        with pytest.raises(NoCertificateError):
            eta_p(GOLDEN_PAIR, 1, 1.0, 0.0)

    @pytest.mark.parametrize("p, rho, chi_lower", [
        (2000, 2.0, 0.5),    # rho^p overflows the float power
        (1, 1.0, 1e-320),    # 1 / chi_lower is infinite
    ])
    def test_beyond_the_float_range_is_no_certificate(self, p, rho,
                                                      chi_lower):
        with pytest.raises(NoCertificateError, match="eta_p overflows"):
            eta_p(GOLDEN_PAIR, p, rho, chi_lower)


class TestCertifiedInterval:
    def test_quarter_turn_n4(self):
        ci = certified_interval(QUARTER_TURN, 4, 1, NormKind.L2, SQRT2 / 2)
        assert ci.upper == pytest.approx(1.0, abs=1e-12)
        assert ci.lower == pytest.approx(2.0 ** (-1.0 / 8.0), abs=1e-9)
        assert ci.lower <= 1.0 <= ci.upper

    def test_reducible_has_no_certificate(self):
        ms = MatrixSet.from_arrays([np.eye(2)])
        est = chi_measure(ms, 1, NormKind.L1, 0.05)
        with pytest.raises(NoCertificateError):
            certified_interval(ms, 1, 1, NormKind.L1, est.certified_lower)

    def test_golden_pair_contains_radius(self):
        est = chi_measure(GOLDEN_PAIR, 1, NormKind.L2, 0.005)
        assert est.certified_lower > 0.0
        ci = certified_interval(GOLDEN_PAIR, 6, 1, NormKind.L2,
                                est.certified_lower)
        oracle = brute_force_interval(GOLDEN_PAIR, 8, NormKind.L2)
        assert ci.lower <= oracle.upper + 1e-9
        assert oracle.lower <= ci.upper + 1e-9
        assert ci.lower <= 1.6180339 <= ci.upper

    def test_ratio_identity(self):
        est = chi_measure(GOLDEN_PAIR, 1, NormKind.L2, 0.01)
        for n in (1, 2, 5):
            ci = certified_interval(GOLDEN_PAIR, n, 1, NormKind.L2,
                                    est.certified_lower)
            assert ci.ratio == pytest.approx(ci.nu_p ** (1.0 / n), rel=1e-13)
            assert ci.upper / ci.lower == pytest.approx(ci.ratio, rel=1e-12)


class TestPlanSteps:
    def test_reference_value(self):
        assert plan_steps(SQRT2, 0.1).n == 4

    def test_nu_barely_above_one(self):
        assert plan_steps(1.0 + 1e-15, 1e-12).n == 1

    def test_log_point(self):
        assert plan_steps(np.e, np.e - 1.0).n == 1

    def test_budget_fields(self):
        plan = plan_steps(100.0, 0.01, r=3)
        assert plan.n == 463
        assert plan.products_required == 3**463
        assert plan.fits_budget is False
        small = plan_steps(SQRT2, 0.1, r=2)
        assert small.products_required == 16
        assert small.fits_budget is True

    def test_products_required_below_2_to_the_1024_only(self):
        below = plan_steps(2.0, 1e-3, r=2)
        assert below.n < 1024
        assert below.products_required == 2 ** below.n
        above = plan_steps(2.0, 5e-4, r=2)
        assert above.n >= 1024
        assert above.products_required is None
        assert above.fits_budget is False
        # the budget is still decided exactly past 2^1024
        huge = plan_steps(2.0, 5e-4, r=2, max_words=1 << 2000)
        assert huge.products_required is None
        assert huge.fits_budget is True
        assert plan_steps(2.0, 5e-4, r=2,
                          max_words=2 ** above.n - 1).fits_budget is False
        assert plan_steps(2.0, 5e-4, r=1) == StepPlan(above.n, 1, True)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            plan_steps(0.99, 0.1)
        with pytest.raises(ValueError):
            plan_steps(2.0, 0.0)

    @pytest.mark.parametrize("nu, epsilon, message", [
        (math.inf, 0.05, "nu must exceed 1 and be finite, got inf"),
        (math.nan, 0.05, "nu must exceed 1 and be finite, got nan"),
        (2.0, math.nan, "epsilon must be positive and finite, got nan"),
        (2.0, math.inf, "epsilon must be positive and finite, got inf"),
    ])
    def test_non_finite_inputs_rejected(self, nu, epsilon, message):
        with pytest.raises(ValueError, match=message):
            plan_steps(nu, epsilon)

    def test_epsilon_below_float_resolution_rejected(self):
        with pytest.raises(ValueError, match="rounds to 1"):
            plan_steps(1e308, 1e-300)

    @pytest.mark.parametrize("eps", [1e-12, 1e-15, 2.3e-16])
    def test_tiny_epsilon_returns(self, eps):
        # rounded roots stay equal over ~1e17 consecutive n here, which a
        # step-by-step search cannot walk
        n = plan_steps(1e308, eps).n
        assert 1e308 ** (1.0 / n) <= 1.0 + eps < 1e308 ** (1.0 / (n - 1))

    @settings(max_examples=300, deadline=None)
    @given(
        nu=st.floats(min_value=1.0, max_value=1e6, exclude_min=True),
        eps=st.floats(min_value=1e-9, max_value=10.0),
    )
    def test_minimality(self, nu, eps):
        n = plan_steps(nu, eps).n
        assert n >= 1
        assert nu ** (1.0 / n) <= 1.0 + eps
        if n > 1:
            assert nu ** (1.0 / (n - 1)) > 1.0 + eps


class TestProtasovGamma:
    def test_quarter_turn_line_escape_is_one(self):
        # Rx is orthogonal to x, so every line escapes at distance 1
        est = protasov_gamma(QUARTER_TURN)
        assert est.p_values[0] == pytest.approx(1.0, abs=0.01)
        assert est.gamma_lower == pytest.approx(est.p_values[0] / 2.0, rel=1e-12)
        assert est.heuristic is False

    def test_diagonal_pair_vanishes(self):
        est = protasov_gamma(DIAGONAL_PAIR)
        assert est.p_values[0] == 0.0
        assert est.gamma_lower == 0.0

    def test_golden_pair_positive(self):
        est = protasov_gamma(GOLDEN_PAIR, samples=3142)
        assert est.gamma_lower > 0.0
        assert est.gamma_lower <= 1.0

    def test_tighter_rho_upper_helps(self):
        # rotation plus a fat nilpotent: radius sqrt 2 but set norm 2, so a
        # certified upper bound beats the default 2 * norm denominator
        ms = MatrixSet.from_arrays([[[0.0, -1.0], [1.0, 0.0]],
                                    [[0.0, 2.0], [0.0, 0.0]]])
        from jsrbound import gelfand_upper

        rho_upper = gelfand_upper(ms, 10, NormKind.L2)
        assert rho_upper == pytest.approx(SQRT2, abs=1e-9)
        base = protasov_gamma(ms, samples=500)
        tighter = protasov_gamma(ms, rho_upper=rho_upper, samples=500)
        assert tighter.gamma_lower > base.gamma_lower

    def test_three_dimensional_is_heuristic(self):
        rz = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        rx = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
        est = protasov_gamma(MatrixSet.from_arrays([rz, rx]), samples=500)
        assert est.heuristic is True
        assert len(est.p_values) == 2
        assert est.gamma_lower >= 0.0

    def test_unsupported_dimension(self):
        with pytest.raises(UnsupportedDimensionError):
            protasov_gamma(MatrixSet.from_arrays([np.eye(4)]))

    @pytest.mark.parametrize("d", [2, 3])
    def test_oversized_sample_count_rejected(self, d):
        with pytest.raises(ValueError, match="needs more than"):
            protasov_gamma(MatrixSet.from_arrays([np.eye(d)]),
                           samples=10 ** 16)

    @pytest.mark.parametrize("rho_upper", [math.nan, math.inf, -5.0])
    def test_bad_rho_upper_rejected(self, rho_upper):
        with pytest.raises(ValueError, match="rho_upper must be non-negative "
                           f"and finite, got {rho_upper}"):
            protasov_gamma(GOLDEN_PAIR, rho_upper=rho_upper)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("c", [2.0 ** -900, 1e-200, 1e200, 2.0 ** 900])
    def test_scale_free(self, d, c):
        rz = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        rx = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.5]])
        ms = MatrixSet.from_arrays([rz[:d, :d], rx[:d, :d]])
        plain = protasov_gamma(ms, samples=200)
        scaled = protasov_gamma(ms.scaled(c), samples=200)
        assert plain.gamma_lower > 0.0
        assert scaled.gamma_lower == pytest.approx(plain.gamma_lower,
                                                   rel=1e-12)
        assert scaled.p_values == pytest.approx(
            [c * v for v in plain.p_values], rel=1e-12)

    def test_power_of_two_multiples_are_exact(self):
        est = protasov_gamma(GOLDEN_PAIR, rho_upper=2.0)
        for k in (-700, 5, 700):
            scaled = protasov_gamma(GOLDEN_PAIR.scaled(2.0 ** k),
                                    rho_upper=2.0 ** (k + 1))
            assert scaled.gamma_lower == est.gamma_lower
            assert scaled.p_values == tuple(math.ldexp(v, k)
                                            for v in est.p_values)


def _halving_loop(samples: int, build) -> np.ndarray:
    """The reference: halve the mesh from 1.2 until the icosphere has at
    least ``samples`` vertices."""
    mesh = 1.2
    verts = build(mesh)
    while verts.shape[0] < samples:
        mesh /= 2.0
        verts = build(mesh)
    return verts


class TestSphereForSamples:
    def test_matches_the_halving_loop_at_every_level(self, monkeypatch,
                                                     level9_icosphere):
        """One _net call, at the mesh where the halving loop stops, for
        sample counts around each level's 10 * 4^k + 2 vertices."""
        level9, radii, net9 = level9_icosphere
        mesh9 = 1.2 / 2 ** 9
        # The net at mesh9 is past levels 0..8's radii and within level
        # 9's, so it is the session's level-9 build.
        assert min(radii[:9]) > mesh9 >= radii[9]

        @functools.lru_cache(maxsize=None)
        def built(mesh):
            return (level9 if mesh == mesh9
                    else sphere_net(3, NormKind.L2, mesh))

        calls = []

        def counted(d, kind, mesh):
            calls.append((d, kind, mesh))
            return net9 if mesh == mesh9 else geometry._net(d, kind, mesh)

        monkeypatch.setattr(certificates_module, "_net", counted)
        for k in range(10):
            count = 10 * 4 ** k + 2
            for samples in (count - 1, count, count + 1):
                calls.clear()
                want_k = k if samples <= count else k + 1
                if want_k == 10:
                    with pytest.raises(ValueError) as got:
                        certificates_module._sphere_for_samples(samples)
                    with pytest.raises(ValueError) as want:
                        _halving_loop(samples, built)
                    assert str(got.value) == str(want.value)
                else:
                    verts = certificates_module._sphere_for_samples(samples)
                    assert verts.shape[0] == 10 * 4 ** want_k + 2
                    assert np.array_equal(verts,
                                          _halving_loop(samples, built))
                assert calls == [(3, NormKind.L2, 1.2 / 2 ** want_k)]

    def test_gamma_reads_the_net_chi_cached(self):
        """In 3-d, gamma's directions are chi's net at the same level: after
        chi at mesh 0.1 (icosphere level 3), gamma at 642 samples builds no
        net of its own."""
        ms = MatrixSet.from_arrays(
            np.random.default_rng(3).uniform(-1.0, 1.0, (3, 3, 3)))
        geometry._net_at.cache_clear()
        chi_measure(ms, 2, NormKind.L2, 0.1)
        before = geometry._net_at.cache_info()
        protasov_gamma(ms, samples=642)
        after = geometry._net_at.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)
        assert certificates_module._sphere_for_samples(642).tobytes() == \
            geometry._net(3, NormKind.L2, 0.1).points.tobytes()

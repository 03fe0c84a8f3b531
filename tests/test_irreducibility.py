from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from jsrbound import (
    MatrixSet,
    NormKind,
    UnsupportedDimensionError,
    burnside_irreducible,
    chi_measure,
    inscribed_radius,
    invariant_subspace_search_2d,
    lemma1_crosscheck,
    reach_products,
    sphere_net,
    sphere_profile,
)
from jsrbound.core import operator_norms
from jsrbound.geometry import (
    _block_rows,
    dual_kind,
    radius_profile,
    refine_minimum,
    vector_norms,
)
from jsrbound.irreducibility import BurnsideReport, burnside_detail
import jsrbound.irreducibility as irreducibility_module

from .conftest import (
    DIAGONAL_PAIR,
    GOLDEN_PAIR,
    QUARTER_TURN,
    one_scale_search,
    random_set,
)

IDENTITY_ONLY = MatrixSet.from_arrays([np.eye(2)])
SHEAR_ONLY = MatrixSet.from_arrays([[[1.0, 1.0], [0.0, 1.0]]])
ROTATION_PAIR_2D = MatrixSet.from_arrays(
    [[[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]] for t in (1.0, 2.2)])
ROTATION_PAIR_3D = MatrixSet.from_arrays(
    [[[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]],
     [[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.5]]])
# Quarter turns about the z and x axes, and rotations by 1.23 and 1.01
# rad about them: both pairs are irreducible.
QUARTER_TURNS_3D = MatrixSet.from_arrays(
    [[[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]],
     [[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]]])
SKEW_ROTATIONS_3D = MatrixSet.from_arrays(
    [[[np.cos(1.23), -np.sin(1.23), 0.0], [np.sin(1.23), np.cos(1.23), 0.0],
      [0.0, 0.0, 1.0]],
     [[1.0, 0.0, 0.0], [0.0, np.cos(1.01), -np.sin(1.01)],
      [0.0, np.sin(1.01), np.cos(1.01)]]])


def _reach_points(mset: MatrixSet, p: int, x) -> np.ndarray:
    """The symmetrized reach points ±G x, G over ``reach_products``; the
    hull inputs of the measure at x."""
    raw = reach_products(mset, p) @ np.asarray(x, dtype=float)
    return np.concatenate([raw, -raw])


def _same_point_set(actual: np.ndarray, expected: list[list[float]]) -> bool:
    got = set(map(tuple, np.round(actual, 9).tolist()))
    want = set(map(tuple, np.round(np.array(expected, float), 9).tolist()))
    return got == want


def _span_rank(mats: list[np.ndarray]) -> int:
    flat = np.stack([m.ravel() for m in mats])
    return int(np.linalg.matrix_rank(flat, tol=1e-10))


class TestReachSet:
    def test_identity_singleton(self):
        pts = _reach_points(IDENTITY_ONLY, 1, [1.0, 0.0])
        assert _same_point_set(pts, [[1, 0], [-1, 0]])

    def test_quarter_turn(self):
        pts = _reach_points(QUARTER_TURN, 1, [1.0, 0.0])
        assert _same_point_set(pts, [[1, 0], [0, 1], [-1, 0], [0, -1]])

    def test_shear_depth_two(self):
        # A(0,1) = (1,1) and A^2(0,1) = (2,1), plus negations
        pts = _reach_points(SHEAR_ONLY, 2, [0.0, 1.0])
        assert _same_point_set(
            pts, [[0, 1], [1, 1], [2, 1], [0, -1], [-1, -1], [-2, -1]]
        )

    def test_products_include_identity_and_dedup(self):
        prods = reach_products(QUARTER_TURN, 4)
        assert any(np.allclose(g, np.eye(2)) for g in prods)
        # R^4 = I collapses, leaving I, R, R^2, R^3
        assert len(prods) == 4

    def test_products_keep_first_occurrence_in_order(self):
        a, b = np.diag([1.0, -1.0]), np.diag([-1.0, 1.0])
        prods = reach_products(MatrixSet.from_arrays([a, b]), 3)
        # level 2 adds only BA = -I; level 3 nothing new, as -A = B
        expected = [np.eye(2), a, b, -np.eye(2)]
        np.testing.assert_array_equal(prods, np.stack(expected))

    def test_dedup_tolerance(self):
        # within 1e-12 (1 + max|G|) of a kept product counts as a duplicate
        near = MatrixSet.from_arrays([(1.0 + 1e-12) * np.eye(2)])
        far = MatrixSet.from_arrays([(1.0 + 1e-11) * np.eye(2)])
        assert len(reach_products(near, 3)) == 1
        assert len(reach_products(far, 3)) == 4

    def test_products_beyond_the_float_range_are_refused(self):
        huge = ROTATION_PAIR_3D.scaled(1e200)
        assert reach_products(huge, 1).shape == (3, 3, 3)
        with pytest.raises(ValueError, match="a product of at most 2 "
                           "members leaves the float range"):
            reach_products(huge, 2)


class TestChiMeasure:
    def test_identity_reducible(self):
        est = chi_measure(IDENTITY_ONLY, 2, NormKind.L2, 0.05)
        assert est.sampled_inf == pytest.approx(0.0, abs=1e-12)
        assert est.certified_lower == 0.0

    def test_quarter_turn_constant_profile(self):
        xs, vals = sphere_profile(QUARTER_TURN, 1, NormKind.L2, 0.01)
        np.testing.assert_allclose(vals, np.sqrt(2) / 2, atol=1e-9)
        est = chi_measure(QUARTER_TURN, 1, NormKind.L2, 0.01)
        assert est.sampled_inf == pytest.approx(np.sqrt(2) / 2, abs=1e-9)
        assert est.certified_lower == pytest.approx(
            np.sqrt(2) / 2 - est.lipschitz * 0.01, abs=1e-9
        )

    def test_golden_pair_positive_and_matches_hull_oracle(self):
        est = chi_measure(GOLDEN_PAIR, 1, NormKind.L2, 0.01)
        assert est.certified_lower > 0.0
        xs, vals = sphere_profile(GOLDEN_PAIR, 1, NormKind.L2, 0.05)
        for k in range(0, len(xs), 17):
            pts = _reach_points(GOLDEN_PAIR, 1, xs[k])
            hull = ConvexHull(pts)
            normals = hull.equations[:, :-1]
            offsets = -hull.equations[:, -1]
            oracle = float(np.min(offsets / vector_norms(normals,
                                                         dual_kind(NormKind.L2))))
            assert vals[k] == pytest.approx(oracle, rel=1e-9, abs=1e-12)

    def test_argmin_attains_sampled_inf(self):
        est = chi_measure(GOLDEN_PAIR, 1, NormKind.L2, 0.02)
        pts = _reach_points(GOLDEN_PAIR, 1, est.argmin)
        assert inscribed_radius(pts, NormKind.L2) == pytest.approx(
            est.sampled_inf, rel=1e-9
        )

    def test_lipschitz_certificate_is_sound(self, rng):
        # |r(x) - r(y)| must stay under (L/2) * ||x - y||
        est = chi_measure(GOLDEN_PAIR, 1, NormKind.L2, 0.05)
        for _ in range(40):
            x = rng.normal(size=2)
            x /= np.linalg.norm(x)
            y = rng.normal(size=2)
            y /= np.linalg.norm(y)
            rx = inscribed_radius(_reach_points(GOLDEN_PAIR, 1, x), NormKind.L2)
            ry = inscribed_radius(_reach_points(GOLDEN_PAIR, 1, y), NormKind.L2)
            assert abs(rx - ry) <= est.lipschitz / 2 * np.linalg.norm(x - y) + 1e-9

    def test_diagonal_pair_hits_zero_on_axis(self):
        est = chi_measure(DIAGONAL_PAIR, 1, NormKind.L2, 0.02)
        assert est.sampled_inf <= 1e-9

    def test_reducible_after_similarity(self, rng):
        # conjugated common-triangular pair: true measure is zero and the
        # refinement stage must actually find it
        s = np.array([[1.0, 0.7], [-0.4, 1.2]])
        sinv = np.linalg.inv(s)
        mats = [s @ np.triu(rng.uniform(-1, 1, (2, 2))) @ sinv for _ in range(2)]
        est = chi_measure(MatrixSet.from_arrays(mats), 1, NormKind.L2, 0.02)
        assert est.sampled_inf <= 1e-8

    def test_three_dimensional_rotations(self):
        rz = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        rx = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
        ms = MatrixSet.from_arrays([rz, rx])
        est = chi_measure(ms, 2, NormKind.L2, 0.05)
        assert est.certified_lower > 0.0

    def test_dim_4_is_refused(self):
        ms = MatrixSet.from_arrays([np.eye(4)])
        with pytest.raises(UnsupportedDimensionError):
            chi_measure(ms, 3, NormKind.L2, 0.1)

    def test_dim_4_is_refused_before_the_reach_products(self, rng):
        # 3^0 + ... + 3^40 words are far beyond the word budget, so only a
        # dimension check made before reach_products can answer.
        ms = random_set(rng, 4, 3)
        with pytest.raises(UnsupportedDimensionError,
                           match=r"\{1, 2, 3\}, got d=4"):
            chi_measure(ms, 40, NormKind.L2, 0.1)

    @pytest.mark.parametrize("d", [4, 5, 8])
    @pytest.mark.parametrize("kind", list(NormKind))
    def test_every_other_dimension_is_refused_first(self, d, kind):
        # the refusal names d for every kind, whatever the word count
        ms = random_set(np.random.default_rng([d, len(kind.value)]), d, 3)
        with pytest.raises(UnsupportedDimensionError,
                           match=rf"\{{1, 2, 3\}}, got d={d}$"):
            chi_measure(ms, 40, kind, 0.1)

    @pytest.mark.parametrize("d, mesh, message", [
        (2, 1e-9, "a circle net at mesh 1e-09 needs more than"),
        (2, 5e-324, "a circle net at mesh 5e-324 needs more than"),
        (2, np.nan, "mesh must be positive and finite, got nan"),
        (2, np.inf, "mesh must be positive and finite, got inf"),
        (3, 1e-9, "an icosphere at mesh 1e-09 needs more than"),
        (3, 5e-324, "an icosphere at mesh 5e-324 needs more than"),
        (3, np.nan, "mesh must be positive and finite, got nan"),
        (3, np.inf, "mesh must be positive and finite, got inf"),
    ])
    def test_net_request_is_checked_before_the_reach_products(
            self, d, mesh, message):
        # p = 40 would exceed the word budget; the net error comes first
        ms = random_set(np.random.default_rng(d), d, 3)
        with pytest.raises(ValueError, match=message):
            chi_measure(ms, 40, NormKind.L2, mesh)

    @pytest.mark.parametrize("d", [4, 5])
    def test_sphere_profile_refuses_before_the_reach_products(self, d):
        ms = random_set(np.random.default_rng(d), d, 3)
        with pytest.raises(UnsupportedDimensionError, match=f"got d={d}$"):
            sphere_profile(ms, 40, NormKind.L2, 0.1)

    def test_crosscheck_refuses_dim_4_before_the_reach_products(self, rng):
        ms = random_set(rng, 4, 3)
        with pytest.raises(UnsupportedDimensionError, match="got d=4$"):
            lemma1_crosscheck(ms, 40, NormKind.L2, 0.1)

    def test_sampling_fallback_is_gone(self):
        ms = MatrixSet.from_arrays([np.eye(4)])
        with pytest.raises(TypeError):
            chi_measure(ms, 3, NormKind.L2, 0.1, sampling_fallback=True)

    def test_negative_p_rejected(self):
        with pytest.raises(ValueError):
            chi_measure(IDENTITY_ONLY, -1, NormKind.L2, 0.1)

    def test_small_p_is_legal_but_uninformative(self):
        # p below d - 1 cannot separate: a single 3d rotation at p = 1
        # reaches only 4 coplanar-free points spanning a flat-ish hull
        rz = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        est = chi_measure(MatrixSet.from_arrays([rz]), 1, NormKind.L2, 0.1)
        assert est.sampled_inf >= 0.0

    def test_estimate_dict_round(self):
        doc = chi_measure(QUARTER_TURN, 1, NormKind.L1, 0.05).to_dict()
        assert doc["kind"] == "l1"
        assert doc["p"] == 1
        assert isinstance(doc["argmin"], list)


def _projective_distances(x: np.ndarray, ys: np.ndarray,
                          kind: NormKind) -> np.ndarray:
    """min(||x - y||, ||x + y||) in the kind norm for each row y of ys."""
    return np.minimum(vector_norms(x - ys, kind), vector_norms(x + ys, kind))


def _reference_starts(xs: np.ndarray, vals: np.ndarray, kind: NormKind,
                      mesh: float) -> list[int]:
    """The start rule written out point by point: below the cut T of the
    thinned starts, in the stable (value, index) order, a point with no
    earlier point within projective distance mesh starts; at most 8."""
    cut = irreducibility_module._starts_cut(xs, vals, kind, 4.0 * mesh)
    head = [i for i in np.argsort(vals, kind="stable") if vals[i] <= cut]
    starts = []
    for k, i in enumerate(head):
        if not np.any(_projective_distances(xs[i], xs[head[:k]], kind)
                      <= mesh):
            starts.append(int(i))
        if len(starts) == 8:
            break
    return starts


def _full_sweep(mset: MatrixSet, p: int, kind: NormKind, mesh: float):
    """chi_measure from a sweep of every net point: sphere_profile, then
    _reference_starts and refine_minimum.  Returns sampled_inf,
    certified_lower, argmin, the start indices and the net values."""
    prods = reach_products(mset, p)
    lipschitz = 2.0 * float(np.max(operator_norms(prods, kind)))
    xs, vals = sphere_profile(mset, p, kind, mesh)
    best = int(np.argmin(vals))
    sampled, argmin = float(vals[best]), xs[best]
    starts = _reference_starts(xs, vals, kind, mesh)
    x_ref, v_ref = refine_minimum(
        lambda block: radius_profile(prods, block, kind), xs[starts],
        vals[starts], kind, mesh, math.inf)
    for x, v in zip(x_ref, v_ref):
        if v < sampled:
            sampled, argmin = float(v), x
    return (sampled, max(0.0, sampled - lipschitz * mesh), argmin, starts,
            vals)


def _triangular_pair(rng: np.random.Generator, d: int) -> MatrixSet:
    """A common-triangular pair under a similarity: hidden reducible."""
    s = np.eye(d) + 0.5 * rng.uniform(-1.0, 1.0, (d, d))
    return MatrixSet.from_arrays(
        [s @ np.triu(rng.uniform(-1.0, 1.0, (d, d))) @ np.linalg.inv(s)
         for _ in range(2)])


@pytest.fixture
def net_profiles(monkeypatch) -> list:
    """The (values, starts) of every net that chi_measure profiles."""
    record = []
    profile = irreducibility_module._net_profile

    def recorded(*args):
        record.append(profile(*args))
        return record[-1]

    monkeypatch.setattr(irreducibility_module, "_net_profile", recorded)
    return record


class TestPrunedNet:
    """chi_measure skips net points yet returns a full sweep's bits."""

    @staticmethod
    def _skipped(net_profiles, mset, p, kind, mesh) -> int:
        """Checks chi_measure against _full_sweep; returns how many net
        points it skipped."""
        est = chi_measure(mset, p, kind, mesh)
        sampled, certified, argmin, starts, full = _full_sweep(mset, p, kind,
                                                               mesh)
        assert np.float64(est.sampled_inf).tobytes() == \
            np.float64(sampled).tobytes()
        assert np.float64(est.certified_lower).tobytes() == \
            np.float64(certified).tobytes()
        assert est.argmin.tobytes() == argmin.tobytes()
        assert est.samples == full.size
        vals, got_starts = net_profiles[-1]
        assert got_starts == starts
        seen = np.isfinite(vals)
        assert vals[seen].tobytes() == full[seen].tobytes()
        return int(np.count_nonzero(~seen))

    @pytest.mark.parametrize("kind", list(NormKind))
    def test_random_planar_sets(self, kind, net_profiles):
        rng = np.random.default_rng([14, len(kind.value)])
        skipped = [self._skipped(net_profiles, random_set(rng, 2, 2), 1, kind,
                                 0.001) for _ in range(100)]
        assert min(skipped) > 0

    def test_random_spatial_sets(self, net_profiles):
        rng = np.random.default_rng(14)
        skipped = [self._skipped(net_profiles, random_set(rng, 3, 2), 2,
                                 NormKind.L2, 0.025) for _ in range(20)]
        assert min(skipped) > 0

    @pytest.mark.parametrize("kind", list(NormKind))
    def test_reducible_and_rotation_sets(self, kind, net_profiles):
        rng = np.random.default_rng(1414)
        planar = [DIAGONAL_PAIR, _triangular_pair(rng, 2), ROTATION_PAIR_2D]
        for mset in planar:
            self._skipped(net_profiles, mset, 1, kind, 0.001)
        if kind is NormKind.L2:
            spatial = [_triangular_pair(rng, 3), SKEW_ROTATIONS_3D,
                       QUARTER_TURNS_3D]
            for mset in spatial:
                assert self._skipped(net_profiles, mset, 2, kind, 0.025) > 0

    @pytest.mark.parametrize("k", [-400, 400])
    def test_extreme_scales(self, k, net_profiles):
        rng = np.random.default_rng(400)
        planar = random_set(rng, 2, 2).scaled(2.0 ** k)
        for kind in NormKind:
            self._skipped(net_profiles, planar, 1, kind, 0.001)
        self._skipped(net_profiles, SKEW_ROTATIONS_3D.scaled(2.0 ** k), 2,
                      NormKind.L2, 0.025)

    def test_second_pass_when_a_new_point_blocks_two_starts(self,
                                                             monkeypatch):
        """A synthetic profile on the 629-point circle net, 0.9-Lipschitz
        per unit of arc against the bound's L = 2.  Before the last level
        the lowest thinned points are six dips and the even points z - 3,
        z + 3.  The last level adds z, lower than both and within the
        thinning spacing of each, so the thinned points lose one; the
        next one, the odd point w (0.213), was skipped, since its
        neighbours bound it from below by 0.202 > 0.201, the eighth
        thinned point so far.  Only a second pass finds it, and the cut T
        is its value."""
        n, z, w = 629, 545, 241
        steps = np.arange(n)
        profile = np.full(n, np.inf)
        for centre, value in [(0, 0.170), (96, 0.175), (192, 0.180),
                              (288, 0.185), (384, 0.190), (448, 0.194),
                              (z - 3, 0.200), (z, 0.196), (z + 3, 0.201),
                              (w, 0.213)]:
            gap = np.abs(steps - centre)
            profile = np.minimum(profile,
                                 value + 0.009 * np.minimum(gap, n - gap))
        xs = sphere_net(2, NormKind.L2, 0.01)
        assert xs.shape[0] == n
        calls = []

        def synthetic(prods, points, kind):
            angles = np.arctan2(points[:, 1], points[:, 0])
            calls.append(np.rint(angles / (2.0 * np.pi / n)).astype(int) % n)
            return profile[calls[-1]]

        monkeypatch.setattr(irreducibility_module, "radius_profile",
                            synthetic)
        prods = np.zeros((10, 2, 2))  # ten products: beyond one block
        assert n > _block_rows(10, 2)
        vals, starts = irreducibility_module._net_profile(
            prods, xs, NormKind.L2, 0.01, 2.0)
        thinned = irreducibility_module._select_starts(xs, profile,
                                                       NormKind.L2, 0.04)
        assert thinned[-1] == w
        # The eight lowest of the ten dips: z - 3 and z + 3 are local
        # minima too, as both their net neighbours are higher.
        assert starts == _reference_starts(xs, profile, NormKind.L2, 0.01)
        assert starts == [0, 96, 192, 288, 384, 448, z, z - 3]
        assert np.all(vals[np.isfinite(vals)] == profile[np.isfinite(vals)])
        z_call = next(k for k, idx in enumerate(calls) if z in idx)
        w_call = next(k for k, idx in enumerate(calls) if w in idx)
        assert w_call > z_call

    @pytest.mark.parametrize("d, kind, mesh", [
        (2, NormKind.L1, 0.001), (2, NormKind.LINF, 0.001),
        (3, NormKind.L2, 0.025), (3, NormKind.L1, 0.1),
        (3, NormKind.LINF, 0.1)])
    def test_shared_antipodes_change_no_value(self, d, kind, mesh,
                                              monkeypatch):
        """The walk with one evaluation per antipodal pair gives every
        value, skipped point and start of the walk that evaluates both."""
        rng = np.random.default_rng([18, d, len(kind.value)])
        xs = sphere_net(d, kind, mesh)
        for _ in range(3):
            prods = reach_products(random_set(rng, d, 2), d - 1)
            lipschitz = 2.0 * float(np.max(operator_norms(prods, kind)))
            shared = irreducibility_module._net_profile(prods, xs, kind, mesh,
                                                        lipschitz)
            with monkeypatch.context() as mp:
                mp.setattr(irreducibility_module, "_net_antipodes",
                           lambda xs, kind, mesh: np.full(xs.shape[0], -1))
                both = irreducibility_module._net_profile(prods, xs, kind,
                                                          mesh, lipschitz)
            assert shared[0].tobytes() == both[0].tobytes()
            assert shared[1] == both[1]

    def test_overflowing_lipschitz_constant(self, net_profiles):
        """2 max||G|| overflows: no point can be skipped, and none is."""
        big = MatrixSet.from_arrays([np.diag([2.0 ** 1023, 1.0]),
                                     [[0.0, -1.0], [1.0, 0.0]]])
        for kind in NormKind:
            est = chi_measure(big, 1, kind, 0.001)
            assert est.lipschitz == np.inf
            assert est.samples > _block_rows(3, 2)
            assert self._skipped(net_profiles, big, 1, kind, 0.001) == 0


class TestNetWork:
    """How many net points chi_measure hands to radius_profile."""

    @pytest.fixture
    def net_calls(self, monkeypatch) -> list[int]:
        """Point counts of the radius_profile calls of chi_measure's net
        sweep; refinement is switched off."""
        sizes = []
        profile = irreducibility_module.radius_profile

        def counted(prods, xs, kind):
            sizes.append(xs.shape[0])
            return profile(prods, xs, kind)

        monkeypatch.setattr(irreducibility_module, "radius_profile", counted)
        monkeypatch.setattr(irreducibility_module, "refine_minimum",
                            lambda fn, x0, v0, kind, step, lipschitz: (x0, v0))
        return sizes

    @pytest.mark.parametrize("mset", [QUARTER_TURNS_3D, SKEW_ROTATIONS_3D])
    def test_rotation_pair_evaluates_at_most_a_quarter_of_the_net(
            self, mset, net_calls):
        est = chi_measure(mset, 2, NormKind.L2, 0.01)
        assert est.samples == 163_842
        assert sum(net_calls) <= 0.25 * est.samples

    @pytest.mark.parametrize("mset, p, mesh", [
        (GOLDEN_PAIR, 1, 0.01), (ROTATION_PAIR_2D, 1, 0.02),
        (ROTATION_PAIR_3D, 1, 0.1)])
    def test_net_of_one_block_is_one_call(self, mset, p, mesh, net_calls):
        """One call on the net, one point of each antipodal pair in it:
        the 642-point icosphere has 276 pairs, the odd l2 circles none."""
        est = chi_measure(mset, p, NormKind.L2, mesh)
        assert est.samples <= _block_rows(len(reach_products(mset, p)),
                                          mset.dim)
        pairs = _antipodal_pairs(sphere_net(mset.dim, NormKind.L2, mesh))
        assert pairs == (276 if mset.dim == 3 else 0)
        assert net_calls == [est.samples - pairs]

    def test_shared_antipodes_halve_the_rows(self, net_calls, monkeypatch):
        """QUARTER_TURNS_3D at mesh 0.01: the walk evaluates at most 55%
        of the 14,620 rows it took when both points of each antipodal
        pair were evaluated."""
        chi_measure(QUARTER_TURNS_3D, 2, NormKind.L2, 0.01)
        shared = sum(net_calls)
        net_calls.clear()
        monkeypatch.setattr(irreducibility_module, "_net_antipodes",
                            lambda xs, kind, mesh: np.full(xs.shape[0], -1))
        chi_measure(QUARTER_TURNS_3D, 2, NormKind.L2, 0.01)
        assert sum(net_calls) == 14_620
        assert shared <= 0.55 * 14_620


class TestRefinementWork:
    """How much refinement chi_measure runs, against the search that runs
    one ring scale per call and every start to its end."""

    @pytest.fixture
    def searches(self, monkeypatch) -> list:
        """(calls, rows) of each refinement of chi_measure and of
        one_scale_search on the same starts; the two must share the
        first start of least value, to the bit."""
        record = []
        refine = irreducibility_module.refine_minimum

        def counted(fn, x0, v0, kind, step, lipschitz):
            work = [[0, 0], [0, 0]]

            def count(k):
                def value_fn(block):
                    work[k][0] += 1
                    work[k][1] += block.shape[0]
                    return fn(block)
                return value_fn

            xs, vs = refine(count(0), x0, v0, kind, step, lipschitz)
            ref_x, ref_v, _ = one_scale_search(count(1), x0, v0, kind, step)
            win = int(np.argmin(ref_v))
            assert int(np.argmin(vs)) == win
            assert xs[win].tobytes() == ref_x[win].tobytes()
            assert vs[win].tobytes() == ref_v[win].tobytes()
            record.append(work)
            return xs, vs

        monkeypatch.setattr(irreducibility_module, "refine_minimum", counted)
        return record

    def test_stopped_starts_save_rows_in_3d(self, searches):
        """A 3-d pair in linf at mesh 0.2, like the benchmark's calls
        tasks: 8 starts, 4,984 rows run to the end, 3,168 with the
        starts that cannot win stopped."""
        mset = random_set(np.random.default_rng(0), 3, 2)
        chi_measure(mset, 2, NormKind.LINF, 0.2)
        (work, reference), = searches
        assert work[1] <= 0.75 * reference[1]

    def test_batched_halvings_save_calls_in_2d(self, searches):
        """Three members at p = 3, about 40 reach products, like the
        benchmark's chi task: one start, 50 calls of one scale, 19 of up
        to four."""
        mset = random_set(np.random.default_rng(0), 2, 3)
        chi_measure(mset, 3, NormKind.L2, 0.005)
        (work, reference), = searches
        assert work[0] <= 0.5 * reference[0]


def _antipodal_pairs(xs: np.ndarray) -> int:
    """Pairs of rows of xs, one the negation of the other bit for bit."""
    rows = {row.tobytes() for row in xs}
    return sum((-row).tobytes() in rows for row in xs) // 2


class TestStarts:
    """Refinement starts are projective local minima of the net values."""

    @pytest.mark.parametrize("mset, count", [
        (MatrixSet.from_arrays([[[1.0, 1.0], [0.0, 2.0]],
                                [[3.0, 1.0], [0.0, 1.0]]]), 1),
        (DIAGONAL_PAIR, 2)])
    def test_one_start_per_basin(self, mset, count, net_profiles):
        """A common invariant line is the one zero of the measure, with
        its mirror: one basin on the projective circle.  The diagonal pair
        has two invariant lines."""
        est = chi_measure(mset, 1, NormKind.L2, 0.01)
        vals, starts = net_profiles[-1]
        assert len(starts) == count
        assert starts[0] == int(np.argmin(vals))
        assert est.sampled_inf == 0.0

    @pytest.mark.parametrize("d, mesh", [(2, 0.01), (3, 0.05)])
    @pytest.mark.parametrize("kind", list(NormKind))
    def test_no_two_starts_within_the_projective_mesh(self, d, mesh, kind,
                                                      net_profiles):
        rng = np.random.default_rng([18, d, len(kind.value)])
        for _ in range(10):
            mset = random_set(rng, d, 2)
            chi_measure(mset, d - 1, kind, mesh)
            vals, starts = net_profiles[-1]
            xs = sphere_net(d, kind, mesh)
            assert starts == _reference_starts(xs, vals, kind, mesh)
            for k, i in enumerate(starts):
                assert np.all(_projective_distances(xs[i], xs[starts[:k]],
                                                    kind) > mesh)

    def test_flat_profile(self, monkeypatch):
        """A zero radius everywhere: the head below the cut is the whole
        net, in index order, and every point but a few has an earlier
        neighbour."""
        monkeypatch.setattr(irreducibility_module, "_NEAR_CHUNK", 50)
        for d, kind, mesh in [(2, NormKind.L2, 0.01), (2, NormKind.L1, 0.01),
                              (3, NormKind.LINF, 0.2), (1, NormKind.L2, 0.1)]:
            xs = sphere_net(d, kind, mesh)
            prods = np.zeros((1, d, d))
            vals, starts = irreducibility_module._net_profile(
                prods, xs, kind, mesh, 0.0)
            assert np.all(vals == 0.0)
            assert starts == _reference_starts(xs, vals, kind, mesh)
            assert 1 <= len(starts) <= 8

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("kind", list(NormKind))
    def test_thinning_matches_pairwise(self, d, kind, monkeypatch):
        """_select_starts against the greedy thinning written out pair by
        pair, on blocks of 3 points and the default, with tied values,
        repeated points, points on a grid of step 1/4 (distances of
        exactly the spacing) and spacings that leave fewer than 8
        points."""
        rng = np.random.default_rng([20, d])
        for block, spacing, grid in itertools.product(
                (3, irreducibility_module._THIN_BLOCK),
                (0.0, 0.05, 0.25, 0.5, 1.5, 3.0), (False, True)):
            monkeypatch.setattr(irreducibility_module, "_THIN_BLOCK", block)
            if grid:
                xs = rng.integers(-4, 5, size=(300, d)) / 4.0
            else:
                xs = rng.normal(size=(300, d))
                xs /= vector_norms(xs, kind)[:, None]
                xs[7] = xs[3]
            vals = np.round(rng.uniform(size=300), 1)
            want: list[int] = []
            for i in np.argsort(vals, kind="stable"):
                if len(want) < 8 and all(
                        vector_norms(xs[i] - xs[j], kind) >= spacing
                        for j in want):
                    want.append(int(i))
            got = irreducibility_module._select_starts(xs, vals, kind,
                                                       spacing)
            assert got == want
            cut = irreducibility_module._starts_cut(xs, vals, kind,
                                                    spacing)
            assert cut == (vals[want[-1]] if len(want) == 8 else math.inf)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("kind", list(NormKind))
    def test_near_earlier_matches_pairwise(self, d, kind, monkeypatch):
        monkeypatch.setattr(irreducibility_module, "_NEAR_CHUNK", 7)
        rng = np.random.default_rng([18, d])
        for rho in (0.05, 0.3, 3.0):
            pts = rng.normal(size=(120, d))
            pts /= vector_norms(pts, kind)[:, None]
            pts[40] = -pts[3]
            pts[41] = pts[5]
            near = irreducibility_module._near_earlier(pts, kind, rho)
            want = [bool(np.any(_projective_distances(pts[i], pts[:i], kind)
                                <= rho)) for i in range(pts.shape[0])]
            assert near.tolist() == want
            assert near[40] and near[41]


class TestBurnside:
    def test_identity_only(self):
        report = burnside_detail(IDENTITY_ONLY)
        assert report.irreducible is False
        assert report.rank == 1

    def test_golden_pair_full_span(self):
        # oracle: I, A1, A2, A1 A2 already span the 4-dimensional algebra
        a1, a2 = GOLDEN_PAIR.members
        assert _span_rank([np.eye(2), a1, a2, a1 @ a2]) == 4
        report = burnside_detail(GOLDEN_PAIR)
        assert report.irreducible is True
        assert report.rank == 4

    def test_diagonal_pair(self):
        report = burnside_detail(DIAGONAL_PAIR)
        assert report.irreducible is False
        assert report.status == "reducible"

    def test_rotation_resolved_despite_small_rank(self):
        # the span of rotations has rank 2, yet no real invariant line exists
        report = burnside_detail(QUARTER_TURN)
        assert report.rank == 2
        assert report.irreducible is True

    def test_block_diagonal_3d(self):
        rz = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 2.0]])
        report = burnside_detail(MatrixSet.from_arrays([rz]))
        assert report.irreducible is False

    def test_dim_4_conservative(self):
        ms = MatrixSet.from_arrays([np.diag([1.0, 2.0, 3.0, 4.0])])
        report = burnside_detail(ms)
        assert report.irreducible is False

    def test_dim_4_full_rank_is_definite(self, rng):
        ms = random_set(rng, 4, 3)
        report = burnside_detail(ms)
        if report.rank == 16:
            assert report.irreducible is True

    @pytest.mark.parametrize("c", [1e-20, 1e20, 1e-100, 1e100, 1e-200, 1e200,
                                   2.0 ** -900, 2.0 ** 900])
    def test_verdict_and_rank_do_not_depend_on_scale(self, c):
        """Products of the set / 2^e stay in the float range and the 2-d
        search sees unit-scale entries, so every multiple gets the verdict
        and rank of the set itself."""
        rz = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 2.0]])
        for ms in (ROTATION_PAIR_2D, GOLDEN_PAIR, ROTATION_PAIR_3D,
                   DIAGONAL_PAIR, MatrixSet.from_arrays([rz])):
            assert burnside_detail(ms.scaled(c)) == burnside_detail(ms)
        assert [burnside_detail(ms.scaled(c)) for ms in (
            ROTATION_PAIR_2D, GOLDEN_PAIR, ROTATION_PAIR_3D)] == [
            BurnsideReport(True, 2, "irreducible"),
            BurnsideReport(True, 4, "irreducible"),
            BurnsideReport(True, 9, "irreducible")]

    def test_wrapper(self):
        assert burnside_irreducible(GOLDEN_PAIR) is True
        assert burnside_irreducible(DIAGONAL_PAIR) is False


class TestInvariantLineSearch:
    def test_diagonal_pair_finds_axis(self):
        line = invariant_subspace_search_2d(DIAGONAL_PAIR)
        assert line is not None
        assert abs(line[0]) == pytest.approx(1.0)
        assert line[1] == pytest.approx(0.0, abs=1e-12)

    def test_rotation_has_none(self):
        assert invariant_subspace_search_2d(QUARTER_TURN) is None

    @pytest.mark.parametrize("c", [1e-20, 1e20, 2.0 ** -900, 2.0 ** 900])
    def test_same_answer_at_every_scale(self, c):
        assert invariant_subspace_search_2d(ROTATION_PAIR_2D.scaled(c)) is None
        assert invariant_subspace_search_2d(GOLDEN_PAIR.scaled(c)) is None
        line = invariant_subspace_search_2d(DIAGONAL_PAIR.scaled(c))
        assert abs(line[0]) == 1.0 and line[1] == 0.0

    def test_golden_pair_has_none(self):
        # A1's eigendirection (1,0) maps to (1,1) under A2, leaving the line
        assert invariant_subspace_search_2d(GOLDEN_PAIR) is None

    def test_triangular_pair(self):
        ms = MatrixSet.from_arrays([[[1.0, 1.0], [0.0, 2.0]],
                                    [[3.0, 1.0], [0.0, 1.0]]])
        line = invariant_subspace_search_2d(ms)
        assert line is not None
        for m in ms.members:
            image = np.asarray(m) @ line
            cross = image[0] * line[1] - image[1] * line[0]
            assert cross == pytest.approx(0.0, abs=1e-9)


class TestCrosscheck:
    def test_identity_consistent(self):
        rep = lemma1_crosscheck(IDENTITY_ONLY, 1, NormKind.L2, 0.05)
        assert rep.irreducible is False
        assert rep.agreement == "consistent"

    def test_quarter_turn_consistent(self):
        rep = lemma1_crosscheck(QUARTER_TURN, 1, NormKind.L2, 0.01)
        assert rep.irreducible is True
        assert rep.chi.sampled_inf == pytest.approx(np.sqrt(2) / 2, abs=1e-6)
        assert rep.agreement == "consistent"

    def test_diagonal_pair_consistent(self):
        rep = lemma1_crosscheck(DIAGONAL_PAIR, 1, NormKind.L2, 0.02)
        assert rep.irreducible is False
        assert rep.agreement == "consistent"

    def test_irreducible_at_coarse_mesh_is_inconclusive(self):
        # mesh too coarse to certify, but the sampled value stays positive
        rep = lemma1_crosscheck(GOLDEN_PAIR, 1, NormKind.L2, 0.45)
        assert rep.irreducible is True
        if rep.chi.certified_lower == 0.0:
            assert rep.agreement == "inconclusive"

    def test_positive_certificate_is_consistent_at_any_tolerance(self):
        # the sampled 0.447 is below the tolerance; the certificate decides
        rep = lemma1_crosscheck(GOLDEN_PAIR, 1, NormKind.L2, 0.01,
                                tolerance=10.0)
        assert rep.irreducible is True
        assert 0.0 < rep.chi.certified_lower < rep.chi.sampled_inf < 10.0
        assert rep.agreement == "consistent"

    @pytest.mark.parametrize("p", [0, 1])
    def test_p_below_d_minus_1_refused_before_either_route(self, p,
                                                           monkeypatch):
        """Lemma 1 says nothing below p = d - 1: no verdict is computed."""
        def not_run(*args, **kwargs):
            raise AssertionError("a route ran")

        monkeypatch.setattr(irreducibility_module, "burnside_detail", not_run)
        monkeypatch.setattr(irreducibility_module, "chi_measure", not_run)
        with pytest.raises(ValueError) as exc:
            lemma1_crosscheck(ROTATION_PAIR_3D, p, NormKind.L2, 0.1)
        assert str(exc.value) == \
            f"the crosscheck needs p >= d - 1 = 2, got p={p}"

    @pytest.mark.parametrize("tolerance", [np.nan, np.inf, -1e-6])
    def test_bad_tolerance_rejected(self, tolerance):
        with pytest.raises(ValueError, match="tolerance must be non-negative "
                           f"and finite, got {tolerance}"):
            lemma1_crosscheck(QUARTER_TURN, 1, NormKind.L2, 0.05,
                              tolerance=tolerance)

    def test_report_dict(self):
        doc = lemma1_crosscheck(QUARTER_TURN, 1, NormKind.L2, 0.05).to_dict()
        assert set(doc) == {"irreducible", "rank", "status", "chi", "agreement"}

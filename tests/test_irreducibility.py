from __future__ import annotations

import warnings
from dataclasses import replace

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
    _net,
    dual_kind,
    radius_profile,
    vector_norms,
)
from jsrbound.irreducibility import BurnsideReport, burnside_detail
import jsrbound.irreducibility as irreducibility_module

from .conftest import (
    DIAGONAL_PAIR,
    GOLDEN_PAIR,
    QUARTER_TURN,
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

    def test_exact_dedupe(self):
        # Only exact duplicates are dropped, and -0.0 equals 0.0.
        near = MatrixSet.from_arrays([(1.0 + 1e-12) * np.eye(2)])
        assert len(reach_products(near, 3)) == 4
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        signed = MatrixSet.from_arrays([swap, [[-0.0, 1.0], [1.0, -0.0]]])
        np.testing.assert_array_equal(reach_products(signed, 2),
                                      np.stack([np.eye(2), swap]))

    @pytest.mark.parametrize("k, p, count", [(40, 2, 7), (200, 2, 7),
                                             (1000, 1, 3)])
    def test_tiny_sets_keep_every_product(self, k, p, count):
        assert len(reach_products(GOLDEN_PAIR.scaled(2.0 ** -k), p)) == count

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
        # conjugated common-triangular pair: true measure is zero, and a
        # candidate point on the common invariant line must find it
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

    @pytest.mark.parametrize("mset", [
        MatrixSet.from_arrays([[[1.0, 1.0], [0.0, 2.0]],
                               [[3.0, 1.0], [0.0, 1.0]]]),
        DIAGONAL_PAIR])
    @pytest.mark.parametrize("kind", list(NormKind))
    def test_reducible_pairs_reach_zero(self, mset, kind):
        # a common invariant line is a zero of the measure, on the net
        assert chi_measure(mset, 1, kind, 0.01).sampled_inf == 0.0


# Scales 2^-k of the golden pair: every k where the tiny products round
# into the identity's entries, then every tenth.
_TINY_SCALES = [*range(40, 121), *range(130, 1001, 10)]


class TestTinyScales:
    """chi is not homogeneous, but on the golden pair times c it tends to
    c / 2 as c falls; a tolerance in reach_products would drop products
    and read 0."""

    @pytest.mark.parametrize("kind", list(NormKind))
    def test_golden_pair_tends_to_half_the_scale(self, kind):
        for k in _TINY_SCALES:
            c = 2.0 ** -k
            est = chi_measure(GOLDEN_PAIR.scaled(c), 1, kind, 0.01)
            assert abs(est.sampled_inf / c - 0.5) <= 1e-9, k

    @pytest.mark.xfail(strict=True, reason=(
        "the 2-d edge normal of x and a product 2^-41 times smaller "
        "rounds, and its support at x cancels: radius_profile reads "
        "0.50012207 c against 0.500001 c"))
    def test_l2_radius_rounds_high_at_2_to_the_minus_41(self):
        tiny = GOLDEN_PAIR.scaled(2.0 ** -41)
        t = np.pi / 4.0 + 1e-6
        x = np.array([np.cos(t), np.sin(t)])
        got = radius_profile(reach_products(tiny, 1), x[None], NormKind.L2)
        want = inscribed_radius(_reach_points(tiny, 1, x), NormKind.L2)
        assert got[0] == pytest.approx(want, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("kind", list(NormKind))
    def test_golden_pair_times_1e_13(self, kind):
        tiny = GOLDEN_PAIR.scaled(1e-13)
        report = lemma1_crosscheck(tiny, 1, kind, 0.01)
        assert report.agreement != "inconsistent"
        assert abs(report.chi.sampled_inf / 1e-13 - 0.5) <= 1e-6


def _full_sweep(mset: MatrixSet, p: int, kind: NormKind, mesh: float):
    """chi_measure from a sweep of every net point: sphere_profile's first
    point of least value, replaced by the first candidate point of least
    value (``_invariant_points``) only when that is strictly lower.
    Returns sampled_inf, certified_lower, argmin and the net values."""
    prods = reach_products(mset, p)
    lipschitz = 2.0 * float(np.max(operator_norms(prods, kind)))
    xs, vals = sphere_profile(mset, p, kind, mesh)
    best = int(np.argmin(vals))
    argmin, sampled = xs[best], float(vals[best])
    cands = irreducibility_module._invariant_points(mset, kind)
    cand_vals = radius_profile(prods, cands, kind)
    low = int(np.argmin(cand_vals))
    if cand_vals[low] < sampled:
        argmin, sampled = cands[low], float(cand_vals[low])
    return sampled, max(0.0, sampled - lipschitz * mesh), argmin, vals


def _triangular_pair(rng: np.random.Generator, d: int) -> MatrixSet:
    """A common-triangular pair under a similarity: hidden reducible."""
    s = np.eye(d) + 0.5 * rng.uniform(-1.0, 1.0, (d, d))
    return MatrixSet.from_arrays(
        [s @ np.triu(rng.uniform(-1.0, 1.0, (d, d))) @ np.linalg.inv(s)
         for _ in range(2)])


def _plane_set(rng: np.random.Generator) -> MatrixSet:
    """Two members with a common invariant plane and no common invariant
    line, under a similarity: block-triangular, each a scaled rotation
    (by 0.7 and 1.9 rad) on the plane."""
    s = np.eye(3) + 0.5 * rng.uniform(-1.0, 1.0, (3, 3))
    mats = []
    for t in (0.7, 1.9):
        block = np.zeros((3, 3))
        block[:2, :2] = rng.uniform(0.5, 1.5) * np.array(
            [[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
        block[:2, 2] = rng.uniform(-1.0, 1.0, 2)
        block[2, 2] = rng.uniform(-1.0, 1.0)
        mats.append(s @ block @ np.linalg.inv(s))
    return MatrixSet.from_arrays(mats)


# The hidden reducible pair S T_i S^-1 of the CI job, S = [[1, 1], [1, 2]],
# T_1 = [[1, 2], [0, 3]], T_2 = [[2, -1], [0, 1]]: integer entries.
_HIDDEN_PAIR = MatrixSet.from_arrays([[[-3.0, 4.0], [-6.0, 7.0]],
                                      [[4.0, -2.0], [3.0, -1.0]]])


class TestInvariantPoints:
    """chi_measure evaluates the radius at points of possible common
    invariant subspaces, besides the net: on reducible sets it reads 0
    up to rounding, at any scale."""

    @pytest.mark.parametrize("k", [-400, 0, 400])
    @pytest.mark.parametrize("kind", list(NormKind))
    def test_reducible_spatial_sets_read_zero(self, kind, k):
        rng = np.random.default_rng(26)
        planes = [_plane_set(rng) for _ in range(3)]
        for mset in planes:
            (w, v), b = np.linalg.eig(mset.members[0]), mset.members[1]
            (line,) = v[:, w.imag == 0].real.T
            assert np.linalg.norm(np.cross(b @ line, line)) > 0.01
        mesh = 0.1 if kind is NormKind.L2 else 0.2
        for mset in planes + [_triangular_pair(rng, 3) for _ in range(3)]:
            report = lemma1_crosscheck(mset.scaled(2.0 ** k), 2, kind, mesh)
            assert report.chi.sampled_inf <= 1e-12 * report.chi.lipschitz / 2
            assert report.status == "reducible"
            assert report.agreement == "consistent"

    def test_a_tying_candidate_keeps_the_net_point(self, monkeypatch):
        """DIAGONAL_PAIR reads 0 at the net point (1, 0), its first; the
        candidate (0, 1) ties it and does not replace it."""
        monkeypatch.setattr(irreducibility_module, "_invariant_points",
                            lambda mset, kind: np.array([[0.0, 1.0]]))
        est = chi_measure(DIAGONAL_PAIR, 1, NormKind.L2, 0.01)
        assert est.sampled_inf == 0.0
        assert est.argmin.tolist() == [1.0, 0.0]

    @pytest.mark.parametrize("kind", list(NormKind))
    def test_points_are_kind_unit_at_any_scale(self, kind):
        """The points are finite and kind-unit in 1-d, 2-d and 3-d, and
        bit for bit the same for the set times 2^-600 and 2^600."""
        rng = np.random.default_rng(27)
        for d in (1, 2, 3):
            mset = random_set(rng, d, 3)
            points = irreducibility_module._invariant_points(mset, kind)
            assert points.shape[0] > 0 and points.shape[1] == d
            assert np.all(np.isfinite(points))
            assert vector_norms(points, kind) == pytest.approx(1.0,
                                                               abs=1e-12)
            for k in (-600, 600):
                scaled = irreducibility_module._invariant_points(
                    mset.scaled(2.0 ** k), kind)
                assert scaled.tobytes() == points.tobytes(), (d, k)

    @pytest.mark.parametrize("kind", list(NormKind))
    def test_argmin_is_a_sphere_point_of_value_sampled_inf(self, kind):
        """Whether a net point or a candidate gives the minimum, argmin is
        kind-unit and its radius is sampled_inf, bit for bit, so
        sampled_inf is a value the radius takes on the sphere."""
        rng = np.random.default_rng(28)
        sets = [random_set(rng, 2, 2), _HIDDEN_PAIR, random_set(rng, 3, 2),
                _plane_set(rng), _triangular_pair(rng, 3)]
        for mset in sets:
            mesh = 0.1 if mset.dim == 3 else 0.02
            est = chi_measure(mset, 2, kind, mesh)
            value = radius_profile(reach_products(mset, 2), est.argmin[None],
                                   kind)[0]
            assert value == est.sampled_inf
            assert vector_norms(est.argmin, kind) == pytest.approx(1.0,
                                                                   abs=1e-12)


@pytest.fixture
def net_profiles(monkeypatch) -> list:
    """The values of every net that chi_measure profiles."""
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
        points it skipped.  Each skipped point lies strictly above the
        net minimum, so the walk's minimum and its index are the full
        sweep's."""
        est = chi_measure(mset, p, kind, mesh)
        sampled, certified, argmin, full = _full_sweep(mset, p, kind, mesh)
        assert np.float64(est.sampled_inf).tobytes() == \
            np.float64(sampled).tobytes()
        assert np.float64(est.certified_lower).tobytes() == \
            np.float64(certified).tobytes()
        assert est.argmin.tobytes() == argmin.tobytes()
        assert est.samples == full.size
        vals = net_profiles[-1]
        seen = np.isfinite(vals)
        assert vals[seen].tobytes() == full[seen].tobytes()
        assert np.all(full[~seen] > np.min(full))
        assert np.argmin(vals) == np.argmin(full)
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

    @pytest.mark.parametrize("d, kind, mesh", [
        (2, NormKind.L1, 0.001), (2, NormKind.LINF, 0.001),
        (3, NormKind.L2, 0.025), (3, NormKind.L1, 0.1),
        (3, NormKind.LINF, 0.1)])
    def test_shared_antipodes_change_no_value(self, d, kind, mesh):
        """The walk with one evaluation per antipodal pair gives every
        value and skipped point of the walk that evaluates both."""
        rng = np.random.default_rng([18, d, len(kind.value)])
        net = _net(d, kind, mesh)
        for _ in range(3):
            prods = reach_products(random_set(rng, d, 2), d - 1)
            lipschitz = float(np.max(operator_norms(prods, kind)))
            shared = irreducibility_module._net_profile(prods, net, kind,
                                                        lipschitz)
            both = irreducibility_module._net_profile(prods, _unpaired(net),
                                                      kind, lipschitz)
            assert shared.tobytes() == both.tobytes()

    def test_overflowing_lipschitz_constant(self, net_profiles):
        """2 max||G|| overflows: no point can be skipped, and none is."""
        big = MatrixSet.from_arrays([np.diag([2.0 ** 1023, 1.0]),
                                     [[0.0, -1.0], [1.0, 0.0]]])
        for kind in NormKind:
            est = chi_measure(big, 1, kind, 0.001)
            assert est.lipschitz == np.inf
            assert est.samples > _block_rows(3, 2)
            assert self._skipped(net_profiles, big, 1, kind, 0.001) == 0


# Nets of every kind in 1-, 2- and 3-d: the 2-d and 3-d nets are walked
# level by level (the l1 and linf ones at q = 20 through q = 10 and 5,
# and with odd-factor steps at q = 50 through 5 | 25 | 50, q = 75
# through 5 | 25 | 75 and q = 45 through 5 | 15 | 45), the 1-d net is
# one level.
_WALKED_NETS = [(1, NormKind.L2, 0.1), (2, NormKind.L2, 0.001),
                (2, NormKind.L1, 0.001), (2, NormKind.LINF, 0.001),
                (3, NormKind.L2, 0.025), (3, NormKind.L1, 0.1),
                (3, NormKind.LINF, 0.1), (3, NormKind.L1, 0.04),
                (3, NormKind.LINF, 0.0267), (3, NormKind.L1, 0.0445)]


class TestWalk:
    """_net_profile on its own: one pass over the net levels."""

    @staticmethod
    def _walk(d, kind, mesh, seed):
        """A random pair's p = d - 1 reach products, the net and the walk's
        values on it, at chi_measure's constant max||G||."""
        rng = np.random.default_rng([21, d, len(kind.value), seed])
        prods = reach_products(random_set(rng, d, 2), d - 1)
        lipschitz = float(np.max(operator_norms(prods, kind)))
        net = _net(d, kind, mesh)
        vals = irreducibility_module._net_profile(prods, net, kind, lipschitz)
        return prods, net.points, vals

    @pytest.mark.parametrize("d, kind, mesh", _WALKED_NETS)
    def test_skipped_points_lie_above_the_minimum(self, d, kind, mesh):
        """Every value the walk returns is radius_profile's to the bit, and
        every point it skips is strictly above the full sweep's minimum.
        Nets of several levels skip some points, one-level nets none."""
        for seed in range(3):
            prods, xs, vals = self._walk(d, kind, mesh, seed)
            full = radius_profile(prods, xs, kind)
            seen = np.isfinite(vals)
            levels = bool(_net(d, kind, mesh).steps)
            assert np.any(~seen) == levels
            assert vals[seen].tobytes() == full[seen].tobytes()
            assert np.all(full[~seen] > np.min(full))
            assert np.argmin(vals) == np.argmin(full)

    @pytest.mark.parametrize("d, kind, mesh", _WALKED_NETS)
    def test_each_point_is_evaluated_once(self, d, kind, mesh, monkeypatch):
        """No net point reaches radius_profile twice, and each one that
        does has a finite value: the walk is a single pass."""
        rows = []
        profile = irreducibility_module.radius_profile

        def recorded(prods, xs, kind):
            rows.extend(x.tobytes() for x in xs)
            return profile(prods, xs, kind)

        monkeypatch.setattr(irreducibility_module, "radius_profile", recorded)
        _, xs, vals = self._walk(d, kind, mesh, 0)
        assert len(rows) == len(set(rows))
        seen = {x.tobytes() for x in xs[np.isfinite(vals)]}
        assert set(rows) <= seen

    @pytest.mark.parametrize("d, kind, mesh", _WALKED_NETS)
    def test_flat_profile_evaluates_every_point(self, d, kind, mesh,
                                                monkeypatch):
        """A zero radius everywhere and a zero Lipschitz constant: every
        bound equals the best value, and a point whose bound equals it is
        evaluated, so the first point of least value is point 0.  The
        walk is forced on nets that one block would hold."""
        monkeypatch.setattr(irreducibility_module, "_block_rows",
                            lambda m, d: 1)
        vals = irreducibility_module._net_profile(
            np.zeros((1, d, d)), _net(d, kind, mesh), kind, 0.0)
        assert np.all(vals == 0.0)
        assert np.argmin(vals) == 0


class TestDisplacementBound:
    """The walk's bound B(q) - max_G ||G (x - q)||, less its rounding term,
    skips only points strictly above the full sweep's minimum."""

    @pytest.mark.parametrize("d, kind, mesh", [
        (2, NormKind.L2, 0.01), (2, NormKind.L1, 0.01),
        (2, NormKind.LINF, 0.01), (3, NormKind.L2, 0.1),
        (3, NormKind.L1, 0.2), (3, NormKind.LINF, 0.2)])
    def test_minimum_and_argmin_are_a_full_sweeps(self, d, kind, mesh,
                                                 monkeypatch):
        """30 random sets, not isometries, a third times 2^400 and a third
        times 2^-400: the walk's minimum and first argmin are those of a
        radius_profile sweep of the whole net, with no RuntimeWarning,
        and some displacement is formed.  The walk is forced on nets that
        one block would hold."""
        monkeypatch.setattr(irreducibility_module, "_block_rows",
                            lambda m, d: 1)
        formed = []
        real = irreducibility_module._displacements

        def spied(prods, vs, kind):
            formed.append(vs.shape[0])
            return real(prods, vs, kind)

        monkeypatch.setattr(irreducibility_module, "_displacements", spied)
        net = _net(d, kind, mesh)
        rng = np.random.default_rng([31, d, len(kind.value)])
        for k in range(30):
            mset = random_set(rng, d, 2 + k % 2)
            if k % 3:
                mset = mset.scaled(2.0 ** (400 if k % 3 == 1 else -400))
            prods = reach_products(mset, d - 1)
            norm = float(np.max(operator_norms(prods, kind)))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                vals = irreducibility_module._net_profile(prods, net, kind,
                                                          norm)
            full = radius_profile(prods, net.points, kind)
            seen = np.isfinite(vals)
            assert vals[seen].tobytes() == full[seen].tobytes()
            assert np.all(full[~seen] > np.min(full))
            assert np.min(vals).tobytes() == np.min(full).tobytes()
            assert np.argmin(vals) == np.argmin(full)
        assert sum(formed) > 0


def _walk_sets(d: int, kind: NormKind) -> list[tuple[MatrixSet, int]]:
    """18 d-dimensional sets and their p: random pairs at p = d - 1, a
    random triple whose reach products are pruned (40 in 2-d, 13 in 3-d),
    and degenerate ones: rank-one members, a near-singular member,
    integer entries whose radii tie, pairs scaled by 2^-400 and 2^400 and
    a hidden reducible pair."""
    rng = np.random.default_rng([23, d, len(kind.value)])
    p = d - 1
    sets = [(random_set(rng, d, 2), p) for _ in range(9)]
    sets.append((random_set(rng, d, 3), 5 - d))
    u, v = rng.uniform(-1.0, 1.0, (2, d))
    sets.append((MatrixSet.from_arrays(
        [np.outer(u, v), rng.uniform(-1.0, 1.0, (d, d))]), p))
    sets.append((MatrixSet.from_arrays([np.outer(u, v), np.outer(v, u)]), p))
    near = rng.uniform(-1.0, 1.0, (d, d))
    near[:, -1] = near[:, 0] * (1.0 + 2.0 ** -40)
    sets.append((MatrixSet.from_arrays(
        [near, rng.uniform(-1.0, 1.0, (d, d))]), p))
    sets.append((MatrixSet.from_arrays(
        rng.integers(-1, 2, (2, d, d)).astype(float)), p))
    sets.append((GOLDEN_PAIR if d == 2 else QUARTER_TURNS_3D, p))
    sets += [(random_set(rng, d, 2).scaled(2.0 ** k), p) for k in (-400, 400)]
    sets.append((_triangular_pair(rng, d), p))
    return sets


class TestTrueConstant:
    """The walk at chi_measure's constant max||G||, with no slack in its
    steps, on 108 random and degenerate sets."""

    @pytest.mark.parametrize("d, kind, mesh", [
        (2, NormKind.L2, 0.05), (2, NormKind.L1, 0.05),
        (2, NormKind.LINF, 0.05), (3, NormKind.L2, 0.1),
        (3, NormKind.L1, 0.1), (3, NormKind.LINF, 0.1)])
    def test_walk_keeps_the_full_minimum(self, d, kind, mesh, monkeypatch):
        """TestWalk's invariants: the walk's values are radius_profile's
        bits, every skipped point lies strictly above the full minimum,
        and the argmin is the full sweep's.  The computed radii are
        Lipschitz with constant max||G|| between each point and its
        parents but for 2^-20 max||G||.  The walk is forced on nets that
        one block would hold."""
        monkeypatch.setattr(irreducibility_module, "_block_rows",
                            lambda m, d: 1)
        net = _net(d, kind, mesh)
        xs = net.points
        skipped = 0
        for mset, p in _walk_sets(d, kind):
            prods = reach_products(mset, p)
            norm = float(np.max(operator_norms(prods, kind)))
            vals = irreducibility_module._net_profile(prods, net, kind, norm)
            full = radius_profile(prods, xs, kind)
            seen = np.isfinite(vals)
            assert vals[seen].tobytes() == full[seen].tobytes()
            assert np.all(full[~seen] > np.min(full))
            assert np.argmin(vals) == np.argmin(full)
            skipped += int(np.count_nonzero(~seen))
            for new, left, right, *_ in net.steps:
                for parent in (left, right):
                    gap = np.abs(full[new] - full[parent])
                    slope = norm * vector_norms(xs[new] - xs[parent], kind)
                    assert np.all(gap <= slope + 2.0 ** -20 * norm)
        assert skipped > 0


class TestNetWork:
    """How many net points chi_measure hands to radius_profile."""

    @pytest.fixture
    def net_calls(self, monkeypatch) -> list[int]:
        """Point counts of the radius_profile calls of chi_measure's net
        sweep, leaving out its call on the candidate points."""
        sizes, cands = [], []
        profile = irreducibility_module.radius_profile
        points = irreducibility_module._invariant_points

        def recorded(mset, kind):
            cands.append(points(mset, kind))
            return cands[-1]

        def counted(prods, xs, kind):
            if not any(xs is c for c in cands):
                sizes.append(xs.shape[0])
            return profile(prods, xs, kind)

        monkeypatch.setattr(irreducibility_module, "radius_profile", counted)
        monkeypatch.setattr(irreducibility_module, "_invariant_points",
                            recorded)
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
        """One call on the net, one point of each antipodal pair in it, up
        to the sign of zero: the 642-point icosphere has 321 pairs, the
        odd l2 circles none."""
        est = chi_measure(mset, p, NormKind.L2, mesh)
        assert est.samples <= _block_rows(len(reach_products(mset, p)),
                                          mset.dim)
        pairs = _antipodal_pairs(sphere_net(mset.dim, NormKind.L2, mesh))
        assert pairs == (321 if mset.dim == 3 else 0)
        assert net_calls == [est.samples - pairs]

    def test_shared_antipodes_halve_the_rows(self, net_calls, monkeypatch):
        """QUARTER_TURNS_3D at mesh 0.01: the walk evaluates at most 55%
        of the 5,542 rows it takes when both points of each antipodal
        pair are evaluated."""
        chi_measure(QUARTER_TURNS_3D, 2, NormKind.L2, 0.01)
        shared = sum(net_calls)
        net_calls.clear()
        monkeypatch.setattr(irreducibility_module, "_net",
                            lambda *args: _unpaired(_net(*args)))
        chi_measure(QUARTER_TURNS_3D, 2, NormKind.L2, 0.01)
        assert sum(net_calls) == 5_542
        assert shared <= 0.55 * 5_542

    @pytest.mark.parametrize("kind, tag, rows", [
        (NormKind.L1, (2, 1), 5_298), (NormKind.LINF, (2, 2), 11_284)])
    def test_polyhedral_nets_are_walked_by_level(self, kind, tag, rows,
                                                 net_calls):
        """The base sets of the benchmark's 3-d l1 and linf chi tasks
        (before their net isometry) at mesh 0.04, q = 50 walked through
        q = 5 and 25, reach radius_profile with under half the rows of
        the walk at twice the constant on one-level nets."""
        mats = np.random.default_rng([20260101, *tag]).uniform(
            -1.0, 1.0, (2, 3, 3))
        est = chi_measure(MatrixSet.from_arrays(mats), 2, kind, 0.04)
        assert est.samples == (10_002 if kind is NormKind.L1 else 15_002)
        assert sum(net_calls) < 0.5 * rows

    @pytest.mark.parametrize("kind, tag, rows", [
        (NormKind.L1, (2, 1), 1_800), (NormKind.LINF, (2, 2), 2_100)])
    def test_displacement_bound_skips_more_points(self, kind, tag, rows,
                                                  net_calls):
        """The sets of test_polyhedral_nets_are_walked_by_level: with one
        row per antipodal pair up to the sign of zero and the displacement
        bound, the walk takes at most 1,800 and 2,100 rows, down from
        2,456 and 2,622 with exact antipodes and the Lipschitz bound
        alone."""
        mats = np.random.default_rng([20260101, *tag]).uniform(
            -1.0, 1.0, (2, 3, 3))
        chi_measure(MatrixSet.from_arrays(mats), 2, kind, 0.04)
        assert sum(net_calls) <= rows

    @pytest.mark.parametrize("kind, tag, mesh, rows", [
        (NormKind.L1, (2, 1), 0.04, 1_400),
        (NormKind.LINF, (2, 2), 0.04, 1_350),
        (NormKind.L1, (2, 1), 0.0267, 11_251 / 4),
        (NormKind.LINF, (2, 2), 0.0267, 16_876 / 4)])
    def test_odd_factor_levels_skip_more_points(self, kind, tag, mesh,
                                                rows, net_calls):
        """The sets of test_polyhedral_nets_are_walked_by_level, walked
        with odd-factor steps: at mesh 0.04 (q = 50 through 5 | 25 | 50)
        in at most 1,400 and 1,350 rows, down from 1,726 and 2,028 when
        q = 25 was the coarsest level; at mesh 0.0267 (q = 75 through 5 |
        25 | 75) in under a quarter of the 11,251 and 16,876 rows of a
        one-level sweep of the net."""
        mats = np.random.default_rng([20260101, *tag]).uniform(
            -1.0, 1.0, (2, 3, 3))
        chi_measure(MatrixSet.from_arrays(mats), 2, kind, mesh)
        assert sum(net_calls) <= rows

    @pytest.mark.parametrize("mset", [SKEW_ROTATIONS_3D, QUARTER_TURNS_3D])
    def test_rotation_pair_forms_no_displacement(self, mset, monkeypatch):
        """In l2 every product of a rotation pair has norm 1 = max||G||, so
        no parent clears the least value by its bare gap when the
        Lipschitz bound does not: no displacement is formed."""
        formed = []
        real = irreducibility_module._displacements

        def spied(prods, vs, kind):
            formed.append(vs.shape[0])
            return real(prods, vs, kind)

        monkeypatch.setattr(irreducibility_module, "_displacements", spied)
        est = chi_measure(mset, 2, NormKind.L2, 0.01)
        assert est.samples == 163_842
        assert formed == []

    @pytest.mark.parametrize("d, kind, mesh", [
        (1, NormKind.L2, 0.1), (2, NormKind.L2, 0.05),
        (2, NormKind.LINF, 0.01), (3, NormKind.L2, 0.1),
        (3, NormKind.L1, 0.1), (3, NormKind.LINF, 0.2)])
    def test_sphere_profile_evaluates_one_point_per_antipodal_pair(
            self, d, kind, mesh, net_calls):
        """sphere_profile's values are radius_profile's on every net point,
        bit for bit, from one row per antipodal pair and one per unpaired
        point: 321 of the 642 icosphere points in 3-d l2."""
        mset = random_set(np.random.default_rng([30, d]), d, 2)
        p = max(1, d - 1)
        xs, vals = sphere_profile(mset, p, kind, mesh)
        assert xs.tobytes() == sphere_net(d, kind, mesh).tobytes()
        assert not np.shares_memory(xs, _net(d, kind, mesh).points)
        full = radius_profile(reach_products(mset, p), xs, kind)
        assert vals.tobytes() == full.tobytes()
        assert sum(net_calls) == xs.shape[0] - _antipodal_pairs(xs)
        if (d, kind) == (3, NormKind.L2):
            assert net_calls == [321]


def _unpaired(net):
    """The net with an antipode table that pairs no point."""
    return replace(net, antipodes=np.full(net.points.shape[0], -1))


def _antipodal_pairs(xs: np.ndarray) -> int:
    """Pairs of rows of xs, one the negation of the other bit for bit but
    for the sign of a zero."""
    rows = {(row + 0.0).tobytes() for row in xs}
    return sum((-row + 0.0).tobytes() in rows for row in xs) // 2


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


def _jordan_pairs() -> list[MatrixSet]:
    """S [[a, 1], [0, a]] S^-1 and S [[b, t], [0, b]] S^-1, S = I + 0.5 U:
    defective pairs with the common line S e1.  LAPACK gives the first
    member's double eigenvalue of the third and fourth as a complex pair
    +-8e-9 i and +-2.3e-9 i."""
    rng = np.random.default_rng(7)
    sets = []
    for _ in range(6):
        a, b, t = rng.uniform(-1.0, 1.0, 3)
        s = np.eye(2) + 0.5 * rng.uniform(-1.0, 1.0, (2, 2))
        inv = np.linalg.inv(s)
        sets.append(MatrixSet.from_arrays(
            [s @ np.array([[a, 1.0], [0.0, a]]) @ inv,
             s @ np.array([[b, t], [0.0, b]]) @ inv]))
    return sets


class TestJordanPairs:
    """A defective member's double eigenvalue may come back as a complex
    pair a few 1e-9 apart; its eigendirection is still a candidate line."""

    @pytest.mark.parametrize("k", range(6))
    def test_verdict_is_reducible(self, k):
        ms = _jordan_pairs()[k]
        assert burnside_detail(ms) == BurnsideReport(False, 2, "reducible")
        line = invariant_subspace_search_2d(ms)
        for m in ms.members:
            image = np.asarray(m) @ line
            assert abs(image[0] * line[1] - image[1] * line[0]) <= 1e-8

    @pytest.mark.parametrize("kind", list(NormKind))
    def test_crosscheck_is_consistent(self, kind):
        for ms in _jordan_pairs():
            rep = lemma1_crosscheck(ms, 1, kind, 0.05)
            assert rep.status == "reducible"
            assert rep.agreement == "consistent"

    @pytest.mark.parametrize("c", [1e-14, 5e-13])
    def test_near_rotation_anchor_stays_irreducible(self, c):
        """[[0, 1], [-c, 0]] has the eigenvalues +-sqrt(c) i, 1e-7 i and
        7.1e-7 i here, beyond the Jordan window (2^-24 of the largest
        entry) but within 2^-20; it has no real invariant line, and its
        line e1 has a residual c, far under the 1e-9 invariance test."""
        ms = MatrixSet.from_arrays([[[0.0, 1.0], [-c, 0.0]],
                                    np.diag([1.0, 2.0])])
        assert invariant_subspace_search_2d(ms) is None
        assert burnside_detail(ms).status == "irreducible"


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

    @pytest.mark.parametrize("kind", list(NormKind))
    def test_tolerance_is_relative_to_the_largest_norm(self, kind):
        """A reducible pair times 2^100 samples far above 1e-6 in l2, but
        not above 1e-6 max||G||."""
        rep = lemma1_crosscheck(_HIDDEN_PAIR.scaled(2.0 ** 100), 1, kind,
                                0.01)
        assert rep.status == "reducible"
        assert rep.chi.sampled_inf <= 1e-12 * rep.chi.lipschitz / 2
        assert rep.agreement == "consistent"

    def test_overflowing_lipschitz_leaves_the_tolerance_finite(self):
        """At 2^1020 the l2 lipschitz overflows; the sample, about 1.9e291,
        is then measured against the largest float, not against inf."""
        huge = _HIDDEN_PAIR.scaled(2.0 ** 1020)
        rep = lemma1_crosscheck(huge, 1, NormKind.L2, 0.01, tolerance=0.0)
        assert rep.chi.lipschitz == np.inf
        assert rep.chi.sampled_inf > 0.0
        assert rep.agreement == "inconclusive"
        assert lemma1_crosscheck(huge, 1, NormKind.L2,
                                 0.01).agreement == "consistent"

    def test_report_dict(self):
        doc = lemma1_crosscheck(QUARTER_TURN, 1, NormKind.L2, 0.05).to_dict()
        assert set(doc) == {"irreducible", "rank", "status", "chi", "agreement"}

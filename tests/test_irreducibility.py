from __future__ import annotations

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
    reach_set,
    sphere_profile,
)
from jsrbound.core import operator_norm
from jsrbound.geometry import (
    dual_kind,
    halton_directions,
    support_radius_upper,
    vector_norms,
)
from jsrbound.irreducibility import BurnsideReport, burnside_detail

from .conftest import DIAGONAL_PAIR, GOLDEN_PAIR, QUARTER_TURN, random_set

IDENTITY_ONLY = MatrixSet.from_arrays([np.eye(2)])
SHEAR_ONLY = MatrixSet.from_arrays([[[1.0, 1.0], [0.0, 1.0]]])
ROTATION_PAIR_2D = MatrixSet.from_arrays(
    [[[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]] for t in (1.0, 2.2)])
ROTATION_PAIR_3D = MatrixSet.from_arrays(
    [[[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]],
     [[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.5]]])


def _points_close(actual: np.ndarray, expected: list[list[float]]) -> bool:
    got = sorted(map(tuple, np.round(actual, 9).tolist()))
    want = sorted(map(tuple, np.round(np.array(expected, float), 9).tolist()))
    return got == want


def _span_rank(mats: list[np.ndarray]) -> int:
    flat = np.stack([m.ravel() for m in mats])
    return int(np.linalg.matrix_rank(flat, tol=1e-10))


class TestReachSet:
    def test_identity_singleton(self):
        pts = reach_set(IDENTITY_ONLY, 1, np.array([1.0, 0.0])).points
        assert _points_close(pts, [[1, 0], [-1, 0]])

    def test_quarter_turn(self):
        pts = reach_set(QUARTER_TURN, 1, np.array([1.0, 0.0])).points
        assert _points_close(pts, [[1, 0], [0, 1], [-1, 0], [0, -1]])

    def test_shear_depth_two(self):
        # A(0,1) = (1,1) and A^2(0,1) = (2,1), plus negations
        pts = reach_set(SHEAR_ONLY, 2, np.array([0.0, 1.0])).points
        assert _points_close(
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

    def test_points_keep_first_occurrence_in_order(self):
        pts = reach_set(QUARTER_TURN, 4, np.array([1.0, 0.0])).points
        # the negated copies all repeat the orbit of R
        np.testing.assert_array_equal(
            np.round(pts, 12), [[1, 0], [0, 1], [-1, 0], [0, -1]])


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
            pts = reach_set(GOLDEN_PAIR, 1, xs[k]).points
            hull = ConvexHull(pts)
            normals = hull.equations[:, :-1]
            offsets = -hull.equations[:, -1]
            oracle = float(np.min(offsets / vector_norms(normals,
                                                         dual_kind(NormKind.L2))))
            assert vals[k] == pytest.approx(oracle, rel=1e-9, abs=1e-12)

    def test_argmin_attains_sampled_inf(self):
        est = chi_measure(GOLDEN_PAIR, 1, NormKind.L2, 0.02)
        pts = reach_set(GOLDEN_PAIR, 1, est.argmin).points
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
            rx = inscribed_radius(reach_set(GOLDEN_PAIR, 1, x).points, NormKind.L2)
            ry = inscribed_radius(reach_set(GOLDEN_PAIR, 1, y).points, NormKind.L2)
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

    def test_dim_4_needs_fallback(self):
        ms = MatrixSet.from_arrays([np.eye(4)])
        with pytest.raises(UnsupportedDimensionError):
            chi_measure(ms, 3, NormKind.L2, 0.1)
        est = chi_measure(ms, 3, NormKind.L2, 0.1, sampling_fallback=True)
        assert est.certified_lower == 0.0

    @pytest.mark.parametrize("mesh, message", [
        (1e-9, "needs more than"), (5e-324, "needs more than"),
        (np.nan, "positive and finite"), (np.inf, "positive and finite")])
    def test_fallback_direction_count_is_checked_first(self, mesh, message):
        ms = MatrixSet.from_arrays([np.eye(4)])
        with pytest.raises(ValueError, match=message):
            chi_measure(ms, 1, NormKind.L2, mesh, sampling_fallback=True)

    def test_fallback_reports_the_measure_constants(self, rng):
        ms = random_set(rng, 4, 2)
        est = chi_measure(ms, 2, NormKind.L1, 0.5, sampling_fallback=True)
        prods = reach_products(ms, 2)
        assert est.lipschitz == 2.0 * max(
            operator_norm(g, NormKind.L1) for g in prods)
        # the sampled value is the support estimate at the reported argmin
        dirs = halton_directions(4, 130)  # 10 per step of the mesh circle
        assert est.samples == dirs.shape[0]
        pts = prods @ est.argmin
        assert est.sampled_inf == support_radius_upper(pts, NormKind.L1, dirs)
        assert vector_norms(est.argmin, NormKind.L1) == pytest.approx(1.0)

    @pytest.mark.parametrize("d", [4, 5])
    @pytest.mark.parametrize("kind", list(NormKind))
    @pytest.mark.parametrize("batch_floats", [1, 5000, 1 << 16])
    def test_batched_fallback_matches_a_point_loop(self, d, kind,
                                                   batch_floats, monkeypatch):
        """The batched sampled estimate equals one support evaluation per
        point, the first point winning ties, in every batch size (one
        point per batch, batches ending mid-net, the whole net)."""
        monkeypatch.setattr("jsrbound.irreducibility._SAMPLED_FLOATS",
                            batch_floats)
        rng = np.random.default_rng([d, len(kind.value)])
        scale = 10.0 ** rng.uniform(-3.0, 3.0)
        cases = [(random_set(rng, d, 2, scale), 2, 0.3),
                 (random_set(rng, d, 3), 1, 0.5),
                 # tied values at every point: the first point must win
                 (MatrixSet.from_arrays([np.eye(d)]), 1, 0.5)]
        for ms, p, mesh in cases:
            est = chi_measure(ms, p, kind, mesh, sampling_fallback=True)
            prods = reach_products(ms, p)
            dirs = halton_directions(d, max(64, int(np.ceil(2.0 * np.pi
                                                            / mesh)) * 10))
            xs = dirs / vector_norms(dirs, kind)[:, None]
            best, argmin = np.inf, None
            for x in xs:
                pts = prods @ x
                val = support_radius_upper(pts, kind, dirs)
                if val < best:
                    best, argmin = val, x
            assert est.sampled_inf == best
            assert est.argmin.tobytes() == argmin.tobytes()
            assert est.samples == xs.shape[0]

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

    @pytest.mark.parametrize("tolerance", [np.nan, np.inf, -1e-6])
    def test_bad_tolerance_rejected(self, tolerance):
        with pytest.raises(ValueError, match="tolerance must be non-negative "
                           f"and finite, got {tolerance}"):
            lemma1_crosscheck(QUARTER_TURN, 1, NormKind.L2, 0.05,
                              tolerance=tolerance)

    def test_report_dict(self):
        doc = lemma1_crosscheck(QUARTER_TURN, 1, NormKind.L2, 0.05).to_dict()
        assert set(doc) == {"irreducible", "rank", "status", "chi", "agreement"}

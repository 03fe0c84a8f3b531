from __future__ import annotations

import dataclasses
import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.spatial import ConvexHull

import jsrbound.geometry as geometry
from jsrbound import (
    MatrixSet,
    NormKind,
    UnsupportedDimensionError,
    chi_measure,
    inscribed_radius,
    reach_products,
    sphere_net,
)
from jsrbound.geometry import (
    _LEVEL9_RADIUS,
    _LEVEL_RADII,
    MAX_NET_POINTS,
    _candidate_count,
    _icosahedron,
    _icosphere_levels,
    dual_kind,
    kind_normalize,
    radius_profile,
    vector_norms,
)

DIAMOND = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])


def _sym(points: np.ndarray) -> np.ndarray:
    return np.vstack([points, -points])


def _hull_oracle(points: np.ndarray, kind: NormKind) -> float:
    """Inscribed radius straight from qhull facet equations."""
    hull = ConvexHull(points)
    normals = hull.equations[:, :-1]
    offsets = -hull.equations[:, -1]
    dual = vector_norms(normals, dual_kind(kind))
    return float(np.min(offsets / dual))


class TestInscribedRadius:
    def test_diamond_l2(self):
        assert inscribed_radius(DIAMOND, NormKind.L2) == pytest.approx(
            np.sqrt(2) / 2
        )

    def test_diamond_l1(self):
        # the hull IS the unit l1 ball
        assert inscribed_radius(DIAMOND, NormKind.L1) == pytest.approx(1.0)

    def test_diamond_linf(self):
        # square with corners (t, t) touches |x|+|y| = 1 at t = 1/2
        assert inscribed_radius(DIAMOND, NormKind.LINF) == pytest.approx(0.5)

    def test_segment_is_flat(self):
        seg = np.array([[1.0, 0.0], [-1.0, 0.0]])
        for kind in NormKind:
            assert inscribed_radius(seg, kind) == 0.0

    def test_one_dimensional(self):
        pts = np.array([[2.0], [-2.0], [0.5], [-0.5]])
        assert inscribed_radius(pts, NormKind.L2) == 2.0

    def test_octahedron(self):
        pts = _sym(np.eye(3))
        assert inscribed_radius(pts, NormKind.L2) == pytest.approx(1 / np.sqrt(3))
        assert inscribed_radius(pts, NormKind.L1) == pytest.approx(1.0)
        assert inscribed_radius(pts, NormKind.LINF) == pytest.approx(1 / 3)

    def test_cube(self):
        corners = np.array(
            [[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)],
            dtype=float,
        )
        assert inscribed_radius(corners, NormKind.L2) == pytest.approx(1.0)
        assert inscribed_radius(corners, NormKind.LINF) == pytest.approx(1.0)

    def test_flat_hull_3d(self):
        pts = _sym(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
        assert inscribed_radius(pts, NormKind.L2) == 0.0

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            inscribed_radius(np.array([[1.0, 0.0], [0.0, 1.0]]), NormKind.L2)

    @pytest.mark.parametrize("block_floats", [1, 24, 2 ** 16])
    def test_symmetry_verdict_is_the_per_point_one(self, monkeypatch, rng,
                                                   block_floats):
        # Pairwise sums taken a block of rows at a time, blocks of one
        # row up to all rows, against one check per point.
        monkeypatch.setattr("jsrbound.oracle._SYMMETRY_BLOCK_FLOATS",
                            block_floats)

        def symmetric(pts):
            tol = 1e-9 * (1.0 + float(np.max(np.abs(pts))))
            return not any(np.min(vector_norms(pts + p, NormKind.LINF))
                           > tol for p in pts)

        for d in (1, 2, 3):
            sym = _sym(rng.normal(size=(7, d)))
            cases = [sym, sym[1:], np.vstack([sym, sym[:1] + 1e-3]),
                     np.vstack([sym[:1] + 1e-3, sym])]
            for pts in cases:
                if symmetric(pts):
                    inscribed_radius(pts, NormKind.L1)
                else:
                    with pytest.raises(ValueError, match="symmetric"):
                        inscribed_radius(pts, NormKind.L1)

    def test_dim_4_unsupported(self):
        pts = _sym(np.eye(4))
        with pytest.raises(UnsupportedDimensionError):
            inscribed_radius(pts, NormKind.L2)

    def test_matches_qhull_oracle_2d(self, rng):
        for _ in range(20):
            pts = _sym(rng.normal(size=(5, 2)))
            for kind in NormKind:
                assert inscribed_radius(pts, kind) == pytest.approx(
                    _hull_oracle(pts, kind), rel=1e-10, abs=1e-12
                )

    def test_matches_qhull_oracle_3d(self, rng):
        for _ in range(10):
            pts = _sym(rng.normal(size=(6, 3)))
            for kind in NormKind:
                assert inscribed_radius(pts, kind) == pytest.approx(
                    _hull_oracle(pts, kind), rel=1e-10, abs=1e-12
                )


class TestRadiusProfile:
    def test_agrees_with_per_point_hulls(self, rng):
        # the vectorized profile and the facet route must agree exactly
        for d in (2, 3):
            prods = rng.normal(size=(4, d, d))
            xs = kind_normalize(rng.normal(size=(40, d)), NormKind.L2)
            vals = radius_profile(prods, xs, NormKind.L2)
            for k in range(0, 40, 7):
                pts = _sym(prods @ xs[k])
                assert vals[k] == pytest.approx(
                    inscribed_radius(pts, NormKind.L2), rel=1e-10, abs=1e-12
                )

    def test_all_kinds(self, rng):
        prods = rng.normal(size=(3, 2, 2))
        xs = kind_normalize(rng.normal(size=(15, 2)), NormKind.L1)
        for kind in NormKind:
            vals = radius_profile(prods, xs, kind)
            for k in (0, 7, 14):
                pts = _sym(prods @ xs[k])
                assert vals[k] == pytest.approx(
                    inscribed_radius(pts, kind), rel=1e-10, abs=1e-12
                )


def _einsum_profile(prods: np.ndarray, xs: np.ndarray,
                    kind: NormKind) -> np.ndarray:
    """The candidate sweep written with einsum and np.cross, one block."""
    pts = np.einsum("mab,sb->sma", prods, xs)
    s, m, d = pts.shape
    if d == 1:
        return np.max(np.abs(pts[..., 0]), axis=1)
    if m < d:
        return np.zeros(s)
    signs = list(itertools.product((1.0, -1.0), repeat=d - 1))
    subsets = list(itertools.combinations(range(m), d))
    idx = np.array([c for c in subsets for _ in signs])
    sgn = np.array([sg for _ in subsets for sg in signs])
    base = pts[:, idx[:, 0], :]
    edges = [sgn[None, :, k, None] * pts[:, idx[:, k + 1], :] - base
             for k in range(d - 1)]
    if d == 2:
        normals = np.stack([edges[0][..., 1], -edges[0][..., 0]], axis=-1)
    else:
        normals = np.cross(edges[0], edges[1])
    support = np.zeros(normals.shape[:2])
    for i in range(m):
        np.maximum(support, np.abs(np.einsum("sca,sa->sc", normals,
                                             pts[:, i, :])), out=support)
    duals = vector_norms(normals, dual_kind(kind))
    scale = np.max(np.abs(pts), axis=(1, 2))
    floor = 1e-13 * np.maximum(scale, 1e-300) ** (d - 1)
    ratios = np.where(duals > floor[:, None],
                      support / np.where(duals > 0, duals, 1.0), np.inf)
    out = np.min(ratios, axis=1)
    return np.where(np.isfinite(out), out, 0.0)


class TestRadiusBlocks:
    """Each radius depends on its own row only, in every block layout."""

    def _case(self, rng, d, kind, m=5, s=24):
        prods = rng.normal(size=(m, d, d))
        prods[0] = np.eye(d)
        xs = kind_normalize(rng.normal(size=(s, d)), kind)
        xs[3] = xs[2]  # a repeated row
        return prods, xs

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("kind", list(NormKind))
    def test_rows_match_one_row_calls(self, d, kind, rng):
        prods, xs = self._case(rng, d, kind)
        vals = radius_profile(prods, xs, kind)
        for i in range(xs.shape[0]):
            one = radius_profile(prods, xs[i:i + 1], kind)
            assert one.tobytes() == vals[i:i + 1].tobytes()

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("kind", list(NormKind))
    def test_tiny_blocks_match_einsum_sweep(self, d, kind, rng,
                                            small_radius_blocks):
        prods, xs = self._case(rng, d, kind)
        vals = radius_profile(prods, xs, kind)
        assert vals.tobytes() == _einsum_profile(prods, xs, kind).tobytes()
        for i in (0, 2, 3, xs.shape[0] - 1):
            one = radius_profile(prods, xs[i:i + 1], kind)
            assert one.tobytes() == vals[i:i + 1].tobytes()

    @pytest.mark.parametrize("d", [2, 3])
    def test_default_blocks_match_einsum_sweep(self, d, rng):
        # m = 9 splits a 3-d net into several blocks at the default size
        prods, xs = self._case(rng, d, NormKind.L2, m=9, s=1200)
        for kind in NormKind:
            assert radius_profile(prods, xs, kind).tobytes() == \
                _einsum_profile(prods, xs, kind).tobytes()

    def test_flat_and_scaled_points(self, rng):
        # zero rows, a rank-one stack and extreme scales take the same path
        for d, scale in itertools.product((2, 3), (1e-60, 1e60)):
            prods = rng.normal(size=(4, d, d)) * scale
            prods[1] = np.outer(rng.normal(size=d), rng.normal(size=d))
            prods[2] = 0.0
            xs = kind_normalize(rng.normal(size=(10, d)), NormKind.L2)
            for kind in NormKind:
                assert radius_profile(prods, xs, kind).tobytes() == \
                    _einsum_profile(prods, xs, kind).tobytes()


@pytest.fixture(params=["default blocks", "tiny blocks"])
def blocks(request):
    """radius_profile's default block size, or 64 floats a block."""
    if request.param == "tiny blocks":
        request.getfixturevalue("small_radius_blocks")


def _rotation(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


class TestScreenedSweep:
    """The 2-d sweep, screened by the prune of each row to its possible
    hull vertices from _PRUNE_MIN_POINTS[2] products on, gives the full
    sweep's bits on these sets (m from 3 to 60), in every block layout."""

    @staticmethod
    def _match(prods, xs, kind):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals = radius_profile(prods, xs, kind)
        assert vals.tobytes() == _einsum_profile(prods, xs, kind).tobytes()
        return vals

    @pytest.mark.parametrize("kind", list(NormKind))
    def test_random_sets(self, kind, rng, blocks):
        for _ in range(100):
            m = int(rng.integers(3, 61))
            prods = rng.uniform(-1.0, 1.0, size=(m, 2, 2))
            self._match(prods, kind_normalize(rng.normal(size=(6, 2)), kind),
                        kind)

    @pytest.mark.parametrize("kind", list(NormKind))
    def test_tied_candidates(self, kind, rng, blocks):
        xs = kind_normalize(rng.normal(size=(6, 2)), kind)
        # Quarter turns, each repeated: every usable candidate is a side of
        # the same square and ties with the others.
        square = np.stack([_rotation(np.pi / 2 * (k % 4)) for k in range(16)])
        # Turns by k pi / 20: the points form a regular 40-gon, whose
        # sides tie.
        polygon = np.stack([_rotation(np.pi * k / 20) for k in range(20)])
        for prods in (square, polygon):
            assert np.all(self._match(prods, xs, kind) > 0.0)

    @pytest.mark.parametrize("kind", list(NormKind))
    def test_collinear_points(self, kind, rng, blocks):
        """Products A + t B put each row's points on one line, off the
        origin: the edges along it tie, and the points between its ends
        lie on the hull boundary."""
        xs = kind_normalize(rng.normal(size=(6, 2)), kind)
        a, b = rng.uniform(-1.0, 1.0, size=(2, 2, 2))
        for m in (3, 12, 40, 60):
            t = np.concatenate([[-1.0, 1.0], rng.uniform(-1.0, 1.0, m - 2)])
            line = a + t[:, None, None] * b
            assert np.all(self._match(line, xs, kind) > 0.0)
            # Quarter steps: repeated points and exact midpoints.
            self._match(a + np.round(4.0 * t)[:, None, None] / 4.0 * b, xs,
                        kind)

    @pytest.mark.parametrize("kind", list(NormKind))
    def test_repeated_zero_and_rank_one_products(self, kind, rng, blocks):
        for m in (10, 12, 25, 40, 60):
            prods = rng.uniform(-1.0, 1.0, size=(m, 2, 2))
            prods[1] = prods[0]
            prods[5:8] = prods[2]
            prods[3] = 0.0
            prods[4] = np.outer(rng.normal(size=2), rng.normal(size=2))
            prods[9] = np.outer(rng.normal(size=2), rng.normal(size=2))
            self._match(prods, kind_normalize(rng.normal(size=(6, 2)), kind),
                        kind)

    @pytest.mark.parametrize("kind", list(NormKind))
    def test_flat_rows_read_zero(self, kind, rng, blocks):
        # Rank-one products with one image and one kernel: every row is
        # flat (y = 2x exactly), and the row along the kernel has all its
        # points at 0.
        u, v = np.array([1.0, 2.0]), np.array([1.0, 1.0])
        prods = np.stack([np.outer(u * w, v) for w in rng.normal(size=20)])
        xs = kind_normalize(np.vstack([rng.normal(size=(4, 2)),
                                       [[1.0, -1.0]]]), kind)
        assert np.all(self._match(prods, xs, kind) == 0.0)
        # One full-rank product more: the kernel row alone stays flat.
        prods = np.concatenate([prods, [np.eye(2)]])
        vals = self._match(prods, xs, kind)
        assert vals[-1] == 0.0 and np.all(vals[:-1] > 0.0)

    @pytest.mark.parametrize("kind", list(NormKind))
    @pytest.mark.parametrize("k", [-400, 400])
    def test_power_of_two_scales(self, kind, k, rng, blocks):
        for m in (3, 12, 40, 60):
            prods = rng.uniform(-1.0, 1.0, size=(m, 2, 2))
            xs = kind_normalize(rng.normal(size=(6, 2)), kind)
            scaled = self._match(np.ldexp(prods, k), xs, kind)
            assert scaled.tobytes() == \
                np.ldexp(radius_profile(prods, xs, kind), k).tobytes()


def _ulps_apart(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rows whose floats differ in any bit (0.0 and -0.0 included)."""
    return np.flatnonzero(a.view(np.int64) != b.view(np.int64))


def _every_point_mask(planes: np.ndarray, kind: NormKind) -> np.ndarray:
    """The drop test of ``_kept_points`` taken on every point, the pilot
    points included."""
    d = planes.shape[0]
    pilot = np.take_along_axis(planes, geometry._pilot(planes)[None], axis=2)
    normals = geometry._normals(pilot)
    scale = np.max(np.abs(planes), axis=(0, 2))
    duals = geometry._plane_norms(normals, dual_kind(kind))
    usable = duals > geometry._DEGENERATE_REL * np.maximum(
        scale, 1e-300)[:, None] ** (d - 1)
    hull = geometry._supports(normals, pilot)
    ratios = np.full_like(hull, np.inf)
    np.divide(hull, duals, out=ratios, where=usable)
    inradius = np.min(ratios, axis=1)
    pruned = np.isfinite(inradius) & (
        inradius > geometry._PRUNE_INRADIUS * scale)
    cut = np.where(usable, (1.0 - geometry._PRUNE_MARGIN) * hull, np.inf)
    keep = np.any(geometry._abs_dots(normals, planes) >= cut[:, None, :],
                  axis=2)
    keep[~pruned] = True
    return keep


# Numbers of products m that random sets of TestPrunedSweep draw from, by
# dimension; both ranges straddle _PRUNE_MIN_POINTS[d].
_PRUNED_SIZES = {2: (3, 61), 3: (8, 28)}


class TestPrunedSweep:
    """The sweep on the points ``_kept_points`` keeps gives the full
    sweep's bits, but for ties, which may lie above it by at most 2^-32
    times the row's largest |coordinate|; every row that differs is
    printed.  Qhull agrees with every row."""

    @staticmethod
    def _match(prods, xs, kind):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals = radius_profile(prods, xs, kind)
        full = _einsum_profile(prods, xs, kind)
        pts = np.einsum("mab,sb->sma", prods, xs)
        scale = np.max(np.abs(pts), axis=(1, 2))
        for i in _ulps_apart(vals, full):
            print(f"m={prods.shape[0]} {kind.value} row {i}: pruned "
                  f"{vals[i].hex()}, full {full[i].hex()}")
            assert full[i] <= vals[i] <= full[i] + 2.0 ** -32 * scale[i]
        for i, row in enumerate(pts):
            assert vals[i] == pytest.approx(inscribed_radius(_sym(row), kind),
                                            rel=1e-9, abs=1e-12 * scale[i])
        return vals

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("kind", list(NormKind))
    def test_random_sets(self, d, kind, rng, blocks):
        for _ in range(100):
            m = int(rng.integers(*_PRUNED_SIZES[d]))
            prods = rng.uniform(-1.0, 1.0, size=(m, d, d))
            self._match(prods, kind_normalize(rng.normal(size=(6, d)), kind),
                        kind)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("kind", list(NormKind))
    def test_pilot_points_pass_the_drop_test(self, d, kind, rng):
        """_kept_points keeps the pilot points without retaking their
        dots: on the sets of test_random_sets its mask equals the one that
        tests every point against every usable pilot normal."""
        for _ in range(100):
            m = int(rng.integers(*_PRUNED_SIZES[d]))
            prods = rng.uniform(-1.0, 1.0, size=(m, d, d))
            planes = geometry._planes(
                prods, kind_normalize(rng.normal(size=(6, d)), kind))
            assert np.array_equal(geometry._kept_points(planes, kind),
                                  _every_point_mask(planes, kind))

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("kind", list(NormKind))
    def test_rows_match_one_row_calls(self, d, kind, rng, blocks):
        m = geometry._PRUNE_MIN_POINTS[d] + 3
        prods = rng.uniform(-1.0, 1.0, size=(m, d, d))
        xs = kind_normalize(rng.normal(size=(40, d)), kind)
        xs[3] = xs[2]
        vals = self._match(prods, xs, kind)
        for i in range(xs.shape[0]):
            one = radius_profile(prods, xs[i:i + 1], kind)
            assert one.tobytes() == vals[i:i + 1].tobytes()

    @pytest.mark.parametrize("kind", list(NormKind))
    def test_coplanar_and_collinear_stacks(self, kind, rng, blocks):
        xs = kind_normalize(rng.normal(size=(6, 3)), kind)
        # Every image in the plane z = 0: every row is flat.
        plane = rng.uniform(-1.0, 1.0, size=(14, 3, 3))
        plane[:, 2, :] = 0.0
        assert np.all(self._match(plane, xs, kind) == 0.0)
        # One image line: every row is flat.
        u = rng.normal(size=3)
        line = np.stack([np.outer(u * w, rng.normal(size=3))
                         for w in rng.normal(size=12)])
        assert np.all(self._match(line, xs, kind) == 0.0)
        # The plane and one full-rank product: no row is flat.
        vals = self._match(np.concatenate([plane, [np.eye(3)]]), xs, kind)
        assert np.all(vals > 0.0)

    @pytest.mark.parametrize("kind", list(NormKind))
    def test_flat_and_thin_pilots_keep_every_point(self, kind, rng, blocks):
        """Two large products in the plane z = 0 hold every pilot
        direction's maximizer (a flat pilot), and a set squashed along z
        to 1e-6 has a pilot thinner than 2^-12 of its scale: those rows
        keep all their points."""
        turn = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        small = 0.05 * rng.uniform(-1.0, 1.0, size=(12, 3, 3))
        flat = np.concatenate([[8.0 * np.diag([1.0, 1.0, 0.0]), 8.0 * turn],
                               small])
        thin = rng.uniform(-1.0, 1.0, size=(14, 3, 3))
        thin[:, 2, :] *= 1e-6
        xs = kind_normalize(rng.normal(size=(6, 3)) * [1.0, 1.0, 0.3], kind)
        for prods in (flat, thin):
            keep = geometry._kept_points(geometry._planes(prods, xs), kind)
            assert np.all(keep)
            assert np.all(self._match(prods, xs, kind) > 0.0)

    @pytest.mark.parametrize("kind", list(NormKind))
    def test_repeated_zero_and_rank_one_products(self, kind, rng, blocks):
        for m in (10, 13, 27):
            prods = rng.uniform(-1.0, 1.0, size=(m, 3, 3))
            prods[1] = prods[0]
            prods[5:8] = prods[2]
            prods[3] = 0.0
            prods[4] = np.outer(rng.normal(size=3), rng.normal(size=3))
            prods[9] = np.outer(rng.normal(size=3), rng.normal(size=3))
            self._match(prods, kind_normalize(rng.normal(size=(6, 3)), kind),
                        kind)

    @pytest.mark.parametrize("kind", list(NormKind))
    def test_tied_candidates(self, kind, rng, blocks):
        """The 24 rotations of the cube and their halves: the inner points
        span planes parallel to the facets, whose exact ratios tie."""
        turns = np.stack([np.diag(signs)[list(perm)]
                          for perm in itertools.permutations(range(3))
                          for signs in itertools.product((1.0, -1.0),
                                                         repeat=3)])
        rotations = turns[np.linalg.det(turns) > 0.0]
        xs = kind_normalize(np.vstack([rng.normal(size=(5, 3)),
                                       [[1.0, 2.0, 3.0]]]), kind)
        for prods in (rotations[:12], np.concatenate([rotations,
                                                      0.5 * rotations])):
            self._match(prods, xs, kind)

    @pytest.mark.parametrize("kind, mats, x", [
        (NormKind.LINF, [[[-2, 1, 0], [0, -1, 1], [0, 1, -1]],
                         [[-2, 2, 0], [-2, 1, -2], [-2, 2, -2]],
                         [[2, -1, -1], [2, -1, -1], [-2, -2, -2]]],
         [-0.5189677834832932, -0.039839530234178924, -1.0]),
        (NormKind.L2, [[[0, 0, 0], [-2, 0, -1], [1, -2, 0]],
                       [[1, -1, 0], [-1, -1, -1], [-2, 1, -2]],
                       [[1, 1, 0], [2, -1, -2], [-1, 0, 2]]],
         [0.7049902214029036, 0.21285924981036608, 0.6765203082660957]),
        (NormKind.L1, [[[-2, 1, 1], [-2, 2, 1], [-2, 1, -2]],
                       [[2, 1, 0], [0, 1, 0], [1, 1, -1]],
                       [[0, -1, 2], [0, 1, 0], [1, -2, 1]]],
         [-0.059574390815605636, 0.3045838477063618, 0.6358417614780324]),
    ])
    def test_integer_sets(self, kind, mats, x, rng, blocks):
        """Products of integer matrices (m = 13 at p = 2) tie often; at
        these points a dropped candidate rounds a last bit below the kept
        ones (a random search found 17 such rows in 155,340)."""
        prods = reach_products(MatrixSet.from_arrays(np.array(mats, float)),
                               2)
        xs = np.vstack([[x], kind_normalize(rng.normal(size=(5, 3)), kind)])
        self._match(prods, xs, kind)

    @pytest.mark.parametrize("kind", list(NormKind))
    @pytest.mark.parametrize("k", [-400, 400])
    def test_power_of_two_scales(self, kind, k, rng, blocks):
        for m in (13, 27):
            prods = rng.uniform(-1.0, 1.0, size=(m, 3, 3))
            xs = kind_normalize(rng.normal(size=(6, 3)), kind)
            plain = self._match(prods, xs, kind)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                scaled = radius_profile(np.ldexp(prods, k), xs, kind)
            assert scaled.tobytes() == np.ldexp(plain, k).tobytes()


class TestPruneWork:
    def test_few_normals_are_formed(self, monkeypatch):
        """On the 3-member set of the benchmark's chi workload at p = 2
        (m = 13) and the 642-point icosphere, fewer than 25% of the
        4 C(13,3) candidate normals per point are formed, the pilot's
        included, and the values are the full sweep's."""
        mats = np.random.default_rng([20260101, 2, 4]).uniform(
            -1.0, 1.0, (3, 3, 3))
        prods = reach_products(MatrixSet.from_arrays(mats), 2)
        xs = sphere_net(3, NormKind.L2, 0.1)
        formed = []
        normals_3d = getattr(geometry, "_normals_3d", None)

        def counted(planes):
            normals = normals_3d(planes)
            formed.append(normals.shape[1] * normals.shape[2])
            return normals

        monkeypatch.setattr(geometry, "_normals_3d", counted, raising=False)
        vals = radius_profile(prods, xs, NormKind.L2)
        assert prods.shape[0] == 13 and xs.shape[0] == 642
        assert 0 < sum(formed) < 0.25 * xs.shape[0] * _candidate_count(13, 3)
        assert vals.tobytes() == \
            _einsum_profile(prods, xs, NormKind.L2).tobytes()

    @pytest.mark.parametrize("kind", list(NormKind))
    def test_few_planar_normals_are_formed(self, kind, monkeypatch):
        """On the 3-member set of the benchmark's chi workload at p = 3
        (m = 40) and the circle nets at mesh 0.01, fewer than 10% of the
        2 C(40,2) candidate normals per point are formed, the pilot's
        included, and the values are the full sweep's."""
        mats = np.random.default_rng([20260101, 2, 3]).uniform(
            -1.0, 1.0, (3, 2, 2))
        prods = reach_products(MatrixSet.from_arrays(mats), 3)
        xs = sphere_net(2, kind, 0.01)
        formed = []
        normals_2d = getattr(geometry, "_normals_2d", None)

        def counted(planes):
            normals = normals_2d(planes)
            formed.append(normals.shape[1] * normals.shape[2])
            return normals

        monkeypatch.setattr(geometry, "_normals_2d", counted, raising=False)
        vals = radius_profile(prods, xs, kind)
        assert prods.shape[0] == 40
        assert 0 < sum(formed) < 0.1 * xs.shape[0] * _candidate_count(40, 2)
        assert vals.tobytes() == _einsum_profile(prods, xs, kind).tobytes()


class TestEvenRadius:
    """r(-x) = r(x) to the bit: the planes of -x are those of x negated,
    and every value takes |.| of them.  chi_measure copies the value of
    a net point to its antipode on this ground."""

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("kind", list(NormKind))
    def test_negated_points_give_the_same_bits(self, d, kind, rng):
        # m from 2 to twice _PRUNE_MIN_POINTS[d]: rows are pruned from it.
        for k in range(100):
            m = int(rng.integers(2, 2 * geometry._PRUNE_MIN_POINTS[d] + 1))
            prods = rng.uniform(-1.0, 1.0, size=(m, d, d))
            if k % 4 == 1:
                prods[0] = 0.0
                prods[-1] = np.outer(rng.normal(size=d), rng.normal(size=d))
            if k % 4 == 2:
                prods = np.ldexp(prods, 400 if k % 8 == 2 else -400)
            xs = kind_normalize(rng.normal(size=(6, d)), kind)
            xs[5, 0] = 0.0
            assert radius_profile(prods, -xs, kind).tobytes() == \
                radius_profile(prods, xs, kind).tobytes()

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("kind", list(NormKind))
    def test_signs_of_zero_coordinates_are_not_read(self, d, kind, rng):
        """Points with zero coordinates, each zero flipped to -0.0, give
        the same bits, and so does their negation with its zeros made
        +0.0: chi_measure pairs antipodes up to the sign of zero.  The
        products have zero entries too, so that planes hold zeros."""
        cut = geometry._PRUNE_MIN_POINTS[d]
        for k in range(60):
            # m below the prune threshold in even rounds, above in odd.
            m = int(rng.integers(*((2, cut) if k % 2 == 0
                                   else (cut, 2 * cut + 1))))
            prods = rng.uniform(-1.0, 1.0, size=(m, d, d))
            if k % 3 == 1:
                prods[rng.uniform(size=prods.shape) < 0.4] = 0.0
            if k % 4 >= 2:
                prods = np.ldexp(prods, 400 if k % 8 < 4 else -400)
            xs = kind_normalize(rng.normal(size=(12, d)), kind)
            for row, axes in enumerate(itertools.chain.from_iterable(
                    itertools.combinations(range(d), j) for j in range(1, d))):
                xs[row, list(axes)] = 0.0
                xs[row] = kind_normalize(xs[row], kind)
            flipped = np.where(xs == 0.0, -0.0, xs)
            assert np.signbit(flipped[xs == 0.0]).all()
            want = radius_profile(prods, xs, kind).tobytes()
            assert radius_profile(prods, flipped, kind).tobytes() == want
            assert radius_profile(prods, -xs + 0.0, kind).tobytes() == want


def _sorted_antipodes(xs: np.ndarray) -> np.ndarray:
    """The reference antipode table: the rows, after x + 0.0, sorted as
    byte strings, and each negated row looked up among them."""
    n, d = xs.shape
    row = np.dtype((np.void, xs.itemsize * d))
    keys = (xs + 0.0).view(row).ravel()
    order = np.argsort(keys)
    ranked = keys[order]
    wanted = (-xs + 0.0).view(row).ravel()
    at = np.minimum(np.searchsorted(ranked, wanted), n - 1)
    return np.where(ranked[at] == wanted, order[at], -1).astype(np.int32)


def _unique_subdivide(verts: np.ndarray, faces: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The reference icosphere subdivision: np.unique over the keys of
    all 3F directed edges, and the faces of every level."""
    n = verts.shape[0]
    edges = np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]],
                            faces[:, [2, 0]]], axis=0)
    edges = np.sort(edges, axis=1)
    keys = edges[:, 0] * n + edges[:, 1]
    uniq, inverse = np.unique(keys, return_inverse=True)
    ends = np.stack([uniq // n, uniq % n])
    mids = verts[ends[0]] + verts[ends[1]]
    mids /= np.linalg.norm(mids, axis=1)[:, None]
    ab, bc, ca = n + inverse.reshape(3, -1)
    new_faces = np.concatenate([
        np.stack([faces[:, 0], ab, ca], axis=1),
        np.stack([faces[:, 1], bc, ab], axis=1),
        np.stack([faces[:, 2], ca, bc], axis=1),
        np.stack([ab, bc, ca], axis=1),
    ], axis=0)
    return np.concatenate([verts, mids], axis=0), new_faces, ends


def _unique_icosphere(level: int) -> tuple[np.ndarray, np.ndarray, list]:
    """Points, coarse level and (new, left, right) levels of icosphere
    ``level`` by _unique_subdivide."""
    verts, faces = _icosahedron()
    levels = []
    for _ in range(level):
        start = verts.shape[0]
        verts, faces, (left, right) = _unique_subdivide(verts, faces)
        levels.append((np.arange(start, verts.shape[0]), left, right))
    return verts, np.arange(12), levels


def _circle_levels(n: int) -> tuple[np.ndarray, list]:
    """Coarse level and levels of a cyclic net of n points: stride the
    largest power of two leaving at least 12 points, halved a level, and
    point 0 the right parent past the last point."""
    stride = 1 << max(0, (n // 12).bit_length() - 1)
    coarse, levels = np.arange(0, n, stride), []
    while stride > 1:
        stride //= 2
        new = np.arange(stride, n, 2 * stride)
        right = np.where(new + stride < n, new + stride, 0)
        levels.append((new, new - stride, right))
    return coarse, levels


def _assert_net_is(net, kind: NormKind, points: np.ndarray,
                   coarse: np.ndarray, levels: list) -> None:
    """The net has these points and levels, the sorted antipode table and
    the parent gaps taken on all of a level's rows at once, by bytes."""
    assert net.points.tobytes() == points.tobytes()
    assert net.antipodes.dtype == np.int32
    assert net.antipodes.tobytes() == _sorted_antipodes(points).tobytes()
    assert net.coarse.tobytes() == coarse.tobytes()
    assert len(net.steps) == len(levels)
    for step, (new, left, right) in zip(net.steps, levels):
        want = (new, left, right, *(vector_norms(points[new] - points[q], kind)
                                    for q in (left, right)))
        assert [(a.dtype, a.tobytes()) for a in step] == \
            [(a.dtype, a.tobytes()) for a in want]


class TestNetsMatchTheSortedBuilds:
    """Each net, built from its construction, has the bits of the build
    that sorted its rows: np.unique over every directed icosphere edge,
    and the antipodes looked up among the rows sorted as byte strings."""

    @pytest.mark.parametrize("level", range(9))
    def test_icosphere_levels(self, level, monkeypatch):
        monkeypatch.setattr(geometry, "_icosphere_build", None)
        net = geometry._net_at.__wrapped__(3, NormKind.L2, level)
        _assert_net_is(net, NormKind.L2, *_unique_icosphere(level))

    def test_icosphere_level9(self, level9_icosphere):
        _assert_net_is(level9_icosphere[2], NormKind.L2, *_unique_icosphere(9))

    @pytest.mark.parametrize("kind", [NormKind.L1, NormKind.LINF])
    def test_polyhedral_grids(self, kind):
        for q in [*range(1, 61), 67, 100, 400]:
            net = geometry._net_at.__wrapped__(3, kind, q)
            points, (coarse, levels) = geometry._polyhedral_net(kind, q)
            _assert_net_is(net, kind, points, coarse, levels)

    @pytest.mark.parametrize("kind, size", [
        *((kind, size) for kind in (NormKind.L1, NormKind.LINF)
          for size in (1, 3, 50)),
        *((NormKind.L2, size) for size in (126, 315, 628, 629))])
    def test_planar_nets(self, kind, size):
        net = geometry._net_at.__wrapped__(2, kind, size)
        points = geometry._circle_net(kind, size)
        _assert_net_is(net, kind, points, *_circle_levels(points.shape[0]))

    def test_one_dimensional_net(self):
        net = geometry._net_at.__wrapped__(1, NormKind.L2, 1)
        _assert_net_is(net, NormKind.L2, np.array([[1.0], [-1.0]]),
                       np.arange(2), [])

    def test_each_edge_is_ascending_in_exactly_one_face(self):
        """The faces of levels 0..8 list each edge once in ascending
        order and once in descending order, which _subdivide relies on."""
        verts, faces = _icosahedron()
        for level in range(9):
            n = verts.shape[0]
            heads = faces[:, [1, 2, 0]]
            up = np.sort((faces * n + heads)[faces < heads])
            down = np.sort((heads * n + faces)[faces > heads])
            assert up.size == down.size == faces.size // 2
            assert np.array_equal(up, down) and np.all(np.diff(up) > 0)
            if level < 8:
                verts, faces, _ = geometry._subdivide(verts, faces, False)

    def test_icosphere_build_memory(self, monkeypatch):
        """Building the level-7 net (163,842 points) afresh allocates
        under 24 MiB at its peak: no last-level faces, no np.unique
        temporaries over the directed edges, gaps and antipodes taken in
        blocks."""
        monkeypatch.setattr(geometry, "_icosphere_build", None)
        tracemalloc.start()
        try:
            geometry._net_at.__wrapped__(3, NormKind.L2, 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2 ** 20


class TestAntipodes:
    @pytest.mark.parametrize("d, kind, mesh, pairs", [
        (3, NormKind.L2, 0.01, 163_842), (3, NormKind.L2, 0.1, 642),
        (3, NormKind.L1, 0.04, 10_002), (3, NormKind.LINF, 0.04, 15_002),
        (2, NormKind.L1, 0.02, 400), (2, NormKind.L2, 0.005, 0),
        (1, NormKind.L2, 0.1, 2)])
    def test_tables_match_the_nets(self, d, kind, mesh, pairs):
        """Antipodes up to the sign of zero: the points on the coordinate
        planes, which miss theirs by the sign of a zero, are paired too,
        so every point of the 3-d nets and the 2-d polygon is."""
        net = geometry._net(d, kind, mesh)
        xs, anti = net.points, net.antipodes
        paired = np.flatnonzero(anti >= 0)
        assert paired.size == pairs
        assert (-xs[paired] + 0.0).tobytes() == \
            (xs[anti[paired]] + 0.0).tobytes()
        rows = {(row + 0.0).tobytes() for row in xs}
        assert sum((-row + 0.0).tobytes() in rows for row in xs) == pairs
        assert not anti.flags.writeable

    def test_coarser_icosphere_levels_use_a_prefix(self):
        fine = geometry._net(3, NormKind.L2, 0.02).antipodes
        coarse = geometry._net(3, NormKind.L2, 0.1)
        xs = coarse.points
        assert coarse.antipodes.tobytes() == fine[:xs.shape[0]].tobytes()
        assert coarse.antipodes.tobytes() == _sorted_antipodes(xs).tobytes()

    @pytest.mark.parametrize("kind", [NormKind.L1, NormKind.LINF])
    def test_polyhedral_nets_are_cached_with_fresh_bits(self, kind):
        """sphere_net serves the cached build as a copy; the build and
        its antipode table are read-only, with the bits of a fresh one."""
        q = geometry._polyhedral_size(kind, 0.04)
        fresh = geometry._net_at.__wrapped__(3, kind, q)
        geometry._net_at(3, kind, q)
        before = geometry._net_at.cache_info()
        for _ in range(2):
            xs = sphere_net(3, kind, 0.04)
            assert xs.tobytes() == fresh.points.tobytes()
            assert xs.flags.writeable
            xs[0] = 0.0
        after = geometry._net_at.cache_info()
        assert (after.hits, after.misses) == (before.hits + 2, before.misses)
        cached = geometry._net_at(3, kind, q)
        assert cached.points.tobytes() == fresh.points.tobytes()
        assert cached.antipodes.tobytes() == fresh.antipodes.tobytes()
        assert not cached.points.flags.writeable


def _assert_nearest_corners(xs: np.ndarray, kind: NormKind, q: int,
                            wide: int, new: np.ndarray, left: np.ndarray,
                            right: np.ndarray) -> None:
    """Each point of xs[new] and its parents xs[left], xs[right] lie in a
    face of the grid at q that holds all three, where the parents are
    the two corners nearest to it in lattice distance (the largest
    |difference| of numerators) of its triangle of the grid at q / wide,
    in either order."""
    placed = np.zeros(new.size, dtype=bool)
    for tri in geometry._polyhedral_faces(kind):
        exact = [q * xs[v] @ np.linalg.inv(tri) for v in (new, left, right)]
        nums = [np.rint(a) for a in exact]
        held = np.all([np.all((np.abs(a - n) < 1e-9) & (n >= 0), axis=1)
                       for a, n in zip(exact, nums)], axis=0)
        point, *parents = (n[held] for n in nums)
        low = np.floor(point / wide) * wide
        up = np.sum(point - low, axis=1) == wide
        corners = np.where(up[:, None, None], low[:, None] + wide * np.eye(3),
                           low[:, None] + wide - wide * np.eye(3))
        far = np.max(np.abs(corners - point[:, None]), axis=2)
        picked = [np.all(corners == parent[:, None], axis=2)
                  for parent in parents]
        assert all(np.all(np.sum(p, axis=1) == 1) for p in picked)
        assert not np.any(picked[0] & picked[1])
        near = np.sort(far, axis=1)[:, :2]
        got = np.sort([far[p] for p in picked], axis=0).T
        assert np.array_equal(got, near)
        placed |= held
    assert placed.all()


class TestPolyhedralLevels:
    """The 3-d l1 and linf nets are walked through the grids at a divisor
    chain of q: halvings, then the odd part's least prime factors."""

    @pytest.mark.parametrize("kind", [NormKind.L1, NormKind.LINF])
    @pytest.mark.parametrize("q, divisions", [
        (4, (1, 2, 4)), (10, (5, 10)), (50, (5, 25, 50)),
        (100, (5, 25, 50, 100)), (25, (5, 25)), (67, (67,)),
        (45, (5, 15, 45)), (75, (5, 25, 75))])
    def test_levels_are_the_coarser_nets(self, kind, q, divisions):
        """Every point lies in one level; the levels up to each one are a
        fresh build at its q by bytes; each added point has two parents
        of coarser levels: at a halving step opposite neighbours at its
        level's spacing, at an odd-factor step the two nearest corners of
        its triangle of the coarser grid in a face that holds it."""
        net = geometry._net_at(3, kind, q)
        xs, coarse, steps = net.points, net.coarse, net.steps
        assert len(steps) == len(divisions) - 1
        every = np.concatenate([coarse, *(step[0] for step in steps)])
        assert np.array_equal(np.sort(every), np.arange(xs.shape[0]))
        assert all(a.dtype == np.int32 and not a.flags.writeable
                   for a in (coarse, *(v for step in steps for v in step[:3])))
        seen = np.zeros(xs.shape[0], dtype=bool)
        seen[coarse] = True
        for k, division in enumerate(divisions):
            if k:
                new, left, right, *_ = steps[k - 1]
                assert seen[left].all() and seen[right].all()
                if division == 2 * divisions[k - 1]:
                    for parent in (left, right):
                        step = vector_norms(xs[new] - xs[parent], kind)
                        assert np.allclose(step, 2.0 / division, rtol=0,
                                           atol=1e-15)
                    assert np.allclose(xs[left] + xs[right], 2.0 * xs[new],
                                       rtol=0, atol=1e-15)
                else:
                    _assert_nearest_corners(xs, kind, q,
                                            q // divisions[k - 1], new,
                                            left, right)
                seen[new] = True
            fresh = geometry._polyhedral_net(kind, division)[0]
            assert xs[seen].tobytes() == fresh.tobytes()

    @pytest.mark.parametrize("kind", [NormKind.L1, NormKind.LINF])
    def test_net_levels_serve_the_cached_table(self, kind):
        q = geometry._polyhedral_size(kind, 0.04)
        net = geometry._net(3, kind, 0.04)
        assert net is geometry._net_at(3, kind, q)
        _, (coarse, levels) = geometry._polyhedral_net(kind, q)
        assert net.coarse.tobytes() == coarse.tobytes()
        assert [[v.tobytes() for v in step[:3]] for step in net.steps] == \
            [[v.tobytes() for v in level] for level in levels]


# One net of each kind and dimension, walked by level in 2-d and 3-d.
_RECORD_NETS = [(1, NormKind.L2, 0.1), (2, NormKind.L2, 0.01),
                (2, NormKind.L1, 0.02), (2, NormKind.LINF, 0.02),
                (3, NormKind.L2, 0.05), (3, NormKind.L1, 0.1),
                (3, NormKind.LINF, 0.1)]


class TestNetRecord:
    """_net's record: read-only, cached, and its gaps the walk's."""

    @pytest.mark.parametrize("d, kind, mesh", _RECORD_NETS)
    def test_fields_are_read_only(self, d, kind, mesh):
        net = geometry._net(d, kind, mesh)
        with pytest.raises(dataclasses.FrozenInstanceError):
            net.points = net.points.copy()
        arrays = [net.points, net.antipodes, net.coarse,
                  *(v for step in net.steps for v in step)]
        assert all(len(step) == 5 for step in net.steps)
        assert bool(net.steps) == (d > 1)
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0

    @pytest.mark.parametrize("d, kind, mesh", _RECORD_NETS)
    def test_results_are_writable_copies(self, d, kind, mesh):
        """sphere_net's points have the record's bits, and neither they
        nor chi_measure's argmin share memory with it."""
        net = geometry._net(d, kind, mesh)
        xs = sphere_net(d, kind, mesh)
        assert xs.flags.writeable and not np.shares_memory(xs, net.points)
        assert xs.dtype == net.points.dtype and xs.shape == net.points.shape
        assert xs.tobytes() == net.points.tobytes()
        mats = np.random.default_rng([29, d]).uniform(-1.0, 1.0, (2, d, d))
        est = chi_measure(MatrixSet.from_arrays(mats), d - 1, kind, mesh)
        assert est.argmin.flags.writeable
        assert not np.shares_memory(est.argmin, net.points)

    @pytest.mark.parametrize("d, kind, mesh", _RECORD_NETS)
    def test_gaps_are_the_parent_distances(self, d, kind, mesh):
        net = geometry._net(d, kind, mesh)
        xs = net.points
        for new, left, right, left_gap, right_gap in net.steps:
            for parent, gap in ((left, left_gap), (right, right_gap)):
                assert gap.tobytes() == \
                    vector_norms(xs[new] - xs[parent], kind).tobytes()


class TestPlaneNorms:
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("kind", list(NormKind))
    def test_same_bits_as_vector_norms(self, d, kind, rng):
        vectors = rng.normal(size=(d, 20, 1560)) * np.exp2(
            rng.integers(-60, 60, size=(20, 1560)))
        vectors[:, 0, :7] = 0.0
        vectors[0, 1, :7] = -0.0
        assert geometry._plane_norms(vectors, kind).tobytes() == \
            vector_norms(np.moveaxis(vectors, 0, -1), kind).tobytes()


class TestRadiusScale:
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("kind", list(NormKind))
    @pytest.mark.parametrize("k", [-400, 400])
    def test_power_of_two_multiples_are_exact(self, d, kind, k, rng):
        prods = rng.normal(size=(5, d, d))
        prods[0] = np.eye(d)
        xs = kind_normalize(rng.normal(size=(40, d)), kind)
        plain = radius_profile(prods, xs, kind)
        assert np.all(plain > 0.0)
        assert radius_profile(np.ldexp(prods, k), xs, kind).tobytes() == \
            np.ldexp(plain, k).tobytes()


class TestSphereNet:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("kind", list(NormKind))
    def test_points_on_unit_sphere(self, d, kind):
        net = sphere_net(d, kind, 0.05)
        norms = vector_norms(net, kind)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("kind", list(NormKind))
    def test_covering_radius(self, d, kind, rng):
        mesh = 0.05
        net = sphere_net(d, kind, mesh)
        probes = kind_normalize(rng.normal(size=(2000, d)), kind)
        diffs = probes[:, None, :] - net[None, :, :]
        dists = vector_norms(diffs.reshape(-1, d), kind).reshape(2000, -1)
        assert dists.min(axis=1).max() <= mesh + 1e-9

    def test_d1_net(self):
        net = sphere_net(1, NormKind.L2, 0.5)
        assert sorted(net.ravel().tolist()) == [-1.0, 1.0]

    def test_mesh_must_be_positive(self):
        with pytest.raises(ValueError):
            sphere_net(2, NormKind.L2, 0.0)

    def test_dim_4_unsupported(self):
        with pytest.raises(UnsupportedDimensionError):
            sphere_net(4, NormKind.L2, 0.1)

    @pytest.mark.parametrize("mesh", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("kind", list(NormKind))
    def test_non_finite_mesh_rejected(self, d, kind, mesh):
        with pytest.raises(ValueError, match="positive and finite"):
            sphere_net(d, kind, mesh)

    @pytest.mark.parametrize("d, mesh", [(2, 1e-15), (2, 1e-320),
                                         (3, 1e-9), (3, 5e-324)])
    @pytest.mark.parametrize("kind", [NormKind.L1, NormKind.LINF])
    def test_oversized_polygon_nets_rejected(self, d, kind, mesh):
        with pytest.raises(ValueError, match="needs more than"):
            sphere_net(d, kind, mesh)

    @pytest.mark.parametrize("mesh", [1e-9, 5e-324, np.float64(1e-200), 0.001,
                                      np.nextafter(_LEVEL9_RADIUS, 0.0)])
    def test_impossible_icosphere_refused_before_building(self, mesh,
                                                          monkeypatch):
        """Below level 9's covering radius level 10 is needed, past the
        limit: no level is built."""
        def no_levels(verts, faces, last):
            raise AssertionError("an icosphere level was built")

        monkeypatch.setattr("jsrbound.geometry._subdivide", no_levels)
        with pytest.raises(ValueError, match="an icosphere at mesh .* needs "
                           "more than 4194304 points"):
            sphere_net(3, NormKind.L2, mesh)

    def test_level9_radius_is_the_built_one(self, level9_icosphere):
        verts, radii, _ = level9_icosphere
        assert verts.shape == (2_621_442, 3)
        assert len(radii) == 10
        assert radii[-1] == _LEVEL9_RADIUS

    def test_level_radii_are_the_built_ones(self, level9_icosphere):
        """Each tabulated radius is _covering_radius of its built level."""
        _, radii, _ = level9_icosphere
        assert _LEVEL_RADII == tuple(radii)

    def test_coarser_levels_are_prefixes_of_the_cached_build(self,
                                                             monkeypatch):
        """Levels 7, 3, 7 subdivide 7 times in all, and every level has
        the bits of a fresh build."""
        subdivide = geometry._subdivide
        fresh = {}
        for level in (3, 7):
            verts, faces = _icosahedron()
            ends = []
            for k in range(level):
                verts, faces, edge_ends = subdivide(verts, faces,
                                                    k == level - 1)
                ends.append(edge_ends)
            fresh[level] = [verts, *ends]
        calls = []

        def counted(verts, faces, last):
            calls.append(verts.shape[0])
            return subdivide(verts, faces, last)

        monkeypatch.setattr(geometry, "_icosphere_build", None)
        monkeypatch.setattr(geometry, "_subdivide", counted)
        for level in (7, 3, 7):
            verts, ends = _icosphere_levels(level)
            arrays = [verts, *ends]
            assert len(arrays) == len(fresh[level])
            for got, want in zip(arrays, fresh[level]):
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()
                assert not got.flags.writeable
        assert len(calls) == 7

    def test_limit_admits_the_finest_icosphere(self):
        # Level k of the icosphere has 10 * 4^k + 2 vertices; level 9 is
        # the finest that fits.
        assert 10 * 4 ** 9 + 2 <= MAX_NET_POINTS < 10 * 4 ** 10 + 2


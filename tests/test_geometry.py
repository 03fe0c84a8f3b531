from __future__ import annotations

import itertools

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from jsrbound import (
    NormKind,
    UnsupportedDimensionError,
    inscribed_radius,
    sphere_net,
    support_radius_upper,
)
import jsrbound.geometry as geometry_module
from jsrbound.geometry import (
    _LEVEL9_RADIUS,
    MAX_NET_POINTS,
    dual_kind,
    halton_directions,
    kind_normalize,
    radius_profile,
    refine_minimum,
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


class TestSupportUpper:
    def test_never_below_radius(self, rng):
        dirs2 = halton_directions(2, 200)
        dirs3 = halton_directions(3, 200)
        for _ in range(10):
            pts = _sym(rng.normal(size=(5, 2)))
            r = inscribed_radius(pts, NormKind.L2)
            assert support_radius_upper(pts, NormKind.L2, dirs2) >= r - 1e-12
            pts = _sym(rng.normal(size=(5, 3)))
            r = inscribed_radius(pts, NormKind.L2)
            assert support_radius_upper(pts, NormKind.L2, dirs3) >= r - 1e-12


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
        def no_levels(verts, faces):
            raise AssertionError("an icosphere level was built")

        monkeypatch.setattr("jsrbound.geometry._subdivide", no_levels)
        with pytest.raises(ValueError, match="an icosphere at mesh .* needs "
                           "more than 4194304 points"):
            sphere_net(3, NormKind.L2, mesh)

    def test_level9_radius_is_the_built_one(self, monkeypatch):
        radii = []
        measure = geometry_module._covering_radius

        def recorded(verts, faces):
            radii.append(measure(verts, faces))
            return radii[-1]

        monkeypatch.setattr(geometry_module, "_covering_radius", recorded)
        verts = geometry_module.icosphere(_LEVEL9_RADIUS)
        assert verts.shape == (2_621_442, 3)
        assert len(radii) == 10
        assert radii[-1] == _LEVEL9_RADIUS

    def test_limit_admits_the_finest_icosphere(self):
        # Level k of the icosphere has 10 * 4^k + 2 vertices; level 9 is
        # the finest that fits.
        assert 10 * 4 ** 9 + 2 <= MAX_NET_POINTS < 10 * 4 ** 10 + 2


class TestHalton:
    def test_unit_and_deterministic(self):
        a = halton_directions(5, 64)
        b = halton_directions(5, 64)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_allclose(np.linalg.norm(a, axis=1), 1.0, atol=1e-12)

    def test_dim_limit(self):
        with pytest.raises(UnsupportedDimensionError):
            halton_directions(11, 8)

    def test_close_to_the_scipy_quantiles(self):
        from scipy.stats import norm

        # The Halton points of halton_directions, mapped through scipy's
        # normal quantile function instead of the stdlib's.
        count, primes = 2000, [2, 3, 5, 7, 11]
        u = np.empty((count, len(primes)))
        for k, base in enumerate(primes):
            for i in range(count):
                x, f, rem = 0.0, 1.0, i + 1
                while rem:
                    f /= base
                    x += (rem % base) * f
                    rem //= base
                u[i, k] = x
        g = norm.ppf(np.clip(u, 1e-12, 1.0 - 1e-12))
        expect = g / np.linalg.norm(g, axis=1)[:, None]
        np.testing.assert_allclose(halton_directions(5, count), expect,
                                   rtol=1e-13, atol=1e-15)


class TestRefinement:
    def test_finds_quadratic_minimum_on_circle(self):
        d = np.diag([1.0, 4.0])

        def f(xs: np.ndarray) -> np.ndarray:
            return np.einsum("sa,ab,sb->s", xs, d, xs)

        x0 = kind_normalize(np.array([[np.cos(0.3), np.sin(0.3)]]),
                            NormKind.L2)
        v0 = f(x0)
        x, v = refine_minimum(f, x0, v0, NormKind.L2, step=0.05)
        assert v[0] == pytest.approx(1.0, abs=1e-9)
        assert abs(x[0, 0]) == pytest.approx(1.0, abs=1e-6)

    def test_never_increases(self, rng):
        prods = rng.normal(size=(3, 3, 3))

        def f(xs: np.ndarray) -> np.ndarray:
            return radius_profile(prods, xs, NormKind.L2)

        x0 = kind_normalize(rng.normal(size=(1, 3)), NormKind.L2)
        v0 = f(x0)
        x, v = refine_minimum(f, x0, v0, NormKind.L2, step=0.02)
        assert v[0] <= v0[0] + 1e-15
        assert np.linalg.norm(x[0]) == pytest.approx(1.0, abs=1e-12)


class _CountingProfile:
    """radius_profile of a fixed stack that records every block size."""

    def __init__(self, prods: np.ndarray, kind: NormKind) -> None:
        self.prods, self.kind, self.sizes = prods, kind, []

    def __call__(self, xs: np.ndarray) -> np.ndarray:
        self.sizes.append(xs.shape[0])
        return radius_profile(self.prods, xs, self.kind)


class TestLockstepRefinement:
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("kind", list(NormKind))
    @pytest.mark.parametrize("max_rounds", [200, 6])
    def test_stack_matches_one_start_at_a_time(self, d, kind, max_rounds,
                                               rng):
        prods = rng.normal(size=(4, d, d))
        x0 = kind_normalize(rng.normal(size=(5, d)), kind)
        x0[1] = x0[0]  # a start repeated in the stack
        v0 = radius_profile(prods, x0, kind)
        stacked = _CountingProfile(prods, kind)
        xs, vs = refine_minimum(stacked, x0, v0, kind, step=0.05,
                                max_rounds=max_rounds)
        rounds = []
        for i in range(5):
            alone = _CountingProfile(prods, kind)
            x1, v1 = refine_minimum(alone, x0[i:i + 1], v0[i:i + 1], kind,
                                    step=0.05, max_rounds=max_rounds)
            assert x1.tobytes() == xs[i:i + 1].tobytes()
            assert v1.tobytes() == vs[i:i + 1].tobytes()
            rounds.append(len(alone.sizes))
        # one value_fn call per shared round, on the rings still running
        ring = 2 if d == 2 else 8
        assert len(stacked.sizes) == max(rounds)
        assert stacked.sizes == [
            ring * sum(r > t for r in rounds) for t in range(max(rounds))]
        if max_rounds == 200:
            assert len(set(rounds)) > 1  # starts stop in different rounds
        else:
            assert rounds == [max_rounds] * 5  # every start is cut off

    def test_values_never_increase(self, rng):
        prods = rng.normal(size=(3, 3, 3))
        x0 = kind_normalize(rng.normal(size=(4, 3)), NormKind.L1)
        v0 = radius_profile(prods, x0, NormKind.L1)
        xs, vs = refine_minimum(_CountingProfile(prods, NormKind.L1), x0, v0,
                                NormKind.L1, step=0.05)
        assert np.all(vs <= v0)
        np.testing.assert_array_equal(radius_profile(prods, xs, NormKind.L1),
                                      vs)
        np.testing.assert_allclose(vector_norms(xs, NormKind.L1), 1.0,
                                   atol=1e-12)

"""Convex-hull geometry on centrally symmetric point sets.

The quantity of interest is the largest t such that the norm ball of
radius t fits inside conv(points).  For a full-dimensional polytope with
the origin interior this equals min over facets {u . y = c} of
c / dual_norm(u); lower-dimensional hulls get radius 0.

One route computes it: a candidate-normal sweep that evaluates the
support ratio max_i |u . p_i| / dual_norm(u) over every normal spanned
by point pairs (2-d) or point triples (3-d).  Every facet normal appears
among the candidates and every candidate ratio upper-bounds the radius,
so the minimum is the radius exactly, and the sweep vectorizes across
many point configurations at once.  ``oracle.inscribed_radius`` builds
the hull explicitly with Qhull and is the reference the sweep is tested
against.

The sweep (``radius_profile``) keeps the points of s base points in
per-coordinate planes: plane a is the (s, m) array of the a-th coordinates
of the m points G x.  Candidate normals are planes of the same kind, one
(s, C) array per coordinate, built component by component (edge
differences, then the cross product in 3-d), and their dual norms and
support dot products are elementwise sums over the coordinates in one
fixed order: x, y in 2-d and (u_x p_x + u_z p_z) + u_y p_y in 3-d for
the dot products, (x + y) + z for the dual norms.  Every value therefore
depends on its own base point only, whatever the block it is evaluated
in, and matches the einsum formulation of the sweep bit for bit.  Blocks
of base points are float-sized: a block holds as many points as keep
points x candidates within _BLOCK_FLOATS, where C = 2 C(m,2) in 2-d and
4 C(m,3) in 3-d.

The sweep is screened so that only candidates that can reach a row's
minimum get the full m-point support loop (``_support_minimum``).  A
pilot pass takes every candidate's support over a few pilot points of its
row, in 2-d the points of largest |u . p| for six fixed directions u
(vertices of the hull); divided by the dual norm, that bounds the
candidate's ratio from below.  The candidate with the lowest bound gets
its exact ratio U, and the full loop runs only on the usable candidates
whose bound is below U, with the same dot products in the same order and
the same division.  The minimum is the unscreened sweep's float to the
bit: the maximum over a subset of the same computed dot products is at
most the maximum over all of them, and dividing by the same dual norm
rounds monotonically, so a skipped candidate's computed ratio is at least
its bound, which is at least U, and U is a computed ratio of the sweep.
When the pilot would hold all m points (m <= 6 in 2-d, and in 3-d) the
pilot pass is the whole sweep and the other two are skipped.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import ceil, comb, frexp, inf

import numpy as np

from .core import NormKind
from .errors import UnsupportedDimensionError

_DUAL = {NormKind.L1: NormKind.LINF, NormKind.L2: NormKind.L2,
         NormKind.LINF: NormKind.L1}

_DEGENERATE_REL = 1e-13

# Most points a net or direction set may hold, checked before allocating;
# the finest icosphere (level 9) has 2,621,442.
MAX_NET_POINTS = 1 << 22

# Covering radius of icosphere levels 0..9, as _covering_radius measures
# them; level 9 is the finest within MAX_NET_POINTS.
_LEVEL_RADII = (0.6523581397843682, 0.36486382811348356, 0.18871053078356245,
                0.09520283008485891, 0.04770951964236602, 0.023868342089722352,
                0.01193587100459241, 0.005968148065367788,
                0.0029841006052092555, 0.0014920536242305257)
_LEVEL9_RADIUS = _LEVEL_RADII[-1]


def _check_mesh(mesh: float) -> None:
    if not 0.0 < mesh < inf:
        raise ValueError(f"mesh must be positive and finite, got {mesh}")


def _net_size(count: float, what: str) -> int:
    """ceil(count), once it is known to be at most MAX_NET_POINTS."""
    if not count <= MAX_NET_POINTS:
        raise ValueError(f"{what} needs more than {MAX_NET_POINTS} points")
    return ceil(count)


def dual_kind(kind: NormKind) -> NormKind:
    return _DUAL[kind]


def vector_norms(rows: np.ndarray, kind: NormKind) -> np.ndarray:
    """Row-wise vector norms of a (..., d) array."""
    v = np.asarray(rows, dtype=float)
    if kind is NormKind.L1:
        return np.sum(np.abs(v), axis=-1)
    if kind is NormKind.L2:
        return np.sqrt(np.sum(v * v, axis=-1))
    return np.max(np.abs(v), axis=-1)


# ---------------------------------------------------------------------------
# Vectorized radius evaluation across many base points


# Largest number of (point, candidate normal) pairs swept at once: one
# block's planes, normals and support values stay within a 4 MiB L2 cache.
_BLOCK_FLOATS = 1 << 15

# Order in which sums over the coordinates are taken (the points G x and
# the support dot products): x, y in 2-d and x, z, y in 3-d, which is
# the order of numpy's einsum for these contractions.
_SUM_ORDER = {1: (0,), 2: (0, 1), 3: (0, 2, 1)}

# Edge p_j + sign * p_i for both signs; p_j + (-p_i) is p_j - p_i exactly.
_EDGE_SIGNS = np.array([-1.0, 1.0])[:, None]

# Directions u whose |u . p| maximizers are the pilot points of the
# screened sweep, by dimension: six, 30 degrees apart, in 2-d.  3-d sweeps
# all its points; no pilot measured faster there (m = 13 at p = 2).
_PILOT_DIRECTIONS = {2: np.array([[np.cos(k * np.pi / 6.0),
                                   np.sin(k * np.pi / 6.0)] for k in range(6)])}


@lru_cache(maxsize=None)
def _index_tuples(m: int, k: int) -> tuple[np.ndarray, ...]:
    """Index arrays of all k-subsets of m base points, one array per slot."""
    rows = np.array(list(combinations(range(m), k)), dtype=np.intp)
    return tuple(rows.reshape(-1, k).T)


def _candidate_count(m: int, d: int) -> int:
    """Candidate normals per base point: 2 C(m,2) in 2-d, 4 C(m,3) in 3-d."""
    if d == 1:
        return m
    if d == 2:
        return 2 * comb(m, 2)
    return 4 * comb(m, 3)


def _block_rows(m: int, d: int) -> int:
    """Base points per radius_profile block for m products in d dimensions."""
    return max(1, _BLOCK_FLOATS // max(1, _candidate_count(m, d)))


def _planes(prods: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Coordinate planes of the points: plane a is the (s, m) array of (G x)_a."""
    d = prods.shape[-1]
    first, *rest = _SUM_ORDER[d]
    planes = np.empty((d, xs.shape[0], prods.shape[0]))
    for a in range(d):
        np.multiply(xs[:, first, None], prods[None, :, a, first], out=planes[a])
        for b in rest:
            planes[a] += xs[:, b, None] * prods[None, :, a, b]
    return planes


def _radius_values_2d(planes: np.ndarray, kind: NormKind) -> np.ndarray:
    """Candidates: perpendiculars (e_y, -e_x) of the edges p_j -+ p_i.

    The pattern -p_j -+ p_i repeats these up to a global sign, and
    antipodal pairs (an edge between p and -p) would put the origin on the
    hull boundary, which only happens in flat cases already handled by the
    zero-offset path.
    """
    _, s, m = planes.shape
    if m < 2:
        return np.zeros(s)
    i, j = _index_tuples(m, 2)
    edges = planes[:, :, None, j] + _EDGE_SIGNS * planes[:, :, None, i]
    normals = np.empty_like(edges)
    normals[0] = edges[1]
    np.negative(edges[0], out=normals[1])
    return _support_minimum(planes, normals.reshape(2, s, -1), kind, degree=1)


def _radius_values_3d(planes: np.ndarray, kind: NormKind) -> np.ndarray:
    """Candidates: cross products of the edges p_b -+ p_a and p_c -+ p_a.

    Negating p_b or p_c flips the normal, so the four sign patterns of
    each triple give the planes through every choice of its signed points.
    """
    _, s, m = planes.shape
    if m < 3:
        return np.zeros(s)
    ia, ib, ic = _index_tuples(m, 3)
    at = planes[:, :, None, ia]
    e = (planes[:, :, None, ib] + _EDGE_SIGNS * at)[:, :, :, None, :]
    f = (planes[:, :, None, ic] + _EDGE_SIGNS * at)[:, :, None, :, :]
    normals = np.empty((3, s, 2, 2, ia.size))
    for a, (p, q) in enumerate(((1, 2), (2, 0), (0, 1))):
        np.multiply(e[p], f[q], out=normals[a])
        normals[a] -= e[q] * f[p]
    return _support_minimum(planes, normals.reshape(3, s, -1), kind, degree=2)


def _pilot_planes(planes: np.ndarray) -> np.ndarray:
    """Coordinate planes (d, s, k) of each row's pilot points: the point
    of largest |u . p| for each of _PILOT_DIRECTIONS[d], a vertex of the
    row's hull.  ``planes`` itself when the pilot would hold all m points."""
    dirs = _PILOT_DIRECTIONS.get(planes.shape[0])
    if dirs is None or dirs.shape[0] >= planes.shape[2]:
        return planes
    reach = np.abs(np.tensordot(dirs, planes, axes=(1, 0)))
    picks = np.argmax(reach, axis=2).T
    return np.take_along_axis(planes, picks[None], axis=2)


def _pair_ratios(planes: np.ndarray, normals: np.ndarray, duals: np.ndarray,
                 usable: np.ndarray, rows: np.ndarray, cols: np.ndarray
                 ) -> np.ndarray:
    """Support ratios of the (row, candidate) pairs ``rows, cols`` over all
    m points: the dot products of the sweep in its coordinate order and
    its division, inf where the normal is not usable.  Pairs are taken in
    chunks of at most _BLOCK_FLOATS (pair, point) dot products."""
    first, *rest = _SUM_ORDER[planes.shape[0]]
    support = np.empty(rows.size)
    step = max(1, _BLOCK_FLOATS // planes.shape[2])
    for lo in range(0, rows.size, step):
        r, c = rows[lo:lo + step], cols[lo:lo + step]
        dot = normals[first, r, c][:, None] * planes[first, r]
        for a in rest:
            dot += normals[a, r, c][:, None] * planes[a, r]
        support[lo:lo + step] = np.max(np.abs(dot), axis=1)
    out = np.full(rows.size, np.inf)
    np.divide(support, duals[rows, cols], out=out, where=usable[rows, cols])
    return out


def _support_minimum(planes: np.ndarray, normals: np.ndarray,
                     kind: NormKind, degree: int) -> np.ndarray:
    """min over candidate normals of max_i |u . p_i| / dual_norm(u).

    Screened in three passes (see the module docstring): the ratios over
    each row's pilot points bound every candidate's ratio from below; the
    candidate with the lowest bound gets its exact ratio U; only the
    candidates whose bound is below U get theirs.  With no pilot (all m
    points) the first pass is the whole sweep.
    """
    first, *rest = _SUM_ORDER[planes.shape[0]]
    scale = np.max(np.abs(planes), axis=(0, 2))
    # Normals are degree-1 (2-d) or degree-2 (3-d) in the point entries.
    floor = _DEGENERATE_REL * np.maximum(scale, 1e-300) ** degree
    pilot = _pilot_planes(planes)
    support = np.zeros_like(normals[0])
    dot = np.empty_like(support)
    term = np.empty_like(support)
    for i in range(pilot.shape[2]):
        np.multiply(normals[first], pilot[first, :, i, None], out=dot)
        for a in rest:
            np.multiply(normals[a], pilot[a, :, i, None], out=term)
            dot += term
        np.abs(dot, out=dot)
        np.maximum(support, dot, out=support)
    duals = vector_norms(np.moveaxis(normals, 0, -1), dual_kind(kind))
    usable = duals > floor[:, None]
    ratios = np.full_like(support, np.inf)
    np.divide(support, duals, out=ratios, where=usable)
    if pilot is not planes:
        every = np.arange(ratios.shape[0])
        best = np.argmin(ratios, axis=1)
        cap = _pair_ratios(planes, normals, duals, usable, every, best)
        rows, cols = np.nonzero(usable & (ratios < cap[:, None]))
        ratios[every, best] = cap
        ratios[rows, cols] = _pair_ratios(planes, normals, duals, usable,
                                          rows, cols)
    out = np.min(ratios, axis=1)
    return np.where(np.isfinite(out), out, 0.0)


def radius_profile(products: np.ndarray, xs: np.ndarray,
                   kind: NormKind) -> np.ndarray:
    """Inscribed radius of conv({±G x}) for each base point x.

    ``products`` is an (m, d, d) stack applied to every row of ``xs``.
    Matches inscribed_radius(reach points of x) exactly for d in {1, 2, 3}.
    Each value depends on its own row only: blocks of rows are sized so
    that points x candidates stay within _BLOCK_FLOATS, and splitting the
    rows differently gives the same bits, and products 2^k G give exactly
    2^k times the values for G.  In 2-d the candidate sweep is screened
    by pilot points (see the module docstring); the values are those of
    the unscreened sweep to the bit.
    """
    prods = np.asarray(products, dtype=float)
    pts_all = np.asarray(xs, dtype=float)
    m, d = prods.shape[0], prods.shape[-1]
    # The radius is degree 1 in the products: sweep them divided by 2^e,
    # e the exponent of the largest entry, so normals cannot overflow.
    e = frexp(float(np.max(np.abs(prods), initial=0.0)))[1]
    prods = np.ldexp(prods, -e)
    if d not in (1, 2, 3):
        raise UnsupportedDimensionError(
            f"exact radius profiles are available for d in {{1, 2, 3}}, got d={d}"
        )
    rows = _block_rows(m, d)
    out = np.empty(pts_all.shape[0])
    for lo in range(0, pts_all.shape[0], rows):
        planes = _planes(prods, pts_all[lo:lo + rows])
        if d == 1:
            out[lo:lo + rows] = np.max(np.abs(planes[0]), axis=1)
        elif d == 2:
            out[lo:lo + rows] = _radius_values_2d(planes, kind)
        else:
            out[lo:lo + rows] = _radius_values_3d(planes, kind)
    return np.ldexp(out, e)


# ---------------------------------------------------------------------------
# Deterministic nets on unit spheres


def kind_normalize(rows: np.ndarray, kind: NormKind) -> np.ndarray:
    v = np.asarray(rows, dtype=float)
    return v / vector_norms(v, kind)[..., None]


def circle_net(kind: NormKind, mesh: float) -> np.ndarray:
    """Net on the planar unit sphere with covering radius <= mesh / 2.

    The l2 circle is sampled by arc length; the l1 and linf spheres are
    polygons whose edges are walked with steps of at most ``mesh`` in the
    respective metric.
    """
    _check_mesh(mesh)
    what = f"a circle net at mesh {mesh}"
    if kind is NormKind.L2:
        count = _net_size(2.0 * np.pi / mesh, what)
        angles = np.arange(count) * (2.0 * np.pi / count)
        return np.stack([np.cos(angles), np.sin(angles)], axis=1)
    if kind is NormKind.L1:
        verts = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    else:
        verts = np.array([[1.0, -1.0], [1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0]])
    # Each polygon edge has length 2 and gets ceil(2 / mesh) points.
    per_edge = _net_size(4.0 * np.ceil(2.0 / mesh), what) // 4
    t = np.arange(per_edge) / per_edge
    chunks = []
    for k in range(4):
        a, b = verts[k], verts[(k + 1) % 4]
        chunks.append(a[None, :] * (1.0 - t[:, None]) + b[None, :] * t[:, None])
    return np.concatenate(chunks, axis=0)


def _icosahedron() -> tuple[np.ndarray, np.ndarray]:
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array([
        [-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
        [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
        [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1],
    ], dtype=float)
    verts /= np.linalg.norm(verts, axis=1)[:, None]
    faces = np.array([
        [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
        [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
        [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
        [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
    ], dtype=np.intp)
    return verts, faces


def _subdivide(verts: np.ndarray, faces: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The next icosphere level: the vertices, the faces, and the (2, e)
    endpoint indices of the edges whose normalized midpoints it appends."""
    n = verts.shape[0]
    edges = np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]],
                            faces[:, [2, 0]]], axis=0)
    edges = np.sort(edges, axis=1)
    keys = edges[:, 0] * n + edges[:, 1]
    uniq, inverse = np.unique(keys, return_inverse=True)
    ends = np.stack([uniq // n, uniq % n])
    mids = verts[ends[0]] + verts[ends[1]]
    mids /= np.linalg.norm(mids, axis=1)[:, None]
    mid_idx = n + inverse.reshape(3, -1)
    ab, bc, ca = mid_idx[0], mid_idx[1], mid_idx[2]
    new_faces = np.concatenate([
        np.stack([faces[:, 0], ab, ca], axis=1),
        np.stack([faces[:, 1], bc, ab], axis=1),
        np.stack([faces[:, 2], ca, bc], axis=1),
        np.stack([ab, bc, ca], axis=1),
    ], axis=0)
    return np.concatenate([verts, mids], axis=0), new_faces, ends


def _covering_radius(verts: np.ndarray, faces: np.ndarray) -> float:
    """Geodesic covering radius of the vertex net: max face circumradius."""
    a, b, c = verts[faces[:, 0]], verts[faces[:, 1]], verts[faces[:, 2]]
    centers = np.cross(b - a, c - a)
    norms = np.linalg.norm(centers, axis=1)
    centers /= np.where(norms > 0, norms, 1.0)[:, None]
    flip = np.sum(centers * (a + b + c), axis=1) < 0
    centers[flip] *= -1.0
    cosr = np.clip(np.sum(centers * a, axis=1), -1.0, 1.0)
    return float(np.max(np.arccos(cosr)))


# The finest icosphere built so far, as _icosphere_levels returns it.
_icosphere_build: tuple[np.ndarray, tuple[np.ndarray, ...]] | None = None


def _icosphere_levels(level: int) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Vertices of icosphere ``level`` and, for each subdivision on the way,
    the endpoints of the edges it splits (see _subdivide).

    Level k's vertices are the first 10 * 4^k + 2 of every finer level,
    and its subdivisions the first k of a finer level's.  The finest build
    so far is kept, read-only, so sphere_net and _net_levels share it: a
    level no finer than it is served as a prefix of it, with the same
    bits as a fresh build, and only a finer level is built.
    """
    global _icosphere_build
    if _icosphere_build is None or len(_icosphere_build[1]) < level:
        verts, faces = _icosahedron()
        ends = []
        for _ in range(level):
            verts, faces, edge_ends = _subdivide(verts, faces)
            ends.append(edge_ends)
        for array in (verts, *ends):
            array.flags.writeable = False
        _icosphere_build = verts, tuple(ends)
    verts, ends = _icosphere_build
    return verts[:10 * 4 ** level + 2], ends[:level]


def _icosphere_level(mesh: float) -> int:
    """The coarsest icosphere level with covering radius <= mesh, read
    from _LEVEL_RADII.  A mesh below the covering radius of level 9 needs
    level 10, whose 10 * 4^10 + 2 vertices exceed MAX_NET_POINTS: refused
    before any level is built."""
    _check_mesh(mesh)
    if mesh < _LEVEL9_RADIUS:
        _net_size(10 * 4 ** 10 + 2, f"an icosphere at mesh {mesh}")
    return next(level for level, radius in enumerate(_LEVEL_RADII)
                if radius <= mesh)


def icosphere(mesh: float) -> np.ndarray:
    """Vertices of the coarsest icosphere with covering radius <= mesh
    (ValueError below level 9's, see _icosphere_level)."""
    return _icosphere_levels(_icosphere_level(mesh))[0].copy()


def _polyhedral_net(face_vertices: list[np.ndarray], mesh: float) -> np.ndarray:
    """Barycentric grids over triangular faces, deduplicated."""
    _check_mesh(mesh)
    what = f"a polyhedral net at mesh {mesh}"
    q = _net_size(2.0 / mesh, what)
    _net_size(len(face_vertices) * (q + 1) * (q + 2) // 2, what)
    i = np.arange(q + 1)
    ii, jj = np.meshgrid(i, i, indexing="ij")
    keep = ii + jj <= q
    bary = np.stack([ii[keep], jj[keep], q - ii[keep] - jj[keep]], axis=1) / q
    pieces = [bary @ tri for tri in face_vertices]
    return np.unique(np.concatenate(pieces, axis=0), axis=0)


def sphere_net(d: int, kind: NormKind, mesh: float) -> np.ndarray:
    """Deterministic net of the kind-unit sphere with covering radius <= mesh.

    The guarantee is in the kind metric itself: every point of the sphere
    lies within mesh of some net point.
    """
    if d == 1:
        return np.array([[1.0], [-1.0]])
    if d == 2:
        return circle_net(kind, mesh)
    if d == 3:
        if kind is NormKind.L2:
            return icosphere(mesh)
        if kind is NormKind.L1:
            # Octahedron surface; grid spacing 2/q per face has l1 step 2/q.
            faces = [np.diag(signs).astype(float)
                     for signs in ((1, 1, 1), (1, 1, -1), (1, -1, 1),
                                   (1, -1, -1), (-1, 1, 1), (-1, 1, -1),
                                   (-1, -1, 1), (-1, -1, -1))]
            return _polyhedral_net(faces, mesh)
        # Cube surface split into triangles per face.
        pieces = []
        for axis in range(3):
            for side in (1.0, -1.0):
                corners = []
                for s1 in (-1.0, 1.0):
                    for s2 in (-1.0, 1.0):
                        v = np.zeros(3)
                        v[axis] = side
                        v[(axis + 1) % 3] = s1
                        v[(axis + 2) % 3] = s2
                        corners.append(v)
                a, b, c, e = corners
                pieces.extend([np.stack([a, b, c]), np.stack([b, c, e])])
        return _polyhedral_net(pieces, mesh)
    raise UnsupportedDimensionError(
        f"deterministic sphere nets are available for d in {{1, 2, 3}}, got d={d}"
    )


def _net_levels(d: int, kind: NormKind, mesh: float, size: int
                ) -> tuple[np.ndarray, list[tuple[np.ndarray, ...]]]:
    """The levels by which the net sphere_net(d, kind, mesh) of ``size``
    points refines.

    Returns the indices of the coarsest level and, for each finer level in
    order, a triple (new, left, right): the indices of the points that
    level adds and of two parents of each, points of coarser levels next
    to it.  Icosphere level k + 1 adds the midpoints of level k's edges,
    whose endpoints are the parents, on top of the icosahedron's 12
    vertices.  A circle net is cyclic: its coarsest level takes every
    stride-th point, stride the largest power of two that leaves at least
    12 points, and each finer level halves the stride, the parents of a
    point being its neighbours at twice the stride (the last point's right
    neighbour is point 0).  The 3-d l1 and linf nets and d = 1 are one
    level.
    """
    if d == 3 and kind is NormKind.L2:
        steps = []
        start = 12
        for left, right in _icosphere_levels(_icosphere_level(mesh))[1]:
            steps.append((np.arange(start, start + left.size), left, right))
            start += left.size
        return np.arange(12), steps
    if d != 2:
        return np.arange(size), []
    stride = 1 << max(0, (size // 12).bit_length() - 1)
    coarse = np.arange(0, size, stride)
    steps = []
    while stride > 1:
        stride //= 2
        new = np.arange(stride, size, 2 * stride)
        right = new + stride
        right[right >= size] = 0
        steps.append((new, new - stride, right))
    return coarse, steps


# ---------------------------------------------------------------------------
# Deterministic local refinement on a sphere


# cos(k pi/4) and sin(k pi/4): the 8 step directions around a 3-d point.
_RING_COS = np.array([np.cos(k * np.pi / 4.0) for k in range(8)])[:, None]
_RING_SIN = np.array([np.sin(k * np.pi / 4.0) for k in range(8)])[:, None]

# A refinement start stops at a step below this or after _MAX_ROUNDS rounds.
_MIN_STEP = 1e-13
_MAX_ROUNDS = 200


def _offset_ring(x: np.ndarray) -> np.ndarray:
    """Unit tangent steps at x as rows: 2 along the circle, 8 around a 3-d point."""
    unit = x / np.linalg.norm(x)
    axis = int(np.argmin(np.abs(unit)))
    e = np.zeros_like(unit)
    e[axis] = 1.0
    t1 = e - np.dot(e, unit) * unit
    t1 /= np.linalg.norm(t1)
    if len(x) == 2:
        return np.stack([t1, -t1])
    (u0, u1, u2), (v0, v1, v2) = unit.tolist(), t1.tolist()
    t2 = np.array([u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0])
    return _RING_COS * t1 + _RING_SIN * t2


def refine_minimum(value_fn, x0: np.ndarray, v0: np.ndarray, kind: NormKind,
                   step: float) -> tuple[np.ndarray, np.ndarray]:
    """Lockstep pattern search for local minima on the kind-unit sphere.

    ``x0`` is a (k, d) stack of starts and ``v0`` their (k,) values;
    value_fn maps an (s, d) block of unit vectors to (s,) values, each
    depending on its own row only.  Every start runs the same search: a
    round evaluates the ring of neighbors at the start's own step, moves
    to the best of them if it improves on the current value and halves
    the step otherwise, and the start stops once its step is below
    _MIN_STEP.  The round counter is shared: each round makes one
    value_fn call on the stacked rings of the starts still running, and
    no start runs more than _MAX_ROUNDS rounds.  Every start ends where
    it would end alone.  Returns the (k, d) end points and their (k,)
    values; fully deterministic.
    """
    xs = np.array(x0, dtype=float)
    best = np.array(v0, dtype=float)
    k, d = xs.shape
    steps = np.full(k, float(step))
    rings = np.stack([_offset_ring(x) for x in xs])
    for _ in range(_MAX_ROUNDS):
        live = np.flatnonzero(steps >= _MIN_STEP)
        if live.size == 0:
            break
        cand = kind_normalize(
            xs[live, None, :] + steps[live, None, None] * rings[live], kind)
        vals = value_fn(cand.reshape(-1, d)).reshape(live.size, -1)
        pick = np.argmin(vals, axis=1)
        low = vals[np.arange(live.size), pick]
        moved = low < best[live]
        steps[live[~moved]] *= 0.5
        for row in np.flatnonzero(moved):
            j = live[row]
            xs[j] = cand[row, pick[row]]
            best[j] = low[row]
            rings[j] = _offset_ring(xs[j])
    return xs, best

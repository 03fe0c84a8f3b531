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
When the pilot would hold all m points (m <= 6) the pilot pass is the
whole sweep and the other two are skipped.

In 3-d, from m = _PRUNE_MIN_POINTS points on, each row is first pruned
to a superset of its hull vertices (``_kept_points``), and the sweep runs
on the kept points alone, unscreened.  Only a few points are vertices
(6.5 of 13 on average over the icosphere for the 3-member set of the
benchmark's chi workload), and 4 C(k,3) normals of k kept points replace
4 C(m,3).  The pilot is six distinct points of largest |u . p| over
fixed directions u, which lie on the hull boundary; a point strictly
inside the pilot's hull by a relative margin, tested against every
usable candidate normal of the pilot (among which are all the facet
normals of its hull), is dropped, and rows with a flat or thin pilot keep
every point.  In reals the support of a polytope is attained at a vertex,
so each kept candidate has the same support over the kept points as over
all, and a candidate through a dropped point, no longer formed, bounds
the radius from above like every other: the facet normals, spanned by
vertices, are still there.  In floats the kept candidates get the full
sweep's ratios to the bit, and the result can differ from the full
sweep's only by a tie, by at most 2^-32 times the row's largest
|coordinate| (the argument is in ``_kept_points``).  The kept indices
stay in ascending order, so each triple's normals are the full sweep's,
and rows are grouped by their kept count over the whole call, so each
group is swept at one k.  Below _PRUNE_MIN_POINTS the pilot costs more
than it saves, and the full sweep runs.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import ceil, comb, frexp, inf, sqrt

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

_PHI = (1.0 + 5.0 ** 0.5) / 2.0

# Directions u whose |u . p| maximizers are the pilot points of a row, by
# dimension.  2-d: six, 30 degrees apart; they screen the candidate sweep
# (``_support_minimum``).  3-d: the 6 icosahedron axes, then the 10
# dodecahedron axes (the icosahedron's face normals); the first
# _PILOT_POINTS distinct maximizers in this order form the pilot, whose
# hull prunes the row's points before any normal is formed
# (``_kept_points``).  The 6 axes alone gave 4-5 distinct points on most
# rows and only 2, a flat pilot that prunes nothing, on 34 of the 642
# icosphere points for the 3-member set of the benchmark's chi workload
# (m = 13); taken this way the pilot kept 6.7 points a row against 6.5
# hull vertices (Qhull).  The 3-d sweep of the kept points is not
# screened: a pilot on its support loop alone measured slower.
_PILOT_DIRECTIONS = {
    2: np.array([[np.cos(k * np.pi / 6.0), np.sin(k * np.pi / 6.0)]
                 for k in range(6)]),
    3: np.array([[0.0, 1.0, _PHI], [0.0, 1.0, -_PHI], [1.0, _PHI, 0.0],
                 [1.0, -_PHI, 0.0], [_PHI, 0.0, 1.0], [-_PHI, 0.0, 1.0],
                 [1.0, 1.0, 1.0], [1.0, 1.0, -1.0], [1.0, -1.0, 1.0],
                 [-1.0, 1.0, 1.0], [0.0, 1.0 / _PHI, _PHI],
                 [0.0, 1.0 / _PHI, -_PHI], [1.0 / _PHI, _PHI, 0.0],
                 [1.0 / _PHI, -_PHI, 0.0], [_PHI, 0.0, 1.0 / _PHI],
                 [-_PHI, 0.0, 1.0 / _PHI]]),
}
_PILOT_POINTS = 6

# 3-d rows are pruned when they have at least this many points (m, the
# reach products); fewer are swept whole.  On the chi workload's m = 13
# set pruning took 24 against 95 ms on the 642-point icosphere and 4.6
# against 9.0 ms on 64 points (but 2.6 against 1.3 ms on 8); on 7 of its
# products it was 1.4-5 times slower, and on 10 it broke even at 64.
_PRUNE_MIN_POINTS = 10

# Relative margin mu of the drop test, and the least pilot inradius, as a
# multiple of the row's largest |coordinate|, at which a row is pruned.
_PRUNE_MARGIN = 2.0 ** -20
_PRUNE_INRADIUS = 2.0 ** -12


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


def _normals_3d(planes: np.ndarray) -> np.ndarray:
    """Candidate normals (3, s, 4 C(k,3)) of the points in planes (3, s, k):
    cross products of the edges p_b -+ p_a and p_c -+ p_a, a < b < c.

    Negating p_b or p_c flips the normal, so the four sign patterns of
    each triple give the planes through every choice of its signed points.
    A normal depends on its three points only, not on the others.
    """
    _, s, _ = planes.shape
    ia, ib, ic = _index_tuples(planes.shape[2], 3)
    at = planes[:, :, None, ia]
    e = (planes[:, :, None, ib] + _EDGE_SIGNS * at)[:, :, :, None, :]
    f = (planes[:, :, None, ic] + _EDGE_SIGNS * at)[:, :, None, :, :]
    normals = np.empty((3, s, 2, 2, ia.size))
    for a, (p, q) in enumerate(((1, 2), (2, 0), (0, 1))):
        np.multiply(e[p], f[q], out=normals[a])
        normals[a] -= e[q] * f[p]
    return normals.reshape(3, s, -1)


def _radius_values_3d(planes: np.ndarray, kind: NormKind) -> np.ndarray:
    """Candidates: the normals of ``_normals_3d``."""
    _, s, m = planes.shape
    if m < 3:
        return np.zeros(s)
    return _support_minimum(planes, _normals_3d(planes), kind, degree=2)


def _abs_dots(normals: np.ndarray, points: np.ndarray):
    """|u . p| for every normal u (d, s, C) of a row and each of the row's
    points p (d, s, k) in turn: k arrays (s, C), the coordinates summed in
    the order of _SUM_ORDER.  One buffer is reused: read each array before
    the next."""
    first, *rest = _SUM_ORDER[points.shape[0]]
    dot = np.empty_like(normals[0])
    term = np.empty_like(dot)
    for i in range(points.shape[2]):
        np.multiply(normals[first], points[first, :, i, None], out=dot)
        for a in rest:
            np.multiply(normals[a], points[a, :, i, None], out=term)
            dot += term
        yield np.abs(dot, out=dot)


def _supports(normals: np.ndarray, points: np.ndarray) -> np.ndarray:
    """max over each row's points of |u . p|, for every normal u: (s, C)."""
    support = np.zeros_like(normals[0])
    for dot in _abs_dots(normals, points):
        np.maximum(support, dot, out=support)
    return support


def _plane_norms(vectors: np.ndarray, kind: NormKind) -> np.ndarray:
    """vector_norms of vectors given as coordinate planes (d, ...): the
    planes summed elementwise in vector_norms' order, so the same bits
    without moving the coordinate axis last."""
    out = np.abs(vectors[0])
    if kind is NormKind.L2:
        np.multiply(out, out, out=out)
    for plane in vectors[1:]:
        if kind is NormKind.L1:
            out += np.abs(plane)
        elif kind is NormKind.L2:
            out += plane * plane
        else:
            np.maximum(out, np.abs(plane), out=out)
    return np.sqrt(out, out=out) if kind is NormKind.L2 else out


def _pilot_planes(planes: np.ndarray) -> np.ndarray:
    """Coordinate planes (2, s, 6) of each 2-d row's pilot points: the
    point of largest |u . p| for each of _PILOT_DIRECTIONS[2], a vertex of
    the row's hull.  ``planes`` itself in 3-d, whose sweep is not
    screened, and when the pilot would hold all m points."""
    dirs = _PILOT_DIRECTIONS[2]
    if planes.shape[0] != 2 or dirs.shape[0] >= planes.shape[2]:
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
    points, or 3-d) the first pass is the whole sweep.
    """
    scale = np.max(np.abs(planes), axis=(0, 2))
    # Normals are degree-1 (2-d) or degree-2 (3-d) in the point entries.
    floor = _DEGENERATE_REL * np.maximum(scale, 1e-300) ** degree
    pilot = _pilot_planes(planes)
    support = _supports(normals, pilot)
    duals = _plane_norms(normals, dual_kind(kind))
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


def _pilot_3d(planes: np.ndarray) -> np.ndarray:
    """Indices (s, _PILOT_POINTS) of each row's 3-d pilot points: the
    first _PILOT_POINTS distinct points of largest |u . p| for u along
    _PILOT_DIRECTIONS[3] in order, repeats of one point when the row has
    fewer."""
    dirs = _PILOT_DIRECTIONS[3]
    picks = np.argmax(np.abs(np.tensordot(dirs, planes, axes=(1, 0))),
                      axis=2).T
    # A pick equal to an earlier one moves behind the distinct picks.
    repeat = np.any((picks[:, :, None] == picks[:, None, :])
                    & np.tri(dirs.shape[0], k=-1, dtype=bool), axis=2)
    order = np.argsort(repeat, axis=1, kind="stable")[:, :_PILOT_POINTS]
    return np.take_along_axis(picks, order, axis=1)


def _kept_points(planes: np.ndarray, kind: NormKind) -> np.ndarray:
    """(s, m) mask of the 3-d points each row keeps: a superset of the
    vertices of its hull.

    The pilot P is ``_pilot_3d``; u runs over the usable candidate
    normals of P (``_normals_3d``, with the sweep's floor) and h(u) is
    their support over P.  A row whose pilot has a usable u and inradius
    r_P = min h(u) / dual(u) > _PRUNE_INRADIUS s, s the row's largest
    |coordinate|, drops the points q with |u . q| < (1 - mu) h(u) for
    every usable u, mu = _PRUNE_MARGIN; every other row keeps all its
    points.  A flat pilot has a usable u with h(u) = 0, so r_P = 0.  The
    pilot points are kept without retaking the dots that h(u) has just
    taken: they lie on the hull boundary, where the test keeps them (the
    argument below).

    Why the kept candidates get the full sweep's ratios to the bit.  Let
    eps = 2^-53, R <= sqrt(3) s the largest |p| and r2 >= r_P / sqrt(3)
    the pilot hull's l2 inradius.  A computed dot |w . p| is within
    3.01 eps |w| R of the exact one.  Suppose every facet of conv(±P) has
    a usable u within relative error rho of its exact normal n (a vertex
    triangle with smallest angle theta gives rho <= 8 eps / sin theta);
    this is assumed, not checked, and rho <= 2^-36 below holds when each
    facet has a vertex triangle with no angle under 2^-14 radians.
    From |u . q| <= (1 - mu) h(u) + 6.1 eps |u| R, h(u) <= h(n) + rho |n| R
    and h(n) >= r2 |n|, a dropped q has gauge g <= (1 - mu + (rho + 6.1
    eps) R / r2) / (1 - rho R / r2) in conv(±P), and g <= 1 - mu/2 once
    (2 rho + 6.1 eps) R / r2 <= mu / 2, which r_P > 2^-12 s and
    mu = 2^-20 give for rho <= 2^-36.  So each dropped q lies in
    (1 - mu/2) conv(±P): no vertex, and the pilot points, on the hull
    boundary, are kept.  For a kept candidate w, |w . q| <= (1 - mu/2)
    h_K(w), h_K its support over the kept points, and mu/2 h_K(w) >=
    mu/2 r2 |w| exceeds the rounding of both dots, so the computed
    |w . q| stays below the computed maximum over the kept points: the
    support, and so the ratio, is the full sweep's float.  The dual norms
    are the same, and so is the floor, since s is attained at a kept
    point (the support along a coordinate axis).

    The bound where bits can differ.  The full sweep also forms the
    candidates through dropped points.  Each of those bounds the radius r
    from above in reals, but one whose exact ratio ties r (a plane through
    an interior point parallel to the facet the inscribed ball touches)
    can round below every kept candidate.  Every computed ratio is at
    least r - 20 eps s, and the kept touching-facet triple's at most
    r + (8 rho_F + 20 eps) s, rho_F its normal's relative error, so the
    pruned value is at least the full sweep's and exceeds it by at most
    (8 rho_F + 40 eps) s <= 2^-32 s for rho_F <= 2^-36: at most 2^-20 of
    the value, which is at least about r_P > 2^-12 s, and far inside
    chi's rounding margin 2^-20 lipschitz (``_net_profile``), since
    lipschitz >= 2 s.
    """
    picks = _pilot_3d(planes)
    pilot = np.take_along_axis(planes, picks[None], axis=2)
    normals = _normals_3d(pilot)
    scale = np.max(np.abs(planes), axis=(0, 2))
    duals = _plane_norms(normals, dual_kind(kind))
    floor = _DEGENERATE_REL * np.maximum(scale, 1e-300) ** 2
    usable = duals > floor[:, None]
    hull = _supports(normals, pilot)
    ratios = np.full_like(hull, np.inf)
    np.divide(hull, duals, out=ratios, where=usable)
    inradius = np.min(ratios, axis=1)
    pruned = np.isfinite(inradius) & (inradius > _PRUNE_INRADIUS * scale)
    cut = np.where(usable, (1.0 - _PRUNE_MARGIN) * hull, np.inf)
    every = np.arange(planes.shape[1])[:, None]
    keep = np.zeros(planes.shape[1:], dtype=bool)
    keep[every, picks] = True
    # Each row's other points first; a row with fewer than _PILOT_POINTS
    # distinct pilot points has more of them, and the others retest a
    # pilot point, which stays kept.
    others = np.argsort(keep, axis=1, kind="stable")
    others = others[:, :planes.shape[2] - np.min(np.sum(keep, axis=1))]
    rest = np.take_along_axis(planes, others[None], axis=2)
    for i, dot in enumerate(_abs_dots(normals, rest)):
        keep[every[:, 0], others[:, i]] |= np.any(dot >= cut, axis=1)
    keep[~pruned] = True
    return keep


def _pruned_radii(prods: np.ndarray, xs: np.ndarray,
                  kind: NormKind) -> np.ndarray:
    """3-d radii of the rows of xs from the points ``_kept_points`` keeps.

    Rows are grouped by their kept count k over the whole call, and each
    group is swept in blocks of _block_rows(k, 3) rows on its kept points
    in ascending order, so that each triple has the normals of the full
    sweep.
    """
    s = xs.shape[0]
    keep = np.empty((s, prods.shape[0]), dtype=bool)
    step = _block_rows(_PILOT_POINTS, 3)
    for lo in range(0, s, step):
        keep[lo:lo + step] = _kept_points(_planes(prods, xs[lo:lo + step]),
                                          kind)
    counts = np.count_nonzero(keep, axis=1)
    out = np.empty(s)
    for k in np.unique(counts):
        group = np.flatnonzero(counts == k)
        step = _block_rows(int(k), 3)
        for lo in range(0, group.size, step):
            rows = group[lo:lo + step]
            cols = np.nonzero(keep[rows])[1].reshape(1, rows.size, k)
            planes = np.take_along_axis(_planes(prods, xs[rows]), cols, axis=2)
            out[rows] = _radius_values_3d(planes, kind)
    return out


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
    the unscreened sweep to the bit.  In 3-d with at least
    _PRUNE_MIN_POINTS products each row is swept on the points that
    ``_kept_points`` keeps, with the full sweep's values but for ties
    (at most 2^-32 times the row's largest |coordinate| above them).
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
    if d == 3 and m >= _PRUNE_MIN_POINTS:
        return np.ldexp(_pruned_radii(prods, pts_all, kind), e)
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


def _antipodes(xs: np.ndarray) -> np.ndarray:
    """Antipode table of the distinct rows of xs: anti[i] = j when xs[j]
    is -xs[i] bit for bit (signed zeros included), else -1.  Read-only,
    int32: a net holds at most MAX_NET_POINTS < 2^31 points.  The rows
    are sorted as byte strings once, and the negated rows are looked up
    in blocks of _BLOCK_FLOATS."""
    n, d = xs.shape
    row = np.dtype((np.void, xs.itemsize * d))
    keys = np.ascontiguousarray(xs).view(row).ravel()
    order = np.argsort(keys)
    ranked = keys[order]
    anti = np.empty(n, dtype=np.int32)
    for lo in range(0, n, _BLOCK_FLOATS):
        wanted = np.ascontiguousarray(-xs[lo:lo + _BLOCK_FLOATS]).view(
            row).ravel()
        at = np.minimum(np.searchsorted(ranked, wanted), n - 1)
        anti[lo:lo + _BLOCK_FLOATS] = np.where(ranked[at] == wanted,
                                               order[at], -1)
    anti.flags.writeable = False
    return anti


# The finest icosphere built so far, as _icosphere_levels returns it, and
# the antipode table of the finest level that _net_antipodes asked for.
_icosphere_build: tuple[np.ndarray, tuple[np.ndarray, ...]] | None = None
_icosphere_antipodes: np.ndarray | None = None


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


def _polyhedral_faces(kind: NormKind) -> list[np.ndarray]:
    """Triangles (3 corners as rows) tiling the 3-d l1 or linf unit sphere."""
    if kind is NormKind.L1:
        # Octahedron surface; grid spacing 2/q per face has l1 step 2/q.
        return [np.diag(signs).astype(float)
                for signs in ((1, 1, 1), (1, 1, -1), (1, -1, 1),
                              (1, -1, -1), (-1, 1, 1), (-1, 1, -1),
                              (-1, -1, 1), (-1, -1, -1))]
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
    return pieces


def _polyhedral_size(kind: NormKind, mesh: float) -> int:
    """Grid divisions q per face edge of the 3-d l1 or linf net at mesh,
    once the net is known to fit MAX_NET_POINTS."""
    _check_mesh(mesh)
    what = f"a polyhedral net at mesh {mesh}"
    q = _net_size(2.0 / mesh, what)
    faces = 8 if kind is NormKind.L1 else 12  # len(_polyhedral_faces(kind))
    _net_size(faces * (q + 1) * (q + 2) // 2, what)
    return q


@lru_cache(maxsize=2)
def _polyhedral_net(kind: NormKind, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Barycentric grids of q divisions over the faces of the 3-d l1 or
    linf sphere, deduplicated, and their antipode table (_antipodes).

    The last two builds are kept, read-only, so repeated calls at one
    mesh share them with the same bits as a fresh build.
    """
    i = np.arange(q + 1)
    ii, jj = np.meshgrid(i, i, indexing="ij")
    keep = ii + jj <= q
    bary = np.stack([ii[keep], jj[keep], q - ii[keep] - jj[keep]], axis=1) / q
    pieces = [bary @ tri for tri in _polyhedral_faces(kind)]
    xs = np.unique(np.concatenate(pieces, axis=0), axis=0)
    xs.flags.writeable = False
    return xs, _antipodes(xs)


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
        return _polyhedral_net(kind, _polyhedral_size(kind, mesh))[0].copy()
    raise UnsupportedDimensionError(
        f"deterministic sphere nets are available for d in {{1, 2, 3}}, got d={d}"
    )


def _net_antipodes(xs: np.ndarray, kind: NormKind, mesh: float) -> np.ndarray:
    """Antipode table (_antipodes) of the net xs = sphere_net(d, kind,
    mesh).  The 3-d tables are built once and kept with the cached nets.
    Each icosphere level holds the antipodes of its points, so the table
    of the finest level asked for so far serves every coarser one as a
    prefix.  The cheaper 2-d tables are matched afresh."""
    global _icosphere_antipodes
    d = xs.shape[1]
    if d == 3 and kind is NormKind.L2:
        n = xs.shape[0]
        if _icosphere_antipodes is None or _icosphere_antipodes.shape[0] < n:
            _icosphere_antipodes = _antipodes(
                _icosphere_levels(_icosphere_level(mesh))[0])
        return _icosphere_antipodes[:n]
    if d == 3:
        return _polyhedral_net(kind, _polyhedral_size(kind, mesh))[1]
    return _antipodes(xs)


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

# Ring scales h, h/2, ... that one 2-d value_fn call evaluates per start.
# A call costs more than its rows on small rings.  On the 2-d refinements
# of one pass of the benchmark's workloads (seed 1, one BLAS thread), 4
# scales took 251-305 ms on calls against 554-680 ms for 1 and 354-428 ms
# for 2; 8 took 228-245 ms there, but 42-46 ms against 26-29 ms on the
# 40-product chi task, whose rows cost more.
_HALVINGS_2D = 0.5 ** np.arange(4)

# A computed radius lies within this fraction of chi's Lipschitz constant
# of the exact one: the margin for rounding of chi_measure's bounds.
_ROUNDING_MARGIN = 2.0 ** -20


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
                   step: float, lipschitz: float
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Lockstep pattern search for local minima on the kind-unit sphere.

    ``x0`` is a (k, d) stack of starts and ``v0`` their (k,) values;
    value_fn maps an (s, d) block of unit vectors to (s,) values, each
    depending on its own row only.  Its exact values are (lipschitz /
    2)-Lipschitz in the kind norm, and its computed ones lie within
    _ROUNDING_MARGIN * lipschitz of them (``chi_measure``'s radius).
    Every start runs the same search: a round evaluates the ring of
    neighbors at the start's own step, moves to the best of them if it
    improves on the current value and halves the step otherwise, and the
    start ends once its step is below _MIN_STEP or after _MAX_ROUNDS
    rounds.  The starts run in lockstep, one value_fn call on the stacked
    rings of the starts still running.  In 2-d a start's part of a call
    is its ring at the steps h, h/2, h/4 and h/8 (_HALVINGS_2D, as many
    of them as its rounds and _MIN_STEP leave), of which the first that
    improves is taken: each scale counts as one round, so the start ends
    exactly where the one-scale search ends.

    Before each call, a start j stops where it is when, for some start i,

        v_j - lipschitz * 2 tau h_j (_MAX_ROUNDS - u_j)
            - 2 _ROUNDING_MARGIN lipschitz  >  v_i,

    v the current values, h_j the step, u_j the rounds used, and tau the
    largest kind norm of an l2-unit ring tangent (sqrt(d) for l1, 1 for
    l2 and linf).  Each later move of j travels at most 2 tau h_j in the
    kind norm (tau h_j along the tangent, as much again in the
    normalization), at most _MAX_ROUNDS - u_j moves remain, and v_j and
    j's end value each lie within _ROUNDING_MARGIN * lipschitz of the
    exact ones; the spare half of lipschitz covers the rounding of the
    points and of the test.  So j would end strictly above v_i, and i
    ends at or below v_i.  Hence the first start of least end value in
    the search that runs every start to its end is never stopped, since
    a start that stopped it would end lower, and every start that is not
    stopped ends where it would end alone: that first start of least
    end value is the same, to the bit, and every stopped start ends
    strictly above it.  lipschitz = inf stops none.  Returns the (k, d)
    end points and their (k,) values, a stopped start's where it
    stopped; fully deterministic.
    """
    xs = np.array(x0, dtype=float)
    best = np.array(v0, dtype=float)
    k, d = xs.shape
    steps = np.full(k, float(step))
    used = np.zeros(k, dtype=np.intp)
    rings = np.stack([_offset_ring(x) for x in xs])
    halvings = _HALVINGS_2D if d == 2 else _HALVINGS_2D[:1]
    tau = sqrt(d) if kind is NormKind.L1 else 1.0
    running = np.ones(k, dtype=bool)
    while True:
        running &= (steps >= _MIN_STEP) & (used < _MAX_ROUNDS)
        live = np.flatnonzero(running)
        moves = 2.0 * tau * steps[live] * (_MAX_ROUNDS - used[live])
        lost = (best[live] - lipschitz * moves
                - 2.0 * _ROUNDING_MARGIN * lipschitz > np.min(best))
        running[live[lost]] = False
        live = live[~lost]
        if live.size == 0:
            return xs, best
        # Scales per start: within its rounds left and no finer than
        # _MIN_STEP; rows are (start, scale) pairs, a start's consecutive.
        fine = steps[live, None] * halvings >= _MIN_STEP
        counts = np.minimum(np.count_nonzero(fine, axis=1),
                            _MAX_ROUNDS - used[live])
        owner = np.repeat(live, counts)
        first = np.cumsum(counts) - counts
        scale = np.arange(owner.size) - np.repeat(first, counts)
        cand = kind_normalize(
            xs[owner, None, :]
            + (steps[owner] * halvings[scale])[:, None, None] * rings[owner],
            kind)
        vals = value_fn(cand.reshape(-1, d)).reshape(owner.size, -1)
        pick = np.argmin(vals, axis=1)
        low = vals[np.arange(owner.size), pick]
        # The first improving scale of each start, counts where none does.
        taken = np.minimum.reduceat(
            np.where(low < best[owner], scale, halvings.size), first)
        moved = taken < counts
        halved = np.where(moved, taken, counts)
        steps[live] *= 0.5 ** halved
        used[live] += halved + moved
        rows = (first + taken)[moved]
        movers = live[moved]
        xs[movers] = cand[rows, pick[rows]]
        best[movers] = low[rows]
        for j in movers:
            rings[j] = _offset_ring(xs[j])

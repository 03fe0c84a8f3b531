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

From _PRUNE_MIN_POINTS[d] points on, in 2-d and 3-d alike, each row is
first pruned to a superset of its hull vertices (``_kept_points``), and
the sweep runs on the kept points alone.  Only a few points are vertices
(3.1 of 40 on average over the circle nets for the 2-d set of the
benchmark's chi workload, 6.5 of 13 over the icosphere for its 3-d set),
and the 2 C(k,2) or 4 C(k,3) normals of k kept points replace those of
all m.  The pilot is the first six distinct points of largest |u . p|
over fixed directions u, which lie on the hull boundary; a point strictly
inside the pilot's hull by a relative margin, tested against every usable
candidate normal of the pilot (among which are all the facet normals of
its hull), is dropped, and rows with a flat or thin pilot keep every
point.  In reals the support of a polytope is attained at a vertex, so
each kept candidate has the same support over the kept points as over
all, and a candidate through a dropped point, no longer formed, bounds
the radius from above like every other: the facet normals, spanned by
vertices, are still there.  In floats the kept candidates get the full
sweep's ratios to the bit, and the result can differ from the full
sweep's only by a tie, by at most 2^-32 times the row's largest
|coordinate| (the argument is in ``_kept_points``: in 3-d it assumes
that no facet of the pilot's hull is too thin, in 2-d it needs no
assumption).  The kept indices stay in ascending order, so each pair's
or triple's normals are the full sweep's, and the rows of a block are
grouped by their kept count, so each group is swept at one k.  Below
_PRUNE_MIN_POINTS[d] the pilot costs more than it saves, and the full
sweep runs.
"""

from __future__ import annotations

from dataclasses import dataclass
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

_PHI = (1.0 + 5.0 ** 0.5) / 2.0

# Directions u whose |u . p| maximizers are the pilot points of a row, by
# dimension; the first _PILOT_POINTS distinct maximizers in this order
# form the pilot, whose hull prunes the row's points before any normal is
# formed (``_kept_points``).  2-d: six, 30 degrees apart, which give 2-4
# distinct points a row on the 2-d set of the benchmark's chi workload.
# 3-d: the 6 icosahedron axes, then the 10 dodecahedron axes (the
# icosahedron's face normals).  The 6 axes alone gave 4-5 distinct points
# on most rows and only 2, a flat pilot that prunes nothing, on 34 of the
# 642 icosphere points for the 3-member set of the benchmark's chi
# workload (m = 13); taken this way the pilot kept 6.7 points a row
# against 6.5 hull vertices (Qhull).
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

# Rows are pruned when they have at least this many points (m, the reach
# products), by dimension; fewer are swept whole.  Measured on chi's net
# walk alone, all rows pruned against all whole (a 2-core Xeon, one BLAS
# thread), on the first m reach products of 3-member sets of the
# benchmark.  2-d, four sets (the chi workload's triple and the calls
# workload's of rounds 0-2), each on the l2 circles at meshes 0.02 and
# 0.005, 8 cases, medians of 15; the speed-up is the time swept whole
# over the time pruned.  It was above 1 on 3 of 8 at m = 20 (0.90-1.29),
# 0.99-1.47 at m = 21 and 1.09-1.46 at m = 22; at m = 18 it was
# 0.74-0.96 (medians of 9), and at m = 40 4.5-6.8.  3-d, the chi
# workload's set: at mesh 0.1 in l2 (642 points) pruning broke even at
# m = 10, and at mesh 0.2 in linf it was faster from m = 9; at m = 13 it
# was 3.1 and 3.7 times faster, at m = 7 2.6 and 1.6 times slower.
_PRUNE_MIN_POINTS = {2: 21, 3: 10}

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
    """Candidate normals per base point: 2^(d-1) C(m,d), so 2 C(m,2) in
    2-d and 4 C(m,3) in 3-d (m points in 1-d)."""
    return 2 ** (d - 1) * comb(m, d)


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


def _normals_2d(planes: np.ndarray) -> np.ndarray:
    """Candidate normals (2, s, 2 C(k,2)) of the points in planes (2, s, k):
    the perpendiculars (e_y, -e_x) of the edges e = p_j -+ p_i, i < j.

    The pattern -p_j -+ p_i repeats these up to a global sign, and an edge
    between p and -p passes through the origin, which a facet does only
    on a flat hull.  Each coordinate is one rounded sum.
    """
    _, s, _ = planes.shape
    i, j = _index_tuples(planes.shape[2], 2)
    edges = planes[:, :, None, j] + _EDGE_SIGNS * planes[:, :, None, i]
    normals = np.empty_like(edges)
    normals[0] = edges[1]
    np.negative(edges[0], out=normals[1])
    return normals.reshape(2, s, -1)


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


def _normals(planes: np.ndarray) -> np.ndarray:
    """``_normals_2d`` or ``_normals_3d``, by the dimension of the planes."""
    return _normals_2d(planes) if planes.shape[0] == 2 else _normals_3d(planes)


def _abs_dots(normals: np.ndarray, points: np.ndarray) -> np.ndarray:
    """|u . p| for each of a row's points p (d, s, k) and every normal u
    (d, s, C) of the row: (s, k, C), the coordinates summed in the order
    of _SUM_ORDER."""
    first, *rest = _SUM_ORDER[points.shape[0]]
    dots = points[first, :, :, None] * normals[first, :, None, :]
    for a in rest:
        dots += points[a, :, :, None] * normals[a, :, None, :]
    return np.abs(dots, out=dots)


def _supports(normals: np.ndarray, points: np.ndarray) -> np.ndarray:
    """max over each row's points of |u . p|, for every normal u: (s, C).
    The dots of one point are taken at a time, in one reused buffer."""
    first, *rest = _SUM_ORDER[points.shape[0]]
    support = np.zeros_like(normals[0])
    dot = np.empty_like(support)
    term = np.empty_like(support)
    for i in range(points.shape[2]):
        np.multiply(normals[first], points[first, :, i, None], out=dot)
        for a in rest:
            np.multiply(normals[a], points[a, :, i, None], out=term)
            dot += term
        np.maximum(support, np.abs(dot, out=dot), out=support)
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


def _ratios(normals: np.ndarray, points: np.ndarray, scale: np.ndarray,
            kind: NormKind) -> tuple[np.ndarray, np.ndarray]:
    """The supports h(u) of the normals u (d, s, C) over the points (d, s,
    k), and the ratios h(u) / dual_norm(u): inf where the dual norm is at
    most _DEGENERATE_REL s^(d-1), s = ``scale`` the row's largest
    |coordinate| (a normal is degree d - 1 in the point entries)."""
    support = _supports(normals, points)
    duals = _plane_norms(normals, dual_kind(kind))
    floor = _DEGENERATE_REL * np.maximum(scale, 1e-300) ** (points.shape[0] - 1)
    ratios = np.full_like(support, np.inf)
    np.divide(support, duals, out=ratios, where=duals > floor[:, None])
    return support, ratios


def _radius_values(planes: np.ndarray, kind: NormKind) -> np.ndarray:
    """The candidate sweep on the points in planes (d, s, m), d in {2, 3}:
    the least ratio over the normals of ``_normals``, 0 where none is
    usable (and where m < d, which forms none)."""
    scale = np.max(np.abs(planes), axis=(0, 2), initial=0.0)
    ratios = _ratios(_normals(planes), planes, scale, kind)[1]
    out = np.min(ratios, axis=1, initial=np.inf)
    return np.where(np.isfinite(out), out, 0.0)


def _pilot(planes: np.ndarray) -> np.ndarray:
    """Indices (s, _PILOT_POINTS) of each row's pilot points: the first
    _PILOT_POINTS distinct points of largest |u . p| for u along
    _PILOT_DIRECTIONS[d] in order, repeats of one point when the row has
    fewer."""
    d, s, m = planes.shape
    dirs = _PILOT_DIRECTIONS[d]
    reach = np.abs(dirs @ planes.reshape(d, -1)).reshape(-1, s, m)
    picks = np.argmax(reach, axis=2).T
    # A pick equal to an earlier one moves behind the distinct picks.
    repeat = np.any((picks[:, :, None] == picks[:, None, :])
                    & np.tri(dirs.shape[0], k=-1, dtype=bool), axis=2)
    order = np.argsort(repeat, axis=1, kind="stable")[:, :_PILOT_POINTS]
    return np.take_along_axis(picks, order, axis=1)


def _kept_points(planes: np.ndarray, kind: NormKind) -> np.ndarray:
    """(s, m) mask of the points each row keeps, d in {2, 3}: a superset
    of the vertices of its hull.

    The pilot P is ``_pilot``; u runs over the usable candidate normals of
    P (``_normals``, with the sweep's floor) and h(u) is their support
    over P.  A row whose pilot has a usable u and inradius
    r_P = min h(u) / dual(u) > _PRUNE_INRADIUS s, s the row's largest
    |coordinate|, drops the points q with |u . q| < (1 - mu) h(u) for
    every usable u, mu = _PRUNE_MARGIN; every other row keeps all its
    points.  A flat pilot has a usable u with h(u) = 0, so r_P = 0.  The
    pilot points are kept without retaking the dots that h(u) has just
    taken: they lie on the hull boundary, where the test keeps them (the
    argument below).  The other points are tested in one broadcast per
    chunk of them, within _BLOCK_FLOATS dots.

    Why the kept candidates get the full sweep's ratios to the bit.  Let
    eps = 2^-53, R <= sqrt(d) s the largest |p| and r2 >= r_P / sqrt(d)
    the pilot hull's l2 inradius.  A computed dot |w . p| is within
    3.01 eps |w| R of the exact one.  Suppose every facet of conv(±P) has
    a usable u within relative error rho of its exact normal n (in 3-d a
    vertex triangle with smallest angle theta gives rho <= 8 eps /
    sin theta); in 3-d this is assumed, not checked, and rho <= 2^-36
    below holds when each facet has a vertex triangle with no angle under
    2^-14 radians.  From |u . q| <= (1 - mu) h(u) + 6.1 eps |u| R,
    h(u) <= h(n) + rho |n| R and h(n) >= r2 |n|, a dropped q has gauge
    g <= (1 - mu + (rho + 6.1 eps) R / r2) / (1 - rho R / r2) in
    conv(±P), and g <= 1 - mu/2 once (2 rho + 6.1 eps) R / r2 <= mu / 2,
    which r_P > 2^-12 s and mu = 2^-20 give for rho <= 2^-36.  So each
    dropped q lies in (1 - mu/2) conv(±P): no vertex, and the pilot
    points, on the hull boundary, are kept.  For a kept candidate w,
    |w . q| <= (1 - mu/2) h_K(w), h_K its support over the kept points,
    and mu/2 h_K(w) >= mu/2 r2 |w| exceeds the rounding of both dots, so
    the computed |w . q| stays below the computed maximum over the kept
    points: the support, and so the ratio, is the full sweep's float.
    The dual norms are the same, and so is the floor, since s is attained
    at a kept point (the support along a coordinate axis).

    In 2-d nothing is assumed.  A normal there is an edge turned by a
    right angle, each coordinate one rounded sum, so rho <= eps whatever
    the angles.  An edge of conv(±P) has no usable u only when its ends
    lie within 1.5e-13 s (the floor 1e-13 s on dual(u)); drop one end pair
    ±p of such an edge, and repeat.  At most four pairs go, each within
    1.5e-13 s of a point that stays, so the hull conv(±P') left, whose
    edges all have usable u, is within delta = 6e-13 s of conv(±P).  The
    argument runs on P', with h(n) over P at most delta |n| above h(n)
    over P' and r2 >= r_P / sqrt(2) - delta: the slack grows by
    delta / r2 < 2^-28 and stays under 2^-27 < mu / 2, so a dropped q lies
    in (1 - mu/2) conv(±P'), inside (1 - mu/2) conv(±P).

    The bound where bits can differ.  The full sweep also forms the
    candidates through dropped points.  Each of those bounds the radius r
    from above in reals, but one whose exact ratio ties r (a line or plane
    through an interior point parallel to the facet the inscribed ball
    touches) can round below every kept candidate.  Every computed ratio
    is at least r - 20 eps s, and the kept touching facet's at most
    r + (8 rho_F + 20 eps) s, rho_F its normal's relative error, so the
    pruned value is at least the full sweep's and exceeds it by at most
    (8 rho_F + 40 eps) s <= 2^-32 s for rho_F <= 2^-36: at most 2^-20 of
    the value, which is at least about r_P > 2^-12 s, and far inside
    chi's rounding margin 2^-20 lipschitz (``_net_profile``), since
    lipschitz >= 2 s.  In 2-d rho_F = eps when the touching edge has a
    usable normal.  When it has none, the hull reaches an edge with a
    usable normal past j edges of under 1.5e-13 s; both ends of that edge
    are vertices, so kept, and its exact ratio is at most
    r + 2.2e-13 j s, which keeps the bound for j < 1000.
    """
    s, m = planes.shape[1:]
    every = np.arange(s)[:, None]
    picks = _pilot(planes)
    pilot = planes[:, every, picks]
    normals = _normals(pilot)
    scale = np.max(np.abs(planes), axis=(0, 2))
    hull, ratios = _ratios(normals, pilot, scale, kind)
    inradius = np.min(ratios, axis=1)
    pruned = np.isfinite(inradius) & (inradius > _PRUNE_INRADIUS * scale)
    cut = np.where(np.isfinite(ratios), (1.0 - _PRUNE_MARGIN) * hull,
                   np.inf)[:, None, :]
    keep = np.zeros((s, m), dtype=bool)
    keep[every, picks] = True
    # Each row's other points first; a row with fewer than _PILOT_POINTS
    # distinct pilot points has more of them, and the others retest a
    # pilot point, which stays kept.
    others = np.argsort(keep, axis=1, kind="stable")
    others = others[:, :m - np.min(np.sum(keep, axis=1))]
    rest = planes[:, every, others]
    step = max(1, _BLOCK_FLOATS // hull.size)
    for lo in range(0, others.shape[1], step):
        dots = _abs_dots(normals, rest[:, :, lo:lo + step])
        keep[every, others[:, lo:lo + step]] |= np.any(dots >= cut, axis=2)
    keep[~pruned] = True
    return keep


def _pruned_radii(prods: np.ndarray, xs: np.ndarray,
                  kind: NormKind) -> np.ndarray:
    """Radii of the rows of xs from the points ``_kept_points`` keeps.

    Rows are pruned in blocks of _block_rows(_PILOT_POINTS, d), and the
    rows of a block that keep k points are swept together, in blocks of
    _block_rows(k, d), on their kept points in ascending order, so that
    each pair or triple has the normals of the full sweep.
    """
    s, d = xs.shape
    out = np.empty(s)
    step = _block_rows(_PILOT_POINTS, d)
    for lo in range(0, s, step):
        planes = _planes(prods, xs[lo:lo + step])
        keep = _kept_points(planes, kind)
        counts = np.count_nonzero(keep, axis=1)
        for k in np.unique(counts):
            group = np.flatnonzero(counts == k)
            cols = np.nonzero(keep[group])[1].reshape(group.size, k)
            rows = _block_rows(int(k), d)
            for at in range(0, group.size, rows):
                part = group[at:at + rows]
                out[lo + part] = _radius_values(
                    planes[:, part[:, None], cols[at:at + rows]], kind)
    return out


def radius_profile(products: np.ndarray, xs: np.ndarray,
                   kind: NormKind) -> np.ndarray:
    """Inscribed radius of conv({±G x}) for each base point x.

    ``products`` is an (m, d, d) stack applied to every row of ``xs``.
    Matches inscribed_radius(reach points of x) exactly for d in {1, 2, 3}.
    Each value depends on its own row only: blocks of rows are sized so
    that points x candidates stay within _BLOCK_FLOATS, and splitting the
    rows differently gives the same bits, and products 2^k G give exactly
    2^k times the values for G.  In 2-d and 3-d, with at least
    _PRUNE_MIN_POINTS[d] products, each row is swept on the points that
    ``_kept_points`` keeps (see the module docstring), with the full
    sweep's values but for ties (at most 2^-32 times the row's largest
    |coordinate| above them).
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
    if d > 1 and m >= _PRUNE_MIN_POINTS[d]:
        return np.ldexp(_pruned_radii(prods, pts_all, kind), e)
    rows = _block_rows(m, d)
    out = np.empty(pts_all.shape[0])
    for lo in range(0, pts_all.shape[0], rows):
        planes = _planes(prods, pts_all[lo:lo + rows])
        out[lo:lo + rows] = (np.max(np.abs(planes[0]), axis=1) if d == 1
                             else _radius_values(planes, kind))
    return np.ldexp(out, e)


# ---------------------------------------------------------------------------
# Deterministic nets on unit spheres


def kind_normalize(rows: np.ndarray, kind: NormKind) -> np.ndarray:
    v = np.asarray(rows, dtype=float)
    return v / vector_norms(v, kind)[..., None]


def _circle_net(kind: NormKind, size: int) -> np.ndarray:
    """The planar net at ``size`` equal angles on the l2 circle, or
    ``size`` points on each edge of the l1 or linf polygon."""
    if kind is NormKind.L2:
        angles = np.arange(size) * (2.0 * np.pi / size)
        return np.stack([np.cos(angles), np.sin(angles)], axis=1)
    if kind is NormKind.L1:
        verts = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    else:
        verts = np.array([[1.0, -1.0], [1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0]])
    t = np.arange(size) / size
    return np.concatenate([verts[k] * (1.0 - t[:, None])
                           + verts[(k + 1) % 4] * t[:, None] for k in range(4)])


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


def _subdivide(verts: np.ndarray, faces: np.ndarray, last: bool
               ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """The next icosphere level: the vertices, the faces (None when
    ``last``) and the (2, e) endpoints a < b of the edges whose normalized
    midpoints it appends, by ascending key a n + b.  The faces are
    consistently oriented: each edge is taken from the one of its two
    faces that lists it in ascending order."""
    n = verts.shape[0]
    heads = faces[:, [1, 2, 0]]
    ascending = faces < heads
    keys = np.sort(faces[ascending] * n + heads[ascending])
    ends = np.stack(np.divmod(keys, n))
    mids = verts[ends[0]] + verts[ends[1]]
    mids /= np.linalg.norm(mids, axis=1)[:, None]
    verts = np.concatenate([verts, mids], axis=0)
    if last:
        return verts, None, ends
    ab, bc, ca = (n + np.searchsorted(keys, np.minimum(faces, heads) * n
                                      + np.maximum(faces, heads))).T
    return verts, np.concatenate([
        np.stack([faces[:, 0], ab, ca], axis=1),
        np.stack([faces[:, 1], bc, ab], axis=1),
        np.stack([faces[:, 2], ca, bc], axis=1),
        np.stack([ab, bc, ca], axis=1),
    ], axis=0), ends


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


def _checked_antipodes(xs: np.ndarray, twin: np.ndarray) -> np.ndarray:
    """Antipode table of the distinct rows of xs: anti[i] = twin[i], the
    candidate the net's construction names, where xs[twin[i]] == -xs[i]
    as floats, else -1.  With no NaN in a net, that is bit for bit up to
    the sign of a zero, which the radius never reads
    (``irreducibility._fill``).  Read-only, int32 (MAX_NET_POINTS <
    2^31); checked _BLOCK_FLOATS rows at a time."""
    anti = np.empty(xs.shape[0], dtype=np.int32)
    for lo in range(0, xs.shape[0], _BLOCK_FLOATS):
        rows = slice(lo, lo + _BLOCK_FLOATS)
        same = np.all(-xs[rows] == xs[twin[rows]], axis=1)
        anti[rows] = np.where(same, twin[rows], -1)
    anti.flags.writeable = False
    return anti


def _gaps(points: np.ndarray, new: np.ndarray, parent: np.ndarray,
          kind: NormKind) -> np.ndarray:
    """vector_norms(points[new] - points[parent], kind), blockwise."""
    out = np.empty(new.size)
    for lo in range(0, new.size, _BLOCK_FLOATS):
        at = slice(lo, lo + _BLOCK_FLOATS)
        out[at] = vector_norms(points[new[at]] - points[parent[at]], kind)
    return out


def _icosphere_levels(level: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """Vertices of icosphere ``level`` and, for each subdivision on the way,
    the endpoints of the edges it splits (see _subdivide).  Level k's
    vertices are the first 10 * 4^k + 2 of every finer level, and its
    subdivisions the first k of a finer level's."""
    verts, faces = _icosahedron()
    ends = []
    for k in range(level):
        verts, faces, edge_ends = _subdivide(verts, faces, k == level - 1)
        ends.append(edge_ends)
    return verts, ends


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


# A net's levels, as _net_at builds them: the coarsest level's indices
# and a (new, left, right) index triple for each finer level.
_Levels = tuple[np.ndarray, list[tuple[np.ndarray, ...]]]


def _polyhedral_net(kind: NormKind, q: int) -> tuple[np.ndarray, _Levels]:
    """Barycentric grids of q divisions over the faces of the 3-d l1 or
    linf sphere, deduplicated, and their levels (``_polyhedral_levels``).

    A grid point is (n_a a + n_b b + n_c c) / q for the corners a, b, c
    of its face and integers n_a + n_b + n_c = q.  The numerators are
    exact, so each coordinate is one rounding of an exact quotient, and
    the net holds the negation of each of its points bit for bit, but
    for the sign of a zero.
    """
    i = np.arange(q + 1)
    ii, jj = np.meshgrid(i, i, indexing="ij")
    keep = ii + jj <= q
    ii, jj = ii[keep], jj[keep]
    bary = np.stack([ii, jj, q - ii - jj], axis=1)
    faces = _polyhedral_faces(kind)
    xs, origin, index = np.unique(
        np.concatenate([bary @ tri for tri in faces]) / q, axis=0,
        return_index=True, return_inverse=True)
    return xs, _polyhedral_levels(q, ii, jj, index.ravel(), origin)


def _polyhedral_levels(q: int, ii: np.ndarray, jj: np.ndarray,
                       index: np.ndarray, origin: np.ndarray) -> _Levels:
    """The levels of the polyhedral net at q, from the net ``index`` of
    each face's grid point (ii, jj), at face * g + its position, g = (q +
    1)(q + 2) / 2 points a face in meshgrid order, and ``origin``, each
    net point's first place there (np.unique's sort is stable); int32
    indices.

    The grid at q' | q is the points of the grid at q whose indices are
    multiples of q / q', the same bits (n / q' and n q / q' / q round
    alike, n an integer numerator).  So the net is walked through the
    grids at q_0 | q_1 | ... | q_K = q, found down from q: halve while
    even, then divide the odd part by its least prime factor while it is
    composite (50: 5, 25, 50; 45: 5, 15, 45; a prime q is one level).
    The level of spacing s = q / q_k (grid steps at q) adds the points
    whose indices i, j and k = q - i - j have s, not S = q / q_(k-1), as
    a common divisor.  Corner m of the point's triangle of the grid at
    q_(k-1) in its face has weight w_m (i, j, k mod S, or S less them,
    summing to S) and lattice distance S - w_m; the parents are the two
    nearest corners, nearest first, ties to the later of i, j and k.  At
    a halving step, S = 2s, they are the opposite neighbours at spacing S.
    Parents are found once per point of a face's grid (none read on the
    coarsest level); a point on an edge of two faces has the same spacing
    in both, its parents on that edge, from the first face that holds it.
    """
    spacings, odd, p = [1], q, 2
    while odd % 2 == 0 or p * p <= odd:
        if odd % p:
            p += 1
        else:
            odd //= p
            spacings.insert(0, q // odd)
    common = np.gcd(np.gcd(ii, jj), q)
    level = np.sum([common % s != 0 for s in spacings], axis=0)
    wide = np.array(spacings)[np.maximum(level - 1, 0)]
    point = np.stack([ii, jj, q - ii - jj])
    rest = point % wide
    up = rest.sum(axis=0) == wide
    key = 3 * np.where(up, rest, wide - rest) + np.arange(3)[:, None]
    first, last = np.argmax(key, axis=0), np.argmin(key, axis=0)
    corner = point[:2] - rest[:2] + np.where(up, 0, wide)
    sign = np.where(up, wide, -wide)
    near = [_grid_position(q, *(corner + sign * (m == [[0], [1]])))
            for m in (first, 3 - first - last)]
    face, at = np.divmod(origin, ii.size)
    net_level = level[at]
    coarse = np.flatnonzero(net_level == 0).astype(np.int32)
    steps = []
    for k in range(1, len(spacings)):
        new = np.flatnonzero(net_level == k)
        steps.append(tuple(v.astype(np.int32) for v in (
            new, *(index[face[new] * ii.size + pos[at[new]]]
                   for pos in near))))
    return coarse, steps


def _grid_position(q: int, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Position of the grid point (i, j), i + j <= q, among a face's grid
    points in _polyhedral_net's meshgrid order."""
    return i * (q + 1) - i * (i - 1) // 2 + j


def sphere_net(d: int, kind: NormKind, mesh: float) -> np.ndarray:
    """Deterministic net of the kind-unit sphere with covering radius <= mesh.

    The guarantee is in the kind metric itself: every point of the sphere
    lies within mesh of some net point.  Returns a copy of _net's points.
    """
    return _net(d, kind, mesh).points.copy()


@dataclass(frozen=True, eq=False)
class _Net:
    """A sphere net and the read-only tables of chi's walk over it: the
    points, their antipode table (``_checked_antipodes``, up to the sign
    of a zero, so complete on the 3-d nets), the indices of the coarsest
    level and, for each finer level in order, a step (new, left, right,
    left_gap, right_gap): the points the level adds, two parents of each
    (points of coarser levels next to it) and the kind distances
    vector_norms(points[new] - points[parent], kind) to them."""

    points: np.ndarray
    antipodes: np.ndarray
    coarse: np.ndarray
    steps: tuple[tuple[np.ndarray, ...], ...]


def _net(d: int, kind: NormKind, mesh: float) -> _Net:
    """The net of sphere_net(d, kind, mesh), built once per process and
    resolution (``_net_at``): the circle's point count, the polygon's
    points per edge, the icosphere level or the grid divisions q.  The
    resolution is resolved, and a net past MAX_NET_POINTS refused, before
    any net is built; the 1-d net is the sphere at every mesh."""
    if d == 1:
        return _net_at(1, kind, 1)
    if d not in (2, 3):
        raise UnsupportedDimensionError(
            f"deterministic sphere nets are available for d in {{1, 2, 3}}, "
            f"got d={d}")
    _check_mesh(mesh)
    if d == 3:
        size = (_icosphere_level(mesh) if kind is NormKind.L2
                else _polyhedral_size(kind, mesh))
    elif kind is NormKind.L2:
        size = _net_size(2.0 * np.pi / mesh, f"a circle net at mesh {mesh}")
    else:
        # Each polygon edge has length 2 and gets ceil(2 / mesh) points.
        size = _net_size(4.0 * np.ceil(2.0 / mesh),
                         f"a circle net at mesh {mesh}") // 4
    return _net_at(d, kind, size)


# Nets _net_at keeps: a process of the benchmark's chi workload reads 8
# with its warm-ups, one of its calls workload 7 (gamma's among them).
_NETS_KEPT = 8


@lru_cache(maxsize=_NETS_KEPT)
def _net_at(d: int, kind: NormKind, size: int) -> _Net:
    """The _Net of d dimensions at the resolution ``size`` (``_net``).

    Icosphere level k + 1 adds the midpoints of level k's edges, whose
    endpoints are the parents, on top of the icosahedron's 12 vertices.
    The 3-d l1 and linf nets at q grid divisions go through the grids at
    a divisor chain of q, each added point having the two nearest corners
    of its triangle of the coarser grid in its own face as parents
    (``_polyhedral_levels``); a prime q is one level.  A circle net is
    cyclic: its coarsest level takes every stride-th point, stride the
    largest power of two that leaves at least 12 points, and each finer
    level halves the stride, the parents of a point being its neighbours
    at twice the stride (the last point's right neighbour is point 0);
    the 1-d net, [1] and [-1], is such a net of one level.

    Antipode candidates (``_checked_antipodes``): the point n // 2 on
    round a 1-d or 2-d net of n points (none passes on an odd circle);
    row n - 1 - i of a 3-d grid, sorted and centrally symmetric; on the
    icosphere, the vertex of least dot product, then the midpoint of the
    edge (anti a, anti b) for that of (a, b), found in the level's keys.
    """
    if d < 3:
        points = (np.array([[1.0], [-1.0]]) if d == 1
                  else _circle_net(kind, size))
        n = points.shape[0]
        twin = (np.arange(n) + n // 2) % n
        stride = 1 << max(0, (n // 12).bit_length() - 1)
        coarse, levels = np.arange(0, n, stride), []
        while stride > 1:
            stride //= 2
            new = np.arange(stride, n, 2 * stride)
            right = new + stride
            right[right >= n] = 0
            levels.append((new, new - stride, right))
    elif kind is NormKind.L2:
        points, ends = _icosphere_levels(size)
        coarse, levels, start = np.arange(12), [], 12
        twin = np.empty(points.shape[0], dtype=np.intp)
        twin[:12] = np.argmin(points[:12] @ points[:12].T, axis=1)
        for left, right in ends:
            new = np.arange(start, start + left.size)
            levels.append((new, left, right))
            a, b = np.sort([twin[left], twin[right]], axis=0)
            twin[new] = start + np.searchsorted(left * start + right,
                                                a * start + b)
            start += left.size
    else:
        points, (coarse, levels) = _polyhedral_net(kind, size)
        twin = np.arange(points.shape[0])[::-1]
    steps = tuple((new, left, right,
                   *(_gaps(points, new, q, kind) for q in (left, right)))
                  for new, left, right in levels)
    for array in (points, coarse, *(v for step in steps for v in step)):
        array.flags.writeable = False
    return _Net(points, _checked_antipodes(points, twin), coarse, steps)

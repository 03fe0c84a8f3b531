"""Irreducibility of matrix sets and its quantitative measure.

A set is irreducible when its members share no proper nonzero invariant
subspace.  The quantitative side measures, for each unit vector x, how
large a norm ball fits inside the symmetrized convex hull of the points
G x, where G ranges over all products of at most p members (the identity
included).  The infimum of that radius over the unit sphere is positive
exactly when the set is irreducible, provided p >= d - 1.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    DEFAULT_WORD_BUDGET,
    MatrixSet,
    NormKind,
    Record,
    _binary_scale,
    _check_budget,
    operator_norms,
)
from .errors import UnsupportedDimensionError
from .geometry import (
    _ROUNDING_MARGIN,
    _block_rows,
    _check_mesh,
    _net_antipodes,
    _net_levels,
    radius_profile,
    refine_minimum,
    sphere_net,
    vector_norms,
)

_DEDUP_TOL = 1e-12

# Most refinement starts ``chi_measure`` takes from the net.
_MAX_STARTS = 8

# Points in the first block of ``_select_starts``.
_THIN_BLOCK = 64

# Rows per chunk of ``_near_earlier``.
_NEAR_CHUNK = 256


@dataclass(frozen=True, eq=False)
class ChiEstimate(Record):
    """Sampled irreducibility measure plus its certified lower bound.

    ``sampled_inf`` is the smallest hull radius found on the sphere net
    (after deterministic local refinement), hence always an upper bound of
    the true infimum.  ``certified_lower`` subtracts the Lipschitz slack
    L * mesh and is a rigorous lower bound; 0 means the mesh was too
    coarse to certify positivity, not an error.
    """

    p: int
    kind: NormKind
    sampled_inf: float
    certified_lower: float
    lipschitz: float
    mesh: float
    argmin: np.ndarray
    samples: int


class _DedupStack:
    """d x d matrices kept in offer order, skipping near-duplicates.

    A candidate is a duplicate when some kept matrix is within
    _DEDUP_TOL * (1 + max|candidate|) of it in every entry; one numpy
    reduction compares it against all kept matrices at once.
    """

    def __init__(self, d: int) -> None:
        self._buf = np.empty((16, d, d))
        self._count = 0

    def offer(self, cand: np.ndarray) -> bool:
        kept = self._buf[:self._count]
        tol = _DEDUP_TOL * (1.0 + float(np.max(np.abs(cand))))
        gaps = np.max(np.abs(cand - kept), axis=(1, 2))
        if not np.all(gaps > tol):
            return False
        if self._count == self._buf.shape[0]:
            self._buf = np.concatenate([self._buf, np.empty_like(self._buf)])
        self._buf[self._count] = cand
        self._count += 1
        return True

    def stack(self) -> np.ndarray:
        return self._buf[:self._count].copy()


def _walk_products(mats: np.ndarray, depth: int,
                   keep: Callable[[np.ndarray], bool]) -> None:
    """Offer the products of 0..depth of the (r, d, d) members ``mats`` to
    ``keep``, breadth first.

    Level 0 is the identity; level k + 1 left-multiplies each product kept
    at level k by every member in input order.  Only products that
    ``keep`` accepts are extended, and the walk ends early at a level
    that keeps none.
    """
    frontier = [np.eye(mats.shape[-1])]
    keep(frontier[0])
    for _ in range(depth):
        frontier = [cand for base in frontier for m in mats
                    if keep(cand := m @ base)]
        if not frontier:
            break


def reach_products(
    mset: MatrixSet, p: int, max_words: int = DEFAULT_WORD_BUDGET
) -> np.ndarray:
    """All distinct products of 0..p members as an (m, d, d) stack.

    Length 0 contributes the identity.  Duplicates are dropped at a small
    relative tolerance; they contribute nothing to the hulls downstream.
    chi is not homogeneous, so a product that overflows raises ValueError.
    """
    if p < 0:
        raise ValueError("p must be a non-negative integer")
    _check_budget("products of length <= {n} require {count} words, "
                  "budget is {budget}", mset.r, p, "max_words", max_words,
                  first=0)
    kept = _DedupStack(mset.dim)
    try:
        with np.errstate(over="raise"):
            _walk_products(mset.stacked(), p, kept.offer)
    except FloatingPointError:
        raise ValueError(f"a product of at most {p} members leaves the "
                         "float range") from None
    return kept.stack()


def sphere_profile(
    mset: MatrixSet,
    p: int,
    kind: NormKind,
    mesh: float,
    max_words: int = DEFAULT_WORD_BUDGET,
) -> tuple[np.ndarray, np.ndarray]:
    """Net points of the unit sphere and the hull radius at each of them."""
    xs = sphere_net(mset.dim, kind, mesh)
    prods = reach_products(mset, p, max_words)
    return xs, radius_profile(prods, xs, kind)


def _select_starts(xs: np.ndarray, vals: np.ndarray, kind: NormKind,
                   spacing: float) -> list[int]:
    """Lowest-value net points, greedily thinned to pairwise spacing.

    In the stable (value, index) order a point is taken when it lies at
    least spacing from every point taken before it, up to _MAX_STARTS
    points.  The order is read in blocks of doubling size, _THIN_BLOCK
    first: a block drops its points within spacing of those already
    taken, in one call, and then each point it takes drops its later
    points within spacing of it."""
    order = np.argsort(vals, kind="stable")
    chosen: list[int] = []
    lo, hi = 0, _THIN_BLOCK
    while lo < order.size and len(chosen) < _MAX_STARTS:
        block = order[lo:hi]
        lo, hi = hi, 2 * hi
        if chosen:
            gaps = vector_norms(xs[block, None] - xs[chosen], kind)
            block = block[np.all(gaps >= spacing, axis=1)]
        while block.size and len(chosen) < _MAX_STARTS:
            chosen.append(int(block[0]))
            block = block[1:]
            block = block[vector_norms(xs[block] - xs[chosen[-1]], kind)
                          >= spacing]
    return chosen


def _starts_cut(xs: np.ndarray, vals: np.ndarray, kind: NormKind,
                spacing: float) -> float:
    """The value of the last of _select_starts when it finds _MAX_STARTS
    of them, else +inf."""
    starts = _select_starts(xs, vals, kind, spacing)
    return float(vals[starts[-1]]) if len(starts) == _MAX_STARTS else math.inf


def _head_cut(xs: np.ndarray, vals: np.ndarray, done: np.ndarray,
              threshold: float, kind: NormKind, spacing: float) -> float:
    """_starts_cut of the evaluated points (``done``) at or below
    threshold.  They are the head of the stable (value, index) order of
    all evaluated points, and the thinning of all of them reads only
    that head when it gives _MAX_STARTS starts, so the cut is the same;
    otherwise that cut lies above threshold or is +inf."""
    head = np.flatnonzero(done & (vals <= threshold))
    return _starts_cut(xs[head], vals[head], kind, spacing)


def _near_earlier(pts: np.ndarray, kind: NormKind, rho: float) -> np.ndarray:
    """Mask of the rows of pts that an earlier row lies within projective
    kind distance rho of: min(||x - y||, ||x + y||) <= rho.

    The rows and their negations are binned in cubes of side 2 rho.  Two
    points within rho differ by at most rho in each coordinate, so their
    cubes are neighbours even after x / (2 rho) rounds, and each row is
    compared with the entries of its 3^d neighbouring cubes only, in
    chunks of rows: the memory is linear in the number of rows.
    """
    h, d = pts.shape
    both = np.concatenate([pts, -pts])
    cells = np.floor(both / (2.0 * rho)).astype(np.int64)
    cells -= cells.min(axis=0) - 1
    weights = (int(cells.max()) + 2) ** np.arange(d - 1, -1, -1)
    keys = cells @ weights
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    # Cubes that differ in the last coordinate alone have consecutive keys.
    shifts = [int(np.dot(step, weights[:-1]))
              for step in itertools.product((-1, 0, 1), repeat=d - 1)]
    near = np.zeros(h, dtype=bool)
    for lo in range(0, h, _NEAR_CHUNK):
        rows = np.arange(lo, min(h, lo + _NEAR_CHUNK))
        for shift in shifts:
            first = np.searchsorted(ranked, keys[rows] + shift - 1, "left")
            count = np.searchsorted(ranked, keys[rows] + shift + 1,
                                    "right") - first
            row = np.repeat(rows, count)
            entry = order[np.arange(row.size)
                          + np.repeat(first - np.cumsum(count) + count, count)]
            hit = (entry % h < row) & (
                vector_norms(pts[row] - both[entry], kind) <= rho)
            near[row[hit]] = True
    return near


def _basin_starts(xs: np.ndarray, vals: np.ndarray, kind: NormKind,
                  mesh: float, cut: float) -> list[int]:
    """Refinement starts: the net points of value <= cut that no earlier
    point in the stable (value, index) order lies within projective kind
    distance mesh of, lowest first, at most _MAX_STARTS.

    Within means a computed distance of at most mesh.  Neighbours on the
    l1 and linf grids lie exactly mesh apart when 2 / mesh is whole, and
    rounding puts each such pair on either side.
    """
    head = np.flatnonzero(vals <= cut)
    head = head[np.argsort(vals[head], kind="stable")]
    return head[~_near_earlier(xs[head], kind, mesh)][:_MAX_STARTS].tolist()


def _fill(prods: np.ndarray, xs: np.ndarray, anti: np.ndarray,
          kind: NormKind, vals: np.ndarray, done: np.ndarray,
          todo: np.ndarray) -> None:
    """Hull radii of the net points ``todo`` into vals, marked done.

    radius_profile runs on one point of each antipodal pair (anti, see
    ``geometry._antipodes``): a point whose antipode is done, or comes
    earlier in todo, copies its value.  The radius is even to the bit:
    the planes of -x are those of x negated, and every value takes |.|
    of them.
    """
    twin = anti[todo]
    paired = twin >= 0
    copy = paired & done[twin]
    done[todo] = True
    copy |= paired & (twin < todo) & done[twin]
    own = todo[~copy]
    if own.size:
        vals[own] = radius_profile(prods, xs[own], kind)
    vals[todo[copy]] = vals[twin[copy]]


def _net_profile(prods: np.ndarray, xs: np.ndarray, kind: NormKind,
                 mesh: float, lipschitz: float) -> tuple[np.ndarray, list[int]]:
    """Hull radii on the net xs = sphere_net(d, kind, mesh) and the
    refinement starts, as a sweep of every point gives them.

    A net that one radius_profile block holds, or any net when lipschitz
    overflows, is swept whole.  Otherwise net points that cannot reach
    the starts are skipped and read +inf; see ``chi_measure`` for why the
    result is the same.  Either way one point of each antipodal pair is
    evaluated (``_fill``).
    """
    spacing = 4.0 * mesh
    n, d = xs.shape
    anti = _net_antipodes(xs, kind, mesh)
    vals = np.full(n, np.inf)
    done = np.zeros(n, dtype=bool)
    steps = []
    if n > _block_rows(prods.shape[0], d) and math.isfinite(lipschitz):
        coarse, steps = _net_levels(d, kind, mesh, n)
    if not steps:
        _fill(prods, xs, anti, kind, vals, done, np.arange(n))
        cut = _starts_cut(xs, vals, kind, spacing)
        return vals, _basin_starts(xs, vals, kind, mesh, cut)
    _fill(prods, xs, anti, kind, vals, done, coarse)
    margin = _ROUNDING_MARGIN * lipschitz
    lower = np.empty(n)
    lower[coarse] = vals[coarse] - margin
    gaps = [[vector_norms(xs[new] - xs[q], kind) for q in (left, right)]
            for new, left, right in steps]
    threshold = math.inf
    while True:
        for (new, left, right), gap in zip(steps, gaps):
            threshold = min(threshold, _head_cut(xs, vals, done, threshold,
                                                 kind, spacing))
            bound = np.maximum(*(lower[q] - lipschitz * g
                                 for q, g in zip((left, right), gap)))
            todo = new[(bound <= threshold) & ~done[new]]
            if todo.size:
                _fill(prods, xs, anti, kind, vals, done, todo)
            lower[new] = np.where(done[new], vals[new] - margin, bound)
        cut = _head_cut(xs, vals, done, threshold, kind, spacing)
        if cut == math.inf:
            cut = _head_cut(xs, vals, done, math.inf, kind, spacing)
        if cut <= threshold or done.all():
            return vals, _basin_starts(xs, vals, kind, mesh, cut)
        threshold = cut


def chi_measure(
    mset: MatrixSet,
    p: int,
    kind: NormKind,
    mesh: float,
    *,
    max_words: int = DEFAULT_WORD_BUDGET,
) -> ChiEstimate:
    """Estimate the irreducibility measure over the kind-unit sphere.

    The sphere net has covering radius at most ``mesh`` in the kind
    metric, and the radius function is Lipschitz with constant at most
    max_G ||G||; the reported constant doubles it for slack, giving

        certified_lower = max(0, sampled_inf - lipschitz * mesh).

    Local refinement only lowers sampled_inf by evaluating the radius at
    genuine sphere points, so both bounds stay valid.  The radius is even,
    r(-x) = r(x) to the bit, so the search runs on the projective sphere,
    with the distance min(||x - y||, ||x + y||) in the kind norm.  The
    starts are the net points of value at most a cut T (below) that no
    earlier point in the stable (value, index) order lies within
    projective distance mesh of: projective local minima, taken lowest
    first, at most 8, so a basin and its mirror get one start.  T is the
    value of the 8th of the lowest net points greedily thinned to plain
    spacing 4 * mesh, +inf when there are fewer.  The pattern searches run
    in lockstep (``geometry.refine_minimum``): one radius_profile call per
    round on the neighbor rings of every start still running, in 2-d at
    four halvings of the step at once.  Starts are then taken in order and
    a later one replaces the minimum only when strictly lower, so the
    first start wins ties.  A start that this lipschitz shows cannot end
    strictly below another start's current value, however it moves in
    its remaining rounds, stops early; it could not be that first
    minimum, so sampled_inf and argmin keep the bits of searches that run
    every start to its end.  Only d in {1, 2, 3} has a sphere net and an
    exact hull sweep; any other d raises UnsupportedDimensionError before
    a reach product is formed.

    A net that one radius_profile block holds, or any net when lipschitz
    overflows, is swept whole.  A larger one is taken level by level
    (``geometry._net_levels``): the coarsest level is evaluated, and each
    point x of a finer level gets the lower bound

        max over its two parents q of  bound(q) - lipschitz * ||x - q||,

    the distance in the kind norm.  An evaluated point's bound is its
    value minus 2^-20 * lipschitz, a margin for rounding in the computed
    radii; lipschitz is twice the true constant, so every step has
    slack besides.  A point is evaluated only when its bound is at most a
    threshold and otherwise reads +inf.  Before each level the threshold
    drops to the cut T of the points evaluated so far, and it never rises
    within a pass; that T is taken from the evaluated points at or below
    the threshold alone (``_head_cut``), which gives the same
    min(threshold, T).  So every skipped point lies above the final T,
    every net point of value <= T was evaluated, and the stable sort of the
    partial values begins with exactly the points of the full sort that
    are <= T, in the same order.  When the thinning picks 8 points, all
    <= T, it reads only that common head, so T is the full sweep's; the
    start rule reads only the head too, since every point earlier than
    one <= T is itself <= T.  So the starts and the minimum (the first
    start) are those of the full sweep; ``samples`` stays the net size.
    Otherwise the threshold rises to the new T and another pass evaluates
    the points then under it; a pass that adds no point, or a net
    evaluated in full, ends the search.

    Whole or by levels, one point of each antipodal pair of the net (one
    the exact negation of the other) is evaluated and the other copies
    its value, the same bits (``_fill``).
    """
    _check_mesh(mesh)
    d = mset.dim
    xs = sphere_net(d, kind, mesh)
    prods = reach_products(mset, p, max_words)
    lipschitz = 2.0 * float(np.max(operator_norms(prods, kind)))
    vals, starts = _net_profile(prods, xs, kind, mesh, lipschitz)
    best_idx = int(np.argmin(vals))
    sampled = float(vals[best_idx])
    argmin = xs[best_idx]
    if d > 1:
        def value_fn(block):
            return radius_profile(prods, block, kind)

        x_ref, v_ref = refine_minimum(value_fn, xs[starts], vals[starts],
                                      kind, mesh, lipschitz)
        for x, v in zip(x_ref, v_ref):
            if v < sampled:
                sampled = float(v)
                argmin = x
    certified = max(0.0, sampled - lipschitz * mesh)
    return ChiEstimate(
        p=p,
        kind=kind,
        sampled_inf=sampled,
        certified_lower=certified,
        lipschitz=lipschitz,
        mesh=mesh,
        argmin=argmin,
        samples=xs.shape[0],
    )


# ---------------------------------------------------------------------------
# Algebraic irreducibility


@dataclass(frozen=True)
class BurnsideReport:
    """Span dimension of the generated algebra and its verdict.

    ``status`` is "irreducible" or "reducible" when the verdict is exact,
    which covers d <= 3: full span forces irreducibility in any dimension;
    for d = 2 a deficient span is settled by searching for a common real
    eigendirection, and for d = 3 a proper complex invariant subspace W
    always yields a real one through W + conj(W) or W ∩ conj(W).  For
    d >= 4 a deficient span is reported as "complex-reducible" and the
    boolean is a conservative False.
    """

    irreducible: bool
    rank: int
    status: str


def invariant_subspace_search_2d(mset: MatrixSet) -> np.ndarray | None:
    """A unit vector spanning a common invariant line of a planar set.

    Candidate lines are the real eigendirections of the first member that
    is not a multiple of the identity (any line is invariant under a
    scalar member).  Returns None when no common line exists.  It runs on
    the members / 2^e (see ``core``), so its tolerances hold at any scale.
    """
    if mset.dim != 2:
        raise ValueError("this search is specific to d = 2")
    mats = _binary_scale(mset)[1]

    def is_scalar(m: np.ndarray) -> bool:
        scale = float(np.max(np.abs(m))) or 1.0
        return np.max(np.abs(m - (np.trace(m) / 2.0) * np.eye(2))) \
            <= 1e-12 * scale

    def invariant_under_all(v: np.ndarray) -> bool:
        for m in mats:
            w = m @ v
            crossed = abs(w[0] * v[1] - w[1] * v[0])
            if crossed > 1e-9 * (1.0 + float(np.hypot(w[0], w[1]))):
                return False
        return True

    anchor = next((m for m in mats if not is_scalar(m)), None)
    if anchor is None:
        return np.array([1.0, 0.0])
    for lam in np.linalg.eigvals(anchor):
        if abs(lam.imag) > 1e-9 * (1.0 + abs(lam)):
            continue
        v = np.linalg.svd(anchor - lam.real * np.eye(2))[2][-1]
        if invariant_under_all(v):
            return v / np.hypot(v[0], v[1])
    return None


def burnside_detail(mset: MatrixSet) -> BurnsideReport:
    """Rank of the span of all products of length 0..d^2 of the members /
    2^e (see ``core``), with verdict: the same bits for all 2^k multiples."""
    d = mset.dim
    if d > 8:
        raise UnsupportedDimensionError(
            f"the span test is limited to d <= 8, got d={d}"
        )
    dd = d * d
    basis = np.zeros((0, dd))
    rank = 0

    def try_add(mat: np.ndarray) -> bool:
        nonlocal basis, rank
        if rank == dd:
            return False
        v = mat.reshape(-1)
        norm = float(np.linalg.norm(v))
        if norm == 0.0:
            return False
        res = v - basis.T @ (basis @ v) if rank else v.copy()
        # One re-orthogonalization pass keeps the basis numerically tight.
        if rank:
            res = res - basis.T @ (basis @ res)
        rnorm = float(np.linalg.norm(res))
        if rnorm <= 1e-10 * norm:
            return False
        basis = np.vstack([basis, res / rnorm])
        rank += 1
        return True

    _walk_products(_binary_scale(mset)[1], dd, try_add)
    if rank == dd or (d == 2 and invariant_subspace_search_2d(mset) is None):
        status = "irreducible"
    else:
        status = "reducible" if d <= 3 else "complex-reducible"
    return BurnsideReport(irreducible=status == "irreducible", rank=rank,
                          status=status)


def burnside_irreducible(mset: MatrixSet) -> bool:
    """True when the members admit no proper nonzero invariant subspace.

    Exact for d <= 3; for d >= 4 complex-reducible sets are conservatively
    reported as reducible (see BurnsideReport).
    """
    return burnside_detail(mset).irreducible


@dataclass(frozen=True, eq=False)
class CrosscheckReport(Record):
    """Agreement between the algebraic test and the sampled measure."""

    irreducible: bool
    rank: int
    status: str
    chi: ChiEstimate
    agreement: str


def _require_lemma1_p(mset: MatrixSet, p: int, what: str) -> None:
    """Lemma 1 ties chi_p > 0 to irreducibility only for p >= d - 1."""
    if p < mset.dim - 1:
        raise ValueError(
            f"{what} needs p >= d - 1 = {mset.dim - 1}, got p={p}")


def lemma1_crosscheck(
    mset: MatrixSet,
    p: int,
    kind: NormKind,
    mesh: float,
    tolerance: float = 1e-6,
    max_words: int = DEFAULT_WORD_BUDGET,
) -> CrosscheckReport:
    """Compare the span test against the sampled measure.

    For p >= d - 1 the measure is positive exactly on irreducible sets, so
    the two routes must agree: "consistent" when they do (a positive
    certificate on irreducible sets, a sample at most ``tolerance`` on
    reducible ones), "inconclusive" when the mesh was too coarse to
    certify, "inconsistent" otherwise.  A smaller p raises ValueError.
    """
    if not 0.0 <= tolerance < math.inf:
        raise ValueError(
            f"tolerance must be non-negative and finite, got {tolerance}")
    _require_lemma1_p(mset, p, "the crosscheck")
    detail = burnside_detail(mset)
    chi = chi_measure(mset, p, kind, mesh, max_words=max_words)
    # ``coarse``: a disagreement that a finer mesh could still remove.
    if detail.irreducible:
        agrees = chi.certified_lower > 0.0
        coarse = chi.sampled_inf > 0.0
    else:
        agrees = chi.sampled_inf <= tolerance
        coarse = chi.certified_lower == 0.0
    agreement = ("consistent" if agrees
                 else "inconclusive" if coarse else "inconsistent")
    return CrosscheckReport(
        irreducible=detail.irreducible,
        rank=detail.rank,
        status=detail.status,
        chi=chi,
        agreement=agreement,
    )

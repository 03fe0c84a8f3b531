"""Irreducibility of matrix sets and its quantitative measure.

A set is irreducible when its members share no proper nonzero invariant
subspace.  The quantitative side measures, for each unit vector x, how
large a norm ball fits inside the symmetrized convex hull of the points
G x, where G ranges over all products of at most p members (the identity
included).  The infimum of that radius over the unit sphere is positive
exactly when the set is irreducible, provided p >= d - 1.
"""

from __future__ import annotations

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
    _BLOCK_FLOATS,
    _block_rows,
    _check_mesh,
    _Net,
    _net,
    kind_normalize,
    radius_profile,
    vector_norms,
)

# The net walk's margin for rounding, as a multiple of the true Lipschitz
# constant max_G ||G||: 2^-20 of chi_measure's reported constant, twice
# that.  chi_measure's docstring shows what it covers.
_ROUNDING_MARGIN = 2.0 ** -19

# The rounding term of a displacement bound, as a multiple of max_G ||G||:
# absolute, since a displacement can be far below that constant times
# its gap.  chi_measure's docstring shows what it covers.
_DISPLACEMENT_ROUNDING = 2.0 ** -47

# A complex pair of eigenvalues of a planar matrix A whose imaginary parts
# are within this multiple of A's largest entry is taken as the double
# root tr(A) / 2: LAPACK splits the double eigenvalue of a defective
# (Jordan) matrix into a pair about sqrt(eps) |A| apart (at most 1.6e-8
# |A| on 10^4 random S J S^-1, S = I + 0.5 U).  It is 4 sqrt(eps).  The
# 1e-9 invariance test cannot tell a real line from a complex pair
# +-y i, whose best line has a residual near y^2 / |A|, so the window is
# kept as narrow as the splits allow.
_JORDAN_SPLIT = 2.0 ** -24


@dataclass(frozen=True, eq=False)
class ChiEstimate(Record):
    """Sampled irreducibility measure plus its certified lower bound.

    ``sampled_inf`` is the smallest hull radius found on the sphere net
    and at a few points of possible invariant subspaces, attained at
    ``argmin``, hence an upper bound of the true infimum.
    ``certified_lower`` subtracts the Lipschitz slack lipschitz * mesh and
    is a rigorous lower bound; 0 means the mesh was too coarse to certify
    positivity, not an error.
    """

    p: int
    kind: NormKind
    sampled_inf: float
    certified_lower: float
    lipschitz: float
    mesh: float
    argmin: np.ndarray
    samples: int


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

    Length 0 contributes the identity.  Only exact duplicates are dropped,
    compared by value, so -0.0 equals 0.0; they contribute nothing to the
    hulls downstream, and the walk does not extend them.  chi is not
    homogeneous, so a product that overflows raises ValueError.
    """
    if p < 0:
        raise ValueError("p must be a non-negative integer")
    _check_budget("products of length <= {n} require {count} words, "
                  "budget is {budget}", mset.r, p, "max_words", max_words,
                  first=0)
    kept: dict[bytes, np.ndarray] = {}
    try:
        with np.errstate(over="raise"):
            _walk_products(
                mset.stacked(), p,
                lambda cand: kept.setdefault((cand + 0.0).tobytes(),
                                             cand) is cand)
    except FloatingPointError:
        raise ValueError(f"a product of at most {p} members leaves the "
                         "float range") from None
    return np.stack(list(kept.values()))


def sphere_profile(
    mset: MatrixSet,
    p: int,
    kind: NormKind,
    mesh: float,
    max_words: int = DEFAULT_WORD_BUDGET,
) -> tuple[np.ndarray, np.ndarray]:
    """Net points of the unit sphere and the hull radius at each of them.

    The points are a copy of sphere_net's; one point of each antipodal
    pair is evaluated and the other copies its value (``_fill``).
    """
    net = _net(mset.dim, kind, mesh)
    prods = reach_products(mset, p, max_words)
    n = net.points.shape[0]
    vals = np.empty(n)
    _fill(prods, net, kind, vals, np.zeros(n, dtype=bool), np.arange(n))
    return net.points.copy(), vals


def _fill(prods: np.ndarray, net: _Net, kind: NormKind, vals: np.ndarray,
          done: np.ndarray, todo: np.ndarray) -> None:
    """Hull radii of the net points ``todo`` into vals, marked done.

    radius_profile runs on one point of each antipodal pair (the net's
    antipode table, ``_Net.antipodes``): a point whose antipode
    is done, or comes earlier in todo, copies its value.  The radius is
    even to the bit up to the sign of zero: the planes of -x are those of
    x negated, every value takes |.| of them, and a zero coordinate of x
    enters only products and sums whose nonzero results ignore its sign.
    """
    twin = net.antipodes[todo]
    paired = twin >= 0
    copy = paired & done[twin]
    done[todo] = True
    copy |= paired & (twin < todo) & done[twin]
    own = todo[~copy]
    if own.size:
        vals[own] = radius_profile(prods, net.points[own], kind)
    vals[todo[copy]] = vals[twin[copy]]


def _displacements(prods: np.ndarray, vs: np.ndarray,
                   kind: NormKind) -> np.ndarray:
    """max_G ||G v|| in the kind norm for each row v of vs, G over the
    (m, d, d) stack prods: one matmul per block of rows on the products
    divided by 2^e, e the exponent of their largest entry, so that no
    image overflows; the maxima are scaled back by 2^e."""
    e = math.frexp(float(np.max(np.abs(prods), initial=0.0)))[1]
    scaled = np.ldexp(prods, -e).transpose(0, 2, 1)
    m, d = prods.shape[:2]
    out = np.empty(vs.shape[0])
    rows = max(1, _BLOCK_FLOATS // (m * d))
    for lo in range(0, vs.shape[0], rows):
        images = vs[lo:lo + rows] @ scaled
        out[lo:lo + rows] = np.max(vector_norms(images, kind), axis=0)
    with np.errstate(over="ignore"):
        return np.ldexp(out, e)


def _net_profile(prods: np.ndarray, net: _Net, kind: NormKind,
                 lipschitz: float) -> np.ndarray:
    """Hull radii on the points of ``net`` (``geometry._net``), +inf at the
    points skipped; their minimum and its first index are a full sweep's.

    ``lipschitz`` is the radius's Lipschitz constant in the kind norm:
    chi_measure passes the true one, max_G ||G||, half the constant it
    reports.  A net of one level, a net that one radius_profile block
    holds, or any net when 2 * lipschitz overflows, is swept whole; a
    parent lies within kind distance 2 of its point, so every product
    lipschitz * gap of the walk is finite.  Otherwise the levels are
    walked once, and a point is evaluated only when its bound is at most
    the least value evaluated so far; see ``chi_measure`` for why that
    changes no minimum.  A point the Lipschitz bound would evaluate gets
    the displacement bound of a parent q that clears that value by its
    bare gap, B(q) - ||x - q|| above it: B(q) - max_G ||G (x - q)||
    (``_displacements``) less the rounding term _DISPLACEMENT_ROUNDING *
    lipschitz.  The identity is a reach product, so max_G ||G v|| >=
    ||v||, and no other parent can lift a bound past that value.  Either
    way one point of each antipodal pair, up to the sign of zero, is
    evaluated (``_fill``).
    """
    n, d = net.points.shape
    vals = np.full(n, np.inf)
    done = np.zeros(n, dtype=bool)
    if (not net.steps or n <= _block_rows(prods.shape[0], d)
            or not math.isfinite(2.0 * lipschitz)):
        _fill(prods, net, kind, vals, done, np.arange(n))
        return vals
    coarse = net.coarse
    _fill(prods, net, kind, vals, done, coarse)
    best = float(np.min(vals[coarse]))
    margin = _ROUNDING_MARGIN * lipschitz
    slack = _DISPLACEMENT_ROUNDING * lipschitz
    lower = np.empty(n)
    lower[coarse] = vals[coarse] - margin
    for new, left, right, left_gap, right_gap in net.steps:
        tops = lower[left], lower[right]
        bound = np.maximum(tops[0] - lipschitz * left_gap,
                           tops[1] - lipschitz * right_gap)
        for parent, top, gap in zip((left, right), tops,
                                    (left_gap, right_gap)):
            near = np.flatnonzero((bound <= best) & (top - gap > best))
            if near.size:
                reach = _displacements(
                    prods, net.points[new[near]] - net.points[parent[near]],
                    kind)
                bound[near] = np.maximum(bound[near],
                                         top[near] - reach - slack)
        lower[new] = bound
        todo = new[bound <= best]
        if todo.size:
            _fill(prods, net, kind, vals, done, todo)
            lower[todo] = vals[todo] - margin
            best = min(best, float(np.min(vals[todo])))
    return vals


def _invariant_points(mset: MatrixSet, kind: NormKind) -> np.ndarray:
    """Kind-unit points in a common invariant subspace of the set, if it
    has one: there every G x lies in it, and the radius is 0 but for
    rounding.  A common invariant line is spanned by a real eigenvector of
    every member and of their sum; a common invariant plane in 3-d is
    normal to a real eigenvector of every transpose.  The points are the
    nonzero real and imaginary parts of the eigenvectors of the members /
    2^e (``core._binary_scale``) and of their sum, and in 3-d those of the
    transposes crossed with the axis of their smallest |component|.
    """
    mats = _binary_scale(mset)[1]
    mats = np.concatenate([mats, np.sum(mats, axis=0, keepdims=True)])
    d = mats.shape[-1]
    vecs = np.linalg.eig(mats)[1].transpose(0, 2, 1).reshape(-1, d)
    points = [vecs.real, vecs.imag]
    if d == 3:
        normals = np.linalg.eig(mats.transpose(0, 2, 1))[1]
        normals = normals.transpose(0, 2, 1).reshape(-1, d)
        for part in (normals.real, normals.imag):
            axes = np.eye(d)[np.argmin(np.abs(part), axis=1)]
            points.append(np.cross(part, axes))
    points = np.concatenate(points)
    top = np.max(np.abs(points), axis=1)
    return kind_normalize(points[top > 0] / top[top > 0, None], kind)


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
    metric.  The radius is r(x) = min over dual-unit f of max_G |f(G x)|,
    so it is Lipschitz in the kind norm with constant L = max_G ||G||, in
    the kind operator norm; the reported constant doubles it for slack,
    giving

        certified_lower = max(0, sampled_inf - lipschitz * mesh).

    sampled_inf is the least radius at the net points and at the points
    of ``_invariant_points`` (one radius_profile call), argmin the first
    net point of least value unless a candidate is strictly lower.  Those
    are genuine sphere points, so sampled_inf stays an upper estimate and
    they can only lower the certificate, which holds from the net alone:
    a net value is at most 2^-31 L above the exact radius (below), which
    the doubled constant's extra L * mesh covers, as a net of d >= 2 needs
    mesh above 2^-31 to fit ``geometry.MAX_NET_POINTS`` (the 1-d net is
    the sphere).  Only d in {1, 2, 3} has a sphere net and an exact hull
    sweep; any other d raises UnsupportedDimensionError before a reach
    product is formed.

    A net of one level, a net that one radius_profile block holds, or any
    net when lipschitz overflows, is swept whole.  A larger one is walked
    once, level by level (the steps of ``geometry._Net``, whose parent
    gaps are built with the net), in the manner of Piyavskii's
    Lipschitz minimization, at the true constant L: the coarsest level
    is evaluated, and each point x of a finer level gets the lower bound

        B(x) = max over its two parents q of  B(q) - L * ||x - q||,

    the distance in the kind norm.  An evaluated point's bound is its
    value minus the margin M = 2^-20 * lipschitz = 2^-19 L.  A point is
    evaluated only when its bound is at most the least value evaluated
    before its level, and otherwise reads +inf; ``samples`` stays the
    net size.  Where B(x) is at most that value but B(q) - ||x - q||
    exceeds it for a parent q, B(x) is raised to the displacement bound

        B(q) - max_G ||G (x - q)|| - T,   T = 2^-47 L,

    which holds by r(x) >= r(q) - max_G ||G (x - q)||, as r(x) = min_f
    max_G |f(G x)|; it is far below L * ||x - q|| on sets that are not
    isometries, and no lower than ||x - q||, as the identity is a reach
    product.

    Why a skipped point lies strictly above the net minimum, so that the
    minimum and its first index (np.argmin) are those of a sweep of
    every point, bit for bit.  Let r be the exact radius at a net point
    (at its float coordinates), r^ the computed one, s <= L (1 + 2^-50)
    the largest |coordinate| of its points G x, and eps = 2^-53.

    - Above at an evaluated point: r^ <= r + 2^-31 L.  The sweep forms a
      normal of the facet that the inscribed ball touches, from three of
      its vertices, with relative error rho, and its ratio is at most
      r + (8 rho + 20 eps) s; pruning adds at most 2^-32 s
      (``geometry._kept_points``).  A normal whose dual norm is at most
      the _DEGENERATE_REL floor is dropped, which can only raise r^, so
      this needs the assumption of ``_kept_points``: in 3-d the touching
      facet has a vertex triangle with no angle under 2^-14 radians
      (rho <= 2^-36); in 2-d, that fewer than 1000 edges too short for
      a usable normal precede a usable one, j of them putting it at most
      2.2e-13 j s above r.
    - Below at a skipped point: r^ >= r - 0.45 M.  Every computed ratio
      is the exact support ratio of its computed normal but for the
      rounding of its dots and dual norm, at least r - 20 eps s.  r^ is
      0 only where no normal is usable.  In 2-d, for m >= 2 points the
      point of largest |coordinate| gives an edge with a usable normal,
      and for m = 1 the hull is a segment, r = 0.  In 3-d, with fewer
      than three points r = 0; otherwise a point a of largest l2 norm
      and points b, c of the hull's projection along a give a triple
      with |det| >= |a| r2^2, r2 >= r / sqrt(3) the l2 inradius, so a
      candidate normal of l2 norm at least r2^2.  Dropped with all the
      others, it has dual norm under 1.25e-13 s^2 rounding included, so
      r^2 <= 3 sqrt(3) 1.25e-13 s^2 and r <= 8.1e-7 s < 0.45 M.
    - Rounding of the bounds: forming B from r^ rounds by at most 2 eps
      L, and each step, with the difference, its norm, the product, the
      subtraction and a computed max ||G|| within a relative 2^-48 of the
      exact one, by at most 2^-46 L, as ||x - q|| <= 2 and |B| <= 44 L.
      A chain of skipped points takes one step a level: at most 18, on
      a 2-d net of 2^22 points (its stride, under 2^22 / 12, halves 18
      times); the icosphere and the divisor chains of the 3-d grids
      (q <= 1022) take at most 9.
      A displacement step keeps that budget.  Its computed max_G ||G v||
      lies within 19 eps L < 2^-48 L of the exact one for the exact v =
      x - q, |v| <= 2: the difference rounds by eps |v|, which moves the
      maximum by at most 2 eps L; each image under G / 2^e by 3 eps
      |G / 2^e| |v| entrywise, whose kind norm is at most sqrt(3)
      ||G / 2^e|| |v|; its norm by 3 eps relative; and an underflow to a
      subnormal or zero by far less than eps L, since ||G / 2^e|| >= 1/2
      for the G of largest entry.  The term T, absolute since the
      displacement can be far below L ||x - q||, covers that error, and
      the two subtractions round by under 2^-46.4 L.

    So every bound satisfies B(x) <= r(x) - M + 2^-31 L + 2^-41 L: true
    for an evaluated point, and carried along each step by r(x) >= r(q)
    - L ||x - q||.  A skipped x has B(x) > best, the least value
    evaluated before its level, so r^(x) >= r(x) - 0.45 M > best + 0.55
    M - 2^-30 L > best, strictly above the net minimum.

    Whole or by levels, one point of each antipodal pair of the net (one
    the negation of the other but for the sign of a zero, which pairs
    every point of the 3-d nets) is evaluated and the other copies its
    value, the same bits (``_fill``): the radius is even up to the sign
    of zero, r(-x) = r(x) to the bit, and no value reads the sign of a
    zero coordinate.
    """
    _check_mesh(mesh)
    net = _net(mset.dim, kind, mesh)
    prods = reach_products(mset, p, max_words)
    norm = float(np.max(operator_norms(prods, kind)))
    cands = _invariant_points(mset, kind)
    vals = np.concatenate([_net_profile(prods, net, kind, norm),
                           radius_profile(prods, cands, kind)])
    best = int(np.argmin(vals))
    n = net.points.shape[0]
    argmin = (net.points[best] if best < n else cands[best - n]).copy()
    sampled = float(vals[best])
    lipschitz = 2.0 * norm
    certified = max(0.0, sampled - lipschitz * mesh)
    return ChiEstimate(
        p=p,
        kind=kind,
        sampled_inf=sampled,
        certified_lower=certified,
        lipschitz=lipschitz,
        mesh=mesh,
        argmin=argmin,
        samples=n,
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
    scalar member).  A complex pair within _JORDAN_SPLIT of that member's
    largest entry stands for the real double root of a defective member,
    whose one eigendirection is a candidate; whether a candidate is
    invariant is left to the same test as the others.  Returns None when
    no common line exists.  It runs on the members / 2^e (see ``core``),
    so its tolerances hold at any scale.
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
    size = float(np.max(np.abs(anchor)))
    for lam in np.linalg.eigvals(anchor):
        root = lam.real
        if abs(lam.imag) > 1e-9 * (1.0 + abs(lam)):
            if abs(lam.imag) > _JORDAN_SPLIT * size:
                continue
            root = np.trace(anchor) / 2.0
        v = np.linalg.svd(anchor - root * np.eye(2))[2][-1]
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
    certificate on irreducible sets, a sample at most ``tolerance`` times
    max_G ||G|| = lipschitz / 2 >= 1, capped at the largest float, on
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
        scale = min(chi.lipschitz / 2.0, np.finfo(float).max)
        agrees = chi.sampled_inf / scale <= tolerance
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

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
    _check_mesh,
    _net_size,
    halton_directions,
    kind_normalize,
    radius_profile,
    refine_minimum,
    sphere_net,
    support_radius_upper,
    vector_norms,
)

_POINT_DEDUP_TOL = 1e-12

# Support values (base point, direction, reach product) the d >= 4
# fallback forms at once.
_SAMPLED_FLOATS = 1 << 16


@dataclass(frozen=True, eq=False)
class ReachSet:
    """Points reachable from x by products of at most p members, symmetrized."""

    x: np.ndarray
    p: int
    points: np.ndarray


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
    """Arrays kept in offer order, skipping near-duplicates of kept ones.

    A candidate is a duplicate when some kept array is within
    _POINT_DEDUP_TOL * (1 + max|candidate|) of it in every entry; one
    numpy reduction compares it against all kept arrays at once.
    """

    def __init__(self, shape: tuple[int, ...]) -> None:
        self._buf = np.empty((16, *shape))
        self._count = 0

    def offer(self, cand: np.ndarray) -> bool:
        kept = self._buf[:self._count]
        tol = _POINT_DEDUP_TOL * (1.0 + float(np.max(np.abs(cand))))
        gaps = np.max(np.abs(cand - kept), axis=tuple(range(1, kept.ndim)))
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
                  "budget is {budget}", mset.r, p, max_words, first=0)
    kept = _DedupStack((mset.dim, mset.dim))
    try:
        with np.errstate(over="raise"):
            _walk_products(mset.stacked(), p, kept.offer)
    except FloatingPointError:
        raise ValueError(f"a product of at most {p} members leaves the "
                         "float range") from None
    return kept.stack()


def reach_set(
    mset: MatrixSet, p: int, x, max_words: int = DEFAULT_WORD_BUDGET
) -> ReachSet:
    """The symmetrized reach points {±G x} with duplicates removed."""
    base = np.asarray(x, dtype=float)
    if base.shape != (mset.dim,):
        raise ValueError(f"x must be a vector of length {mset.dim}")
    prods = reach_products(mset, p, max_words)
    raw = prods @ base
    raw = np.concatenate([raw, -raw], axis=0)
    kept = _DedupStack(base.shape)
    for pt in raw:
        kept.offer(pt)
    return ReachSet(x=base, p=p, points=kept.stack())


def sphere_profile(
    mset: MatrixSet,
    p: int,
    kind: NormKind,
    mesh: float,
    max_words: int = DEFAULT_WORD_BUDGET,
) -> tuple[np.ndarray, np.ndarray]:
    """Net points of the unit sphere and the hull radius at each of them."""
    prods = reach_products(mset, p, max_words)
    xs = sphere_net(mset.dim, kind, mesh)
    return xs, radius_profile(prods, xs, kind)


def _select_starts(xs: np.ndarray, vals: np.ndarray, kind: NormKind,
                   spacing: float, limit: int = 8) -> list[int]:
    """Lowest-value net points, greedily thinned to pairwise spacing."""
    order = np.argsort(vals, kind="stable")
    chosen: list[int] = []
    for idx in order:
        if len(chosen) >= limit:
            break
        if all(vector_norms(xs[idx] - xs[j], kind) >= spacing for j in chosen):
            chosen.append(int(idx))
    return chosen


def chi_measure(
    mset: MatrixSet,
    p: int,
    kind: NormKind,
    mesh: float,
    *,
    max_words: int = DEFAULT_WORD_BUDGET,
    sampling_fallback: bool = False,
) -> ChiEstimate:
    """Estimate the irreducibility measure over the kind-unit sphere.

    The sphere net has covering radius at most ``mesh`` in the kind
    metric, and the radius function is Lipschitz with constant at most
    max_G ||G||; the reported constant doubles it for slack, giving

        certified_lower = max(0, sampled_inf - lipschitz * mesh).

    Local refinement only lowers sampled_inf by evaluating the radius at
    genuine sphere points, so both bounds stay valid.  It starts from the
    lowest net points, thinned to spacing 4 * mesh (at most 8), and runs
    their pattern searches in lockstep: one radius_profile call per round
    on the neighbor rings of every start still running.  Starts are then
    taken in order and a later one replaces the minimum only when strictly
    lower, so the first start wins ties.  For d >= 4 there is
    no exact hull; ``sampling_fallback=True`` switches to a sampled upper
    estimate with certified_lower pinned at 0.
    """
    _check_mesh(mesh)
    d = mset.dim
    prods = reach_products(mset, p, max_words)
    lipschitz = 2.0 * float(np.max(operator_norms(prods, kind)))
    exact = d <= 3
    if not exact:
        if not sampling_fallback:
            raise UnsupportedDimensionError(
                f"exact hulls are available for d in {{1, 2, 3}}, got d={d}; "
                "pass sampling_fallback=True for a non-certified upper estimate"
            )
        xs, vals = _chi_sampled_upper(prods, d, kind, mesh)
    else:
        xs = sphere_net(d, kind, mesh)
        vals = radius_profile(prods, xs, kind)
    best_idx = int(np.argmin(vals))
    sampled = float(vals[best_idx])
    argmin = xs[best_idx]
    if exact and d > 1:
        def value_fn(block):
            return radius_profile(prods, block, kind)

        starts = _select_starts(xs, vals, kind, spacing=4.0 * mesh)
        x_ref, v_ref = refine_minimum(value_fn, xs[starts], vals[starts],
                                      kind, step=mesh)
        for x, v in zip(x_ref, v_ref):
            if v < sampled:
                sampled = float(v)
                argmin = x
    certified = max(0.0, sampled - lipschitz * mesh) if exact else 0.0
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


def _chi_sampled_upper(prods: np.ndarray, d: int, kind: NormKind,
                       mesh: float) -> tuple[np.ndarray, np.ndarray]:
    """Base points and sampled hull radii for the d >= 4 upper estimate.

    The Halton directions serve twice: normalized, as the base points,
    and as the support directions of every hull, whose points G x need no
    negated copies since the support is even.  Points are evaluated in
    batches of about _SAMPLED_FLOATS support values.
    """
    count = max(64, _net_size(np.ceil(2.0 * np.pi / mesh) * 10.0,
                              f"the sampled estimate at mesh {mesh}"))
    dirs = halton_directions(d, count)
    xs = kind_normalize(dirs, kind)
    batch = max(1, _SAMPLED_FLOATS // (prods.shape[0] * dirs.shape[0]))
    return xs, np.concatenate([
        support_radius_upper((prods @ xs[lo:lo + batch, None, :, None])[..., 0],
                             kind, dirs)
        for lo in range(0, xs.shape[0], batch)])


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
    the two routes must agree: "consistent" when they do with a positive
    certificate (or a near-zero sample on reducible sets), "inconclusive"
    when the mesh was too coarse to certify, "inconsistent" otherwise.
    """
    if not 0.0 <= tolerance < math.inf:
        raise ValueError(
            f"tolerance must be non-negative and finite, got {tolerance}")
    detail = burnside_detail(mset)
    chi = chi_measure(mset, p, kind, mesh, max_words=max_words)
    if detail.irreducible:
        if chi.sampled_inf > tolerance and chi.certified_lower > 0.0:
            agreement = "consistent"
        elif chi.certified_lower == 0.0 and chi.sampled_inf > 0.0:
            agreement = "inconclusive"
        else:
            agreement = "inconsistent"
    else:
        if chi.sampled_inf <= tolerance:
            agreement = "consistent"
        elif chi.certified_lower == 0.0:
            agreement = "inconclusive"
        else:
            agreement = "inconsistent"
    return CrosscheckReport(
        irreducible=detail.irreducible,
        rank=detail.rank,
        status=detail.status,
        chi=chi,
        agreement=agreement,
    )


__all__ = [
    "ReachSet",
    "ChiEstimate",
    "BurnsideReport",
    "CrosscheckReport",
    "reach_products",
    "reach_set",
    "sphere_profile",
    "chi_measure",
    "burnside_detail",
    "burnside_irreducible",
    "invariant_subspace_search_2d",
    "lemma1_crosscheck",
]

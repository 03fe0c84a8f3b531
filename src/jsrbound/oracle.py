"""Independent reference implementations for cross-checking.

Each recomputes by a route of its own what the main modules compute, so
agreement is meaningful evidence.  ``brute_force_interval`` materializes
levels of products list-by-list (memory-heavy on purpose), each product
formed as member @ prod, and stacks each level into one (r^n, d, d)
array: one dense eigenvalue call (geev) for its radii and one call for
its norms, a full SVD in l2 and column/row sums in l1/linf.  It shares
no kernel with the chunked product engine of ``core``: no closed form,
no screen.  A level whose largest entry leaves [2^-500, 2^500] is
divided by 2^s, s added to a running exponent.  ``inscribed_radius``
builds the hull with Qhull, the reference for the sweep
``geometry.radius_profile``; it imports scipy when called.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_WORD_BUDGET,
    MatrixSet,
    NormKind,
    Record,
    Word,
    _check_budget,
)
from .errors import UnsupportedDimensionError
from .geometry import dual_kind, vector_norms


# Floats of the pairwise sums inscribed_radius holds at once.
_SYMMETRY_BLOCK_FLOATS = 2 ** 16


@dataclass(frozen=True, eq=False)
class OracleInterval(Record):
    """Best lower/upper bounds over n = 1..n_max with witness words."""

    n_max: int
    kind: NormKind
    lower: float
    upper: float
    witness_lower: Word
    witness_upper: Word


def _level_norms(stack: np.ndarray, kind: NormKind) -> np.ndarray:
    """Kind operator norms of a (k, d, d) stack, one value per matrix."""
    if kind is NormKind.L1:
        return np.max(np.sum(np.abs(stack), axis=1), axis=-1)
    if kind is NormKind.LINF:
        return np.max(np.sum(np.abs(stack), axis=2), axis=-1)
    return np.max(np.linalg.svd(stack, compute_uv=False), axis=-1)


def _ldexp(x: float, whole: int) -> float:
    """x * 2^whole, +inf past the float range; x itself for whole = 0."""
    try:
        return math.ldexp(x, whole)
    except OverflowError:
        return math.inf


def brute_force_interval(
    mset: MatrixSet,
    n_max: int,
    kind: NormKind,
    max_words: int = DEFAULT_WORD_BUDGET,
) -> OracleInterval:
    """Exhaustive interval: materializes every product level in full.

    Each level is one stack with one eigenvalue call and one norm call;
    the numpy linalg gufuncs run the same LAPACK routine on each matrix
    of a stack as on that matrix alone.  The roots rho^(1/n) are taken
    word by word in Python floats, a word replacing the lower witness
    only when strictly above it, as two radii can round to one root; the
    upper witness is the first word of the level's largest norm.  A
    level's running exponent s enters a root as 2^(s / n), in two finite
    steps where s / n lies outside [-1021, 1023]: 2^(s // n) by ldexp and
    2^((s mod n) / n) as a float, so that a root near the top of the
    float range stays finite, one near the bottom is rounded once, and
    one past the range reads +inf.
    """
    if n_max < 1:
        raise ValueError("n_max must be a positive integer")
    _check_budget("brute force over n <= {n} requires {count} words, "
                  "budget is {budget}", mset.r, n_max, "max_words", max_words,
                  first=1)
    best_lower = -np.inf
    best_upper = np.inf
    witness_lower: Word = ()
    witness_upper: Word = ()
    words: list[Word] = [()]
    prods: list[np.ndarray] = [np.eye(mset.dim)]
    letters = range(1, mset.r + 1)
    exponent = 0
    for n in range(1, n_max + 1):
        words = [word + (t,) for word in words for t in letters]
        prods = [member @ prod for prod in prods for member in mset.members]
        stack = np.stack(prods)
        shift = math.frexp(float(np.max(np.abs(stack))))[1]
        if abs(shift) > 500:
            prods = [np.ldexp(prod, -shift) for prod in prods]
            stack = np.stack(prods)
            exponent += shift
        # 2^(exponent / n) = 2^whole * scale, whole = 0 while it is a
        # normal float, so that every root is taken in finite steps.
        whole, rest = ((0, exponent) if -1021 <= exponent / n <= 1023
                       else divmod(exponent, n))
        scale = 2.0 ** (rest / n)
        radii = np.max(np.abs(np.linalg.eigvals(stack)), axis=-1)
        for word, rho in zip(words, radii.tolist()):
            rho_root = _ldexp(rho ** (1.0 / n) * scale, whole)
            if rho_root > best_lower:
                best_lower = rho_root
                witness_lower = word
        norms = _level_norms(stack, kind)
        top = int(np.argmax(norms))
        norm_root = _ldexp(float(norms[top]) ** (1.0 / n) * scale, whole)
        if norm_root < best_upper:
            best_upper = norm_root
            witness_upper = words[top]
    return OracleInterval(
        n_max=n_max,
        kind=kind,
        lower=float(best_lower),
        upper=float(best_upper),
        witness_lower=witness_lower,
        witness_upper=witness_upper,
    )


def inscribed_radius(points: np.ndarray, kind: NormKind) -> float:
    """Largest t with the kind-norm ball of radius t inside conv(points).

    The input must be centrally symmetric (closed under negation); the
    result is 0 whenever the hull is lower-dimensional.  Qhull's facets
    {U @ y = c} have the interior on the side U @ y <= c.
    """
    from scipy.spatial import ConvexHull, QhullError

    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError("points must be a non-empty (k, d) array")
    d = pts.shape[1]
    scale = float(np.max(np.abs(pts))) if pts.size else 0.0
    tol = 1e-9 * (1.0 + scale)
    # Point i has its negation in the set when some |p_i + p_j| is small;
    # the sums are taken for a block of rows i at a time.
    k = pts.shape[0]
    rows = max(1, _SYMMETRY_BLOCK_FLOATS // max(1, k * d))
    for lo in range(0, k, rows):
        sums = pts[lo:lo + rows, None] + pts[None]
        if np.any(np.min(vector_norms(sums, NormKind.LINF), axis=1) > tol):
            raise ValueError("points must be centrally symmetric")
    if d == 1:
        return float(np.max(np.abs(pts)))
    if d not in (2, 3):
        raise UnsupportedDimensionError(
            f"exact hull facets are available for d in {{2, 3}}, got d={d}"
        )
    try:
        eq = ConvexHull(pts).equations
    except QhullError:
        # At most d points, or a collinear or coplanar set.
        return 0.0
    normals, offsets = eq[:, :d], -eq[:, d]
    if np.min(offsets) <= 0.0:
        return 0.0
    return float(np.min(offsets / vector_norms(normals, dual_kind(kind))))

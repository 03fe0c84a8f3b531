"""Independent reference implementations for cross-checking.

Each recomputes by a route of its own what the main modules compute, so
agreement is meaningful evidence.  ``brute_force_interval`` materializes
levels of products list-by-list (memory-heavy on purpose), takes norms
from column/row sums or a full SVD and eigenvalues from the dense solver,
sharing nothing with the chunked product engine; a level whose largest
entry leaves [2^-500, 2^500] is divided by 2^s, s added to a running
exponent.  ``inscribed_radius`` builds the hull with Qhull, the reference
for the sweep ``geometry.radius_profile``; it imports scipy when called.
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


@dataclass(frozen=True, eq=False)
class OracleInterval(Record):
    """Best lower/upper bounds over n = 1..n_max with witness words."""

    n_max: int
    kind: NormKind
    lower: float
    upper: float
    witness_lower: Word
    witness_upper: Word


def _norm_of(matrix: np.ndarray, kind: NormKind) -> float:
    if kind is NormKind.L1:
        return float(np.max(np.sum(np.abs(matrix), axis=0)))
    if kind is NormKind.LINF:
        return float(np.max(np.sum(np.abs(matrix), axis=1)))
    return float(np.max(np.linalg.svd(matrix, compute_uv=False)))


def _rho_of(matrix: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(matrix))))


def brute_force_interval(
    mset: MatrixSet,
    n_max: int,
    kind: NormKind,
    max_words: int = DEFAULT_WORD_BUDGET,
) -> OracleInterval:
    """Exhaustive interval: materializes every product level in full."""
    if n_max < 1:
        raise ValueError("n_max must be a positive integer")
    _check_budget("brute force over n <= {n} requires {count} words, "
                  "budget is {budget}", mset.r, n_max, "max_words", max_words,
                  first=1)
    best_lower = -np.inf
    best_upper = np.inf
    witness_lower: Word = ()
    witness_upper: Word = ()
    level: list[tuple[Word, np.ndarray]] = [((), np.eye(mset.dim))]
    exponent = 0
    for n in range(1, n_max + 1):
        level = [
            (word + (t,), member @ prod)
            for word, prod in level
            for t, member in enumerate(mset.members, start=1)
        ]
        shift = math.frexp(max(np.max(np.abs(p)) for _, p in level))[1]
        if abs(shift) > 500:
            level = [(word, np.ldexp(prod, -shift)) for word, prod in level]
            exponent += shift
        scale = 2.0 ** (exponent / n)
        for word, prod in level:
            rho_root = _rho_of(prod) ** (1.0 / n) * scale
            if rho_root > best_lower:
                best_lower = rho_root
                witness_lower = word
        norm_best = None
        norm_word: Word = ()
        for word, prod in level:
            value = _norm_of(prod, kind)
            if norm_best is None or value > norm_best:
                norm_best = value
                norm_word = word
        norm_root = norm_best ** (1.0 / n) * scale
        if norm_root < best_upper:
            best_upper = norm_root
            witness_upper = norm_word
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
    for p in pts:
        if np.min(vector_norms(pts + p, NormKind.LINF)) > tol:
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

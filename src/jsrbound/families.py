"""Structured families with closed-form irreducibility bounds.

Two constructions turn a single matrix A into a matrix set whose
irreducibility measure (at p = d, l1 norm) has an explicit lower bound:

* the row-substitution family: d members, each the identity with one row
  replaced by the corresponding row of A, the asynchronous-update
  system of A;
* the row-sign-flip family: A together with the d copies of A whose i-th
  row is negated.

Both bounds have the shape alpha * beta^(d-1) with alpha a minimal-gain
constant of A under the l1 norm and beta a smallest off-diagonal
magnitude.  The minimal gain min_{||x||_1 = 1} ||M x||_1 equals
1 / ||M^{-1}||_1 for invertible M and 0 otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import MatrixSet, NormKind, Record, as_matrix, operator_norm

_SINGULAR_REL = 1e-12


@dataclass(frozen=True)
class FamilyChiBound(Record):
    """Closed-form lower bound for a structured family's measure."""

    family: str
    alpha: float
    beta: float
    chi_lower: float
    irreducible: bool


def _row_edits(base: np.ndarray, rows: np.ndarray) -> list[np.ndarray]:
    """Copies of ``base``, the i-th with its row i replaced by rows[i]."""
    members = [base.copy() for _ in rows]
    for i, m in enumerate(members):
        m[i, :] = rows[i]
    return members


def row_substitution_family(matrix) -> MatrixSet:
    """Members I with row i replaced by row i of A, for i = 1..d."""
    a = as_matrix(matrix)
    return MatrixSet(a.shape[0], tuple(_row_edits(np.eye(a.shape[0]), a)))


def row_sign_flip_family(matrix) -> MatrixSet:
    """A together with its single-row negations, d + 1 members."""
    a = as_matrix(matrix)
    return MatrixSet(a.shape[0], (a, *_row_edits(a, -a)))


def control_pair(matrix, b, c) -> MatrixSet:
    """The pair {A, b c^T}; no closed-form measure bound is claimed."""
    a = as_matrix(matrix)
    d = a.shape[0]
    bv = np.asarray(b, dtype=float).reshape(d)
    cv = np.asarray(c, dtype=float).reshape(d)
    return MatrixSet(dim=d, members=(a, np.outer(bv, cv)))


def indecomposable(matrix, tol: float | None = None) -> bool:
    """True when the nonzero pattern of A is strongly connected.

    The digraph on {1..d} has an edge j -> i whenever |a_ij| exceeds the
    zero tolerance.
    """
    a = as_matrix(matrix)
    d = a.shape[0]
    if tol is None:
        tol = 1e-12 * (1.0 + float(np.max(np.abs(a))))
    reach = (np.abs(a) > tol) | np.eye(d, dtype=bool)
    for _ in range(int(np.ceil(np.log2(max(d, 2)))) + 1):
        reach = reach | (reach @ reach)
    return bool(np.all(reach))


def _min_l1_gain(matrix: np.ndarray) -> float:
    """min over the l1-unit sphere of ||M x||_1, via the inverse norm."""
    svals = np.linalg.svd(matrix, compute_uv=False)
    if svals[0] == 0.0 or svals[-1] <= _SINGULAR_REL * svals[0]:
        return 0.0
    inv = np.linalg.inv(matrix)
    return 1.0 / operator_norm(inv, NormKind.L1)


def _min_offdiag(matrix: np.ndarray) -> float:
    """Smallest magnitude among nonzero off-diagonal entries, else 0."""
    d = matrix.shape[0]
    mask = ~np.eye(d, dtype=bool)
    vals = np.abs(matrix[mask])
    vals = vals[vals > 0.0]
    return float(np.min(vals)) if vals.size else 0.0


def _family_bound(family: str, a: np.ndarray, alpha: float,
                  beta: float) -> FamilyChiBound:
    """The bound alpha * beta^(d-1); irreducible when A is indecomposable
    and alpha > 0."""
    return FamilyChiBound(
        family=family,
        alpha=alpha,
        beta=beta,
        chi_lower=alpha * beta ** (a.shape[0] - 1),
        irreducible=bool(indecomposable(a) and alpha > 0.0),
    )


def row_substitution_bound(matrix) -> FamilyChiBound:
    """Measure bound alpha * beta^(d-1) for the row-substitution family.

    alpha = min_l1_gain(A - I) / (2 d) and beta = half the smallest
    nonzero off-diagonal magnitude.  The family is irreducible exactly
    when A is indecomposable and 1 is not an eigenvalue of A.
    """
    a = as_matrix(matrix)
    d = a.shape[0]
    return _family_bound("P", a, _min_l1_gain(a - np.eye(d)) / (2.0 * d),
                         _min_offdiag(a) / 2.0)


def row_sign_flip_bound(matrix) -> FamilyChiBound:
    """Measure bound alpha * beta^(d-1) for the row-sign-flip family.

    alpha = min_l1_gain(A) / d and beta = the smallest nonzero
    off-diagonal magnitude.  The family is irreducible exactly when A is
    indecomposable and invertible.
    """
    a = as_matrix(matrix)
    return _family_bound("V", a, _min_l1_gain(a) / a.shape[0],
                         _min_offdiag(a))

"""Brute-force reference implementations for cross-checking.

Everything here recomputes results from first principles with its own
product bookkeeping: levels of products are materialized list-by-list
(memory-heavy on purpose), norms come from direct column/row sums or a
full SVD, and eigenvalues from the dense solver.  Nothing is shared with
the chunked product engine used by the main modules, so agreement between
the two routes is meaningful evidence.  A level whose largest entry leaves
[2^-500, 2^500] is divided by 2^s, s added to a running exponent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_WORD_BUDGET, MatrixSet, NormKind, Record, Word
from .errors import BudgetExceededError


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
    total = sum(mset.r ** n for n in range(1, n_max + 1))
    if total > max_words:
        raise BudgetExceededError(
            f"brute force over n <= {n_max} requires {total} words, "
            f"budget is {max_words}",
            required=total,
            budget=max_words,
        )
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


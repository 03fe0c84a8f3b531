"""Two-sided bounds on the joint spectral radius from finite products.

For any n, the largest spectral radius over length-n products raised to
1/n is a lower bound of the joint spectral radius, and the largest
operator norm raised to 1/n is an upper bound.  Scanning n = 1..n_max
and keeping the best of each side yields a shrinking enclosure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .core import (
    DEFAULT_WORD_BUDGET,
    RADIUS,
    TRACE,
    MatrixSet,
    NormKind,
    Record,
    Word,
    _binary_scale,
    _check_budget,
    _product_chunks,
    max_over_products,
    # Not called here: the tracer self-test in perfbench/ reads
    # bounds.operator_norms to check that every namespace is patched.
    operator_norms,  # noqa: F401
    spectral_radius,
)
from ._rounding import _root
from .errors import JsrError

DEFAULT_KRON_DIM_LIMIT = 4096

@dataclass(frozen=True, eq=False)
class BoundReport(Record):
    """Per-step bounds plus the best enclosure seen so far.

    ``witness_lower`` and ``witness_upper`` are the words attaining the
    step-n spectral-radius and norm maxima (first in lexicographic order
    on ties); the radius is maximized over the necklaces, so
    ``witness_lower`` is a least rotation (see ``max_over_products``).
    """

    n: int
    kind: NormKind
    lower: float
    upper: float
    best_lower: float
    best_upper: float
    witness_lower: Word
    witness_upper: Word


def gelfand_upper(
    mset: MatrixSet,
    n: int,
    kind: NormKind,
    max_words: int = DEFAULT_WORD_BUDGET,
) -> float:
    """Upper bound: largest norm over length-n products, n-th root."""
    [(norm_max, exponent, _)] = max_over_products(mset, n, [kind], max_words)
    return _root(norm_max, exponent, n)


def _reports(kind: NormKind, levels: list) -> list[BoundReport]:
    """Bound reports from the [norm, radius, ...] maxima of levels 1, 2, ..."""
    reports: list[BoundReport] = []
    best_lower = -np.inf
    best_upper = np.inf
    for n, (upper, lower, *_) in enumerate(levels, start=1):
        lower_n, upper_n = _root(*lower[:2], n), _root(*upper[:2], n)
        best_lower = max(best_lower, lower_n)
        best_upper = min(best_upper, upper_n)
        reports.append(
            BoundReport(
                n=n,
                kind=kind,
                lower=lower_n,
                upper=upper_n,
                best_lower=best_lower,
                best_upper=best_upper,
                witness_lower=lower[2],
                witness_upper=upper[2],
            )
        )
    return reports


def sandwich(
    mset: MatrixSet,
    n_max: int,
    kind: NormKind,
    max_words: int = DEFAULT_WORD_BUDGET,
) -> list[BoundReport]:
    """Bound reports for n = 1..n_max, from one ``max_over_products`` pass
    with ``first=1``, which drops the prefixes of each level's word tree
    that cannot reach its maxima, using the maxima of the shorter levels.

    The budget applies to each level's r^n words.  If it or an
    eigensolver fails at some n, the raised error carries the reports of
    the levels before n in its ``partial`` attribute.
    """
    return _reports(kind, _bound_levels(mset, n_max, [kind, RADIUS],
                                        max_words))


def _bound_levels(mset: MatrixSet, n_max: int, metrics: list,
                  max_words: int) -> list:
    """The maxima of ``metrics`` = [kind, RADIUS, ...] at lengths
    1..n_max, from one ``max_over_products`` pass; a raised JsrError
    carries the bound reports of the levels before it in ``partial``."""
    if n_max < 1:
        raise ValueError("n_max must be a positive integer")
    try:
        return max_over_products(mset, n_max, metrics, max_words, first=1)
    except JsrError as exc:
        exc.partial = _reports(metrics[0], exc.partial)
        raise


def trace_estimate(
    mset: MatrixSet, n: int, max_words: int = DEFAULT_WORD_BUDGET
) -> float:
    """Largest |trace| over length-n products, n-th root.

    Heuristic: the trace maximum converges to the joint spectral radius
    only in the limit, so a finite n gives neither a lower nor an upper
    bound.  Callers must surface it as a flagged estimate, never as a
    certificate.
    """
    [(tr_max, exponent, _)] = max_over_products(mset, n, [TRACE], max_words)
    return _root(tr_max, exponent, n)


def kronecker_bounds(
    mset: MatrixSet,
    n: int,
    max_kron_dim: int = DEFAULT_KRON_DIM_LIMIT,
) -> tuple[float, float]:
    """Two-sided bounds from the sum of n-fold Kronecker powers.

    Valid for entrywise nonnegative members only.  With
    rho = spectral_radius(sum_i A_i^(kron n)),

        r^(-1/n) * rho^(1/n) <= joint spectral radius <= rho^(1/n),

    so the upper/lower ratio is exactly r^(1/n) by construction.  The
    powers are formed from the members / 2^e (see ``core``).
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    for k, m in enumerate(mset.members, start=1):
        if np.min(m) < 0.0:
            i, j = np.argwhere(m < 0.0)[0]
            raise ValueError(
                f"Kronecker bounds need nonnegative entries; matrix {k} has "
                f"a negative entry at ({i}, {j})"
            )
    _check_budget("Kronecker power dimension {count} exceeds the limit "
                  "{budget}", mset.dim, n, "max_kron_dim", max_kron_dim)
    dim = mset.dim ** n
    e, mats = _binary_scale(mset.stacked())
    total = np.zeros((dim, dim))
    for m in mats:
        total += reduce(np.kron, [m] * n)
    upper = _root(spectral_radius(total), n * e, n)
    lower = upper / mset.r ** (1.0 / n)
    return lower, upper


def zero_radius_test(
    mset: MatrixSet, max_words: int = DEFAULT_WORD_BUDGET
) -> bool:
    """True when the joint spectral radius is exactly zero.

    Zero radius is equivalent to every length-d product vanishing, with d
    the dimension.  On the set / 2^e, whose largest entry lies in [0.5, 1),
    product entries up to 1e-12 * (1 + that entry) count as zero, so all
    2^k multiples of a set get one verdict.  The scan stops at the first
    block holding a nonzero product.
    """
    e, mats = _binary_scale(mset.stacked())
    tol = 1e-12 * (1.0 + float(np.max(np.abs(mats))))
    return not any(
        math.ldexp(np.max(np.abs(block)), exponent - mset.dim * e) > tol
        for _, block, exponent in _product_chunks(mset, mset.dim, max_words))

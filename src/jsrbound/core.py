"""Matrix sets, norms, spectral radii and product enumeration.

A matrix set is a finite collection of real d x d matrices.  Everything in
this package reduces to scanning the products A_{i_n} ... A_{i_2} A_{i_1}
over index words (i_1, ..., i_n); the word lists the factor applied first
on the right, so word (1, 2) denotes the product A_2 A_1.

One engine, ``_product_levels``, produces those products, level by
level, through one batched left-multiplication (``_left_multiply``), so
every scan sees the same numbers in the same lexicographic order.  A
level whose products fit one block is the previous level's block times
one more factor.  A larger level is built from the table of its head
products (the first factors applied), each extended into a block of
consecutive words.

Scale is kept in exact powers of two: the engine divides the members by
2^e, e the binary exponent of the largest entry, and each block carries
an exponent E with products = block * 2^E; a level whose largest entry
leaves [2^-500, 2^500] is multiplied by 2^-s and s is added to E.  Maxima
are (mantissa, exponent) pairs and ``_root`` takes their n-th roots, so
in-range results are the same bits as unscaled ones.

A level maximum is taken of a metric named by the caller: an induced
operator norm (a NormKind), the spectral radius (``RADIUS``) or |trace|
(``TRACE``).  This module alone maps a name to its exact kernel and,
where one exists, a cheap per-row upper bound taken from the block's
column-sum, row-sum and Frobenius norms: every operator norm and the
spectral radius have one at every d (the l1 and linf bounds are the
column and row sums themselves).  ``max_over_products`` runs the exact
kernel on the row with the largest bound, then only on the rows whose
bound can still reach that value or the best of earlier blocks, so those
kernels see a small share of the products.  The kernels give the same
bits on a subset of rows as on the whole block, and no row that holds or
ties the maximum is pruned, so values and witnesses are those of the
full scan.

The l2 kernel at d = 2 replays, on batches of rows, the steps LAPACK
takes for a 2x2 symmetric eigenproblem (``_top_eigenvalues_2x2``), with
``eigvalsh``'s bits and a tenth of its cost per row.
"""

from __future__ import annotations

import dataclasses
import enum
import itertools
import json
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import (BudgetExceededError, ConvergenceError,
                     InputFormatError, JsrError)

# Default cap on the number of words enumerated in one call.
DEFAULT_WORD_BUDGET = 1 << 24

# Levels whose largest entry leaves [2^-500, 2^500] are rescaled.
_RANGE_BITS = 500

# Word counts from 2^_COUNT_BITS on are not printed in full.
_COUNT_BITS = 1024

# Largest block of product entries held in memory at once.
_CHUNK_FLOATS = 1 << 22

# Entries of a block that ``_left_multiply`` takes at a time: three
# arrays of this size stay in a 2 MB cache.
_MULTIPLY_FLOATS = 1 << 15

# Blocks of fewer entries run their exact kernels on every row: below
# this size the screen's fixed cost, about 0.1 ms a block, exceeds the
# kernel time it saves.  Measured on a 2-core Xeon with numpy 2.4, the
# break-even is near 2000 entries at every d (2048 rows of 1x1, 200 of
# 2x2, under 64 of 6x6), since the kernels' cost per row grows with d.
_SCREEN_MIN_FLOATS = 1 << 11

# Relative margin on the cheap bounds, and the smallest threshold (in
# block scale) at which rows are pruned; see ``_screened_max``.
_SCREEN_MARGIN = 2.0 ** -20
_SCREEN_FLOOR = 2.0 ** -480

# d = 2 stacks of at least this many matrices take their l2 norms from
# the closed form of ``_top_eigenvalues_2x2``, _L2_CHUNK_ROWS at a time;
# smaller ones from ``eigvalsh``, whose fixed cost is lower.  Measured
# on a 2-core Xeon with numpy 2.4: 42 against 78 us on one matrix, even
# near 40, 92 against 71 us on 64 and 1570 against 170 us on 2048.
_L2_CLOSED_MIN_ROWS = 64
_L2_CHUNK_ROWS = 1 << 13

Word = tuple[int, ...]


class NormKind(enum.Enum):
    """Vector norm selector; operator norms are the induced ones."""

    L1 = "l1"
    L2 = "l2"
    LINF = "linf"


def _plain(value):
    """The JSON form of a result: records field by field in declaration
    order, enums by their value, tuples, lists and arrays as lists, dicts
    and nested records recursively; anything else as it is."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _plain(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return value


class Record:
    """Base of the result dataclasses: ``to_dict`` is the JSON form."""

    def to_dict(self) -> dict:
        return _plain(self)


def as_matrix(entries, *, dim: int | None = None) -> np.ndarray:
    """Validate and freeze a square real matrix as a float64 array."""
    a = np.array(entries, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InputFormatError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] < 1:
        raise InputFormatError("matrix dimension must be at least 1")
    if dim is not None and a.shape[0] != dim:
        raise InputFormatError(
            f"expected a {dim}x{dim} matrix, got {a.shape[0]}x{a.shape[1]}"
        )
    if not np.all(np.isfinite(a)):
        i, j = np.argwhere(~np.isfinite(a))[0]
        raise InputFormatError(f"non-finite entry at position ({i}, {j})")
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class MatrixSet:
    """A finite set of real d x d matrices, kept in input order."""

    dim: int
    members: tuple[np.ndarray, ...]

    def __post_init__(self):
        if self.dim < 1:
            raise InputFormatError("matrix dimension must be at least 1")
        if len(self.members) < 1:
            raise InputFormatError("a matrix set needs at least one member")
        frozen = []
        for k, m in enumerate(self.members):
            try:
                frozen.append(as_matrix(m, dim=self.dim))
            except InputFormatError as exc:
                raise InputFormatError(f"matrix {k + 1}: {exc}") from None
        object.__setattr__(self, "members", tuple(frozen))

    @classmethod
    def from_arrays(cls, matrices) -> "MatrixSet":
        mats = [np.asarray(m, dtype=float) for m in matrices]
        if not mats:
            raise InputFormatError("a matrix set needs at least one member")
        if mats[0].ndim != 2:
            raise InputFormatError("matrix members must be two-dimensional")
        return cls(dim=mats[0].shape[0], members=tuple(mats))

    @property
    def r(self) -> int:
        return len(self.members)

    def stacked(self) -> np.ndarray:
        """The members as one (r, d, d) array."""
        return np.stack(self.members)

    def scaled(self, factor: float) -> "MatrixSet":
        """The set with every member multiplied by ``factor``."""
        return MatrixSet(self.dim, tuple(m * factor for m in self.members))

    def to_dict(self) -> dict:
        return {"dim": self.dim, "matrices": [m.tolist() for m in self.members]}


def parse_matrix_set(text: str) -> MatrixSet:
    """Parse the JSON input format ``{"dim": d, "matrices": [...]}``.

    Errors carry the location (matrix index, row) of the first offending
    entry.  Matrix indices in messages are 1-based.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"malformed JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise InputFormatError("top-level value must be an object")
    if "dim" not in doc or "matrices" not in doc:
        raise InputFormatError('input must provide "dim" and "matrices"')
    dim = doc["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise InputFormatError('"dim" must be a positive integer')
    raw = doc["matrices"]
    if not isinstance(raw, list) or len(raw) == 0:
        raise InputFormatError('"matrices" must be a non-empty list')
    members = []
    for k, mat in enumerate(raw, start=1):
        if not isinstance(mat, list) or len(mat) != dim:
            got = len(mat) if isinstance(mat, list) else type(mat).__name__
            raise InputFormatError(
                f"matrix {k}: ragged matrix: expected {dim} rows, got {got}"
            )
        rows = []
        for i, row in enumerate(mat):
            if not isinstance(row, list) or len(row) != dim:
                got = len(row) if isinstance(row, list) else type(row).__name__
                raise InputFormatError(
                    f"matrix {k}, row {i}: expected {dim} entries, got {got}"
                )
            rows.append([])
            for j, v in enumerate(row):
                if isinstance(v, bool) or not isinstance(v, (int, float)):
                    raise InputFormatError(
                        f"matrix {k}, entry ({i}, {j}): not a number"
                    )
                try:
                    rows[-1].append(float(v))
                except OverflowError:  # NaN and infinities go to MatrixSet
                    raise InputFormatError(
                        f"matrix {k}, entry ({i}, {j}): integer beyond the "
                        "float range") from None
        members.append(np.array(rows))
    return MatrixSet(dim=dim, members=tuple(members))


def load_matrix_set(path) -> MatrixSet:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_matrix_set(fh.read())


# ---------------------------------------------------------------------------
# Norms and spectral radii


def _top_eigenvalues_2x2(a: np.ndarray, c: np.ndarray,
                         e: np.ndarray) -> np.ndarray:
    """The larger eigenvalue of each [[a, e], [e, c]], a, c >= 0 with the
    larger in [1, 2], with the bits of ``eigvalsh`` (LAPACK's ``dsyevd``).

    For n = 2, ``dsytd2`` leaves the diagonal (a, c) and E = e.
    ``dsterf`` splits the matrix, keeping a and c, when
    |e| <= sqrt(a) sqrt(c) eps or e^2 <= eps^2 a c (eps = 2^-53); else
    ``dlae2`` takes the eigenvalues of [[a, b], [b, c]], b = sqrt(e^2),
    and ``dlasrt`` sorts them.  ``dsterf`` passes (c, a) instead when
    c < a, which gives the same bits, as ``dlae2`` orders the diagonal
    by magnitude.  Neither routine rescales a matrix whose largest entry
    is in [1, 2].
    """
    eps = 2.0 ** -53
    e2 = e * e
    split = np.abs(e) <= np.sqrt(a) * np.sqrt(c) * eps
    split |= e2 <= eps * eps * (a * c)
    # dlae2: RT = sqrt((a - c)^2 + (2b)^2), taken from the larger of
    # |a - c| and 2b, and the eigenvalues RT1 = (a + c + RT) / 2 and
    # RT2 = (acmx / RT1) acmn - (b / RT1) b.  A 0/0 falls on a split row.
    b = np.sqrt(e2)
    adf, tb = np.abs(a - c), b + b
    big, q = np.maximum(adf, tb), np.minimum(adf, tb)
    with np.errstate(invalid="ignore"):
        q /= big
    q *= q
    q += 1.0
    rt1 = big * np.sqrt(q, out=q)
    rt1 += a + c
    rt1 *= 0.5
    acmx, acmn = np.maximum(a, c), np.minimum(a, c)
    rt2 = acmx / rt1
    rt2 *= acmn
    rt2 -= b / rt1 * b
    return np.where(split, acmx, np.maximum(rt1, rt2, out=rt1))


def _l2_norms_2x2(s: np.ndarray) -> np.ndarray:
    """``operator_norms(s, L2)`` of an (m, 2, 2) stack with the bits of its
    ``eigvalsh`` path: each matrix divided by its largest entry, the gram
    entries summed as einsum sums them, and the larger eigenvalue from
    ``_top_eigenvalues_2x2``.  Runs on coordinate planes of
    _L2_CHUNK_ROWS rows at a time."""
    flat = s.reshape(-1, 4)
    out = np.empty(flat.shape[0])
    for lo in range(0, flat.shape[0], _L2_CHUNK_ROWS):
        p = flat[lo:lo + _L2_CHUNK_ROWS].T.copy()
        scale = np.abs(p).max(axis=0)
        usable = (scale > 0.0) & (scale < np.inf)
        safe = np.where(usable, scale, 1.0)
        p /= safe
        if not usable.all():
            p[:, ~usable] = 0.0
        h00, h01, h10, h11 = p
        # einsum starts each sum from +0, which only sets the sign of a
        # zero e, and |e| and e^2 drop it
        a = h00 * h00 + h10 * h10
        c = h01 * h01 + h11 * h11
        e = h00 * h01 + h10 * h11
        top = _top_eigenvalues_2x2(a, c, e)
        out[lo:lo + p.shape[1]] = np.where(usable, safe * np.sqrt(top),
                                           scale)
    return out


def operator_norms(stack: np.ndarray, kind: NormKind) -> np.ndarray:
    """Induced operator norms of a (..., d, d) stack of matrices.

    A matrix holding NaN reads nan in every norm, and one holding inf but
    no NaN reads inf.  The l2 norm is the largest singular value: the
    matrix is divided by its largest entry, so squaring cannot overflow,
    and that entry times the square root of the largest eigenvalue of the
    quotient's gram matrix is returned.  ``eigvalsh`` takes that
    eigenvalue, except on d = 2 stacks of at least _L2_CLOSED_MIN_ROWS
    matrices: there ``_top_eigenvalues_2x2`` replays LAPACK's 2x2 steps
    (``dsterf``'s split tests and ``dlae2``), with ``eigvalsh``'s bits on
    the pinned numpy, at a fraction of its cost per row.
    """
    s = np.asarray(stack, dtype=float)
    if kind is NormKind.L1:
        return np.max(np.sum(np.abs(s), axis=-2), axis=-1)
    if kind is NormKind.LINF:
        return np.max(np.sum(np.abs(s), axis=-1), axis=-1)
    if s.shape[-1] == 2 and s.size >= 4 * _L2_CLOSED_MIN_ROWS:
        return _l2_norms_2x2(s).reshape(s.shape[:-2])
    scale = np.max(np.abs(s), axis=(-2, -1))
    usable = (scale > 0.0) & (scale < np.inf)
    safe = np.where(usable, scale, 1.0)
    hat = s / safe[..., None, None]
    if not usable.all():
        hat[~usable] = 0.0
    gram = np.einsum("...ba,...bc->...ac", hat, hat)
    try:
        eigs = np.linalg.eigvalsh(gram)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"singular value iteration failed: {exc}") from None
    top = np.clip(eigs[..., -1], 0.0, None)
    return np.where(usable, safe * np.sqrt(top), scale)


def operator_norm(matrix, kind: NormKind) -> float:
    """Operator norm of a single matrix induced by the chosen vector norm."""
    a = np.asarray(matrix, dtype=float)
    return float(operator_norms(a[None, :, :], kind)[0])


def spectral_radii(stack: np.ndarray) -> np.ndarray:
    """Spectral radii of a (..., d, d) stack.

    Dimensions 1 and 2 use the closed form from the characteristic
    polynomial; larger matrices go through the QR eigensolver.  Entries are
    pre-normalized by the largest magnitude so the discriminant cannot
    overflow.  A matrix holding NaN reads nan, and one holding inf but no
    NaN reads inf, as in ``operator_norms``.
    """
    s = np.asarray(stack, dtype=float)
    d = s.shape[-1]
    scale = np.max(np.abs(s), axis=(-2, -1))
    usable = (scale > 0.0) & (scale < np.inf)
    safe = np.where(usable, scale, 1.0)
    hat = s / safe[..., None, None]
    if not usable.all():
        hat[~usable] = 0.0
    if d == 1:
        rho = np.abs(hat[..., 0, 0])
    elif d == 2:
        tr = hat[..., 0, 0] + hat[..., 1, 1]
        det = hat[..., 0, 0] * hat[..., 1, 1] - hat[..., 0, 1] * hat[..., 1, 0]
        disc = tr * tr - 4.0 * det
        real = (np.abs(tr) + np.sqrt(np.clip(disc, 0.0, None))) / 2.0
        complex_pair = np.sqrt(np.clip(det, 0.0, None))
        rho = np.where(disc >= 0.0, real, complex_pair)
    else:
        try:
            eigs = np.linalg.eigvals(hat)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(
                f"eigenvalue iteration failed: {exc}") from None
        rho = np.max(np.abs(eigs), axis=-1)
    return np.where(usable, safe * rho, scale)


def spectral_radius(matrix) -> float:
    """Largest eigenvalue magnitude of a single square matrix."""
    a = np.asarray(matrix, dtype=float)
    return float(spectral_radii(a[None, :, :])[0])


# Metrics of ``max_over_products`` besides the operator norms (NormKind).
RADIUS = "radius"
TRACE = "trace"


def _metric_values(block: np.ndarray, metric) -> np.ndarray:
    """The exact values of a metric on every row of a block.  The kernels
    are looked up in this module at each call, so patching
    ``core.operator_norms`` or ``core.spectral_radii`` sees every row."""
    if isinstance(metric, NormKind):
        return operator_norms(block, metric)
    if metric == RADIUS:
        return spectral_radii(block)
    if metric == TRACE:
        return np.abs(np.trace(block, axis1=-2, axis2=-1))
    raise ValueError(f"unknown metric {metric!r}")


def _metric_bound(metric):
    """The cheap upper bound of a metric from a block's column-sum, row-sum
    and Frobenius norms: ||P||_2 <= min(sqrt(||P||_1 ||P||_inf), ||P||_F)
    and rho(P) <= min(||P||_1, ||P||_inf, ||P||_F), at every d; the l1 and
    linf norms are the column-sum and row-sum norms themselves.  None for
    |trace|, whose kernel costs less than the screen."""
    if metric is NormKind.L1:
        return lambda c, r, f: c
    if metric is NormKind.LINF:
        return lambda c, r, f: r
    if metric is NormKind.L2:
        return lambda c, r, f: np.minimum(np.sqrt(c * r), f)
    if metric == RADIUS:
        return lambda c, r, f: np.minimum(np.minimum(c, r), f)
    return None


# ---------------------------------------------------------------------------
# Product enumeration


def word_from_index(index: int, r: int, n: int) -> Word:
    """Decode the lexicographic position of a length-n word over {1..r}."""
    digits = []
    for _ in range(n):
        digits.append(index % r + 1)
        index //= r
    return tuple(reversed(digits))


def product_of_word(mset: MatrixSet, word: Word) -> np.ndarray:
    """Multiply out a word directly: A_{i_n} ... A_{i_1}."""
    out = np.eye(mset.dim)
    for i in word:
        out = mset.members[i - 1] @ out
    return out


def _budget_count(r: int, n: int, budget: int,
                  first: int | None = None) -> tuple[bool, int | None]:
    """(count > budget, count below 2^1024 else None) for the word count
    sum of r^k over k = first..n, first = n (r^n alone) by default.  The
    count is at least 2^(n (b - 1)), b the bit length of r; it is not
    formed when that bound alone puts it past the budget and past 2^1024."""
    if n * (r.bit_length() - 1) >= max(_COUNT_BITS, budget.bit_length()):
        return True, None
    lo = n if first is None else first
    count = n - lo + 1 if r == 1 else (r ** (n + 1) - r ** lo) // (r - 1)
    return count > budget, count if count < 1 << _COUNT_BITS else None


def _require_budget(name: str, budget) -> None:
    """Raise ValueError, naming the budget, unless it is a positive int."""
    if isinstance(budget, bool) or not isinstance(budget, int) or budget < 1:
        raise ValueError(f"{name} must be a positive integer, got {budget!r}")


def _check_budget(message: str, r: int, n: int, name: str, budget: int,
                  first: int | None = None) -> None:
    """Raise BudgetExceededError when ``_budget_count`` exceeds ``budget``,
    named ``name`` (ValueError when it is not a positive int); ``message``
    gets ``n``, ``budget`` and ``count``, or "more than 2^B"."""
    _require_budget(name, budget)
    exceeds, count = _budget_count(r, n, budget, first)
    if exceeds:
        bits = max(n * (r.bit_length() - 1), _COUNT_BITS) - 1
        shown = f"more than 2^{bits}" if count is None else count
        raise BudgetExceededError(
            message.format(n=n, budget=budget, count=shown),
            required=count, budget=budget)


def _binary_scale(mset: MatrixSet) -> tuple[int, np.ndarray]:
    """e, the binary exponent of the largest entry, and the members / 2^e."""
    mats = mset.stacked()
    e = math.frexp(float(np.max(np.abs(mats))))[1]
    return e, np.ldexp(mats, -e)


def _left_multiply(mats: np.ndarray, block: np.ndarray) -> np.ndarray:
    """Every member times every product: row j * r + t is mats[t] @ block[j].

    The same bits as ``np.einsum("tab,jbc->jtac", mats, block)``: each
    entry is summed over b in increasing order from +0, as einsum's is,
    so a first term of -0 gives +0.  The entries are laid out (d, d, m)
    as in ``_cheap_norms``, _MULTIPLY_FLOATS at a time, so each step is a
    multiply-add over whole arrays held in cache.
    """
    r, d, _ = mats.shape
    m = block.shape[0]
    out = np.empty((m, r, d, d))
    cols = max(1, _MULTIPLY_FLOATS // (d * d))
    acc, term = np.empty((2, d, d, min(cols, m)))
    for lo in range(0, m, cols):
        x = block[lo:lo + cols].transpose(1, 2, 0).copy()
        k = x.shape[-1]
        for t in range(r):
            np.multiply(mats[t, :, 0, None, None], x[0], out=acc[..., :k])
            acc[..., :k] += 0.0
            for b in range(1, d):
                np.multiply(mats[t, :, b, None, None], x[b],
                            out=term[..., :k])
                acc[..., :k] += term[..., :k]
            out[lo:lo + k, t] = acc[..., :k].transpose(2, 0, 1)
    return out.reshape(-1, d, d)


def _extend(mats: np.ndarray, block: np.ndarray, exponent: int,
            levels: int, step: int) -> tuple[np.ndarray, int]:
    """Left-multiply every product in ``block`` by ``levels`` more factors.

    Appending index t to the product at position j lands at j * r + t, so
    word order is kept.  ``mats`` are the members / 2^step.
    """
    for _ in range(levels):
        block = _left_multiply(mats, block)
        exponent += step
        shift = math.frexp(float(max(block.max(), -block.min())))[1]
        if abs(shift) > _RANGE_BITS:
            block, exponent = np.ldexp(block, -shift), exponent + shift
    return block, exponent


def _split_level(mats: np.ndarray, step: int, k: int,
                 tail: int) -> Iterator[tuple[int, np.ndarray, int]]:
    """The length-k words in blocks of r^tail: each head product of the
    first k - tail factors, built from the identity, extended by tail."""
    r, d = mats.shape[0], mats.shape[-1]
    heads, exponent = _extend(mats, np.eye(d)[None], 0, k - tail, step)
    for h in range(heads.shape[0]):
        yield (h * r ** tail,
               *_extend(mats, heads[h:h + 1], exponent, tail, step))


def _product_levels(
    mset: MatrixSet, first: int, n: int, max_words: int
) -> Iterator[tuple[int, Iterator[tuple[int, np.ndarray, int]]]]:
    """Yield (k, chunks) for k = first..n, where chunks yields
    (start_index, block, exponent) covering the length-k words in order.

    The products are block * 2^exponent.  The budget is checked for each
    level before it is formed.  Let t be the largest length (at least 1)
    whose r^t products fit in _CHUNK_FLOATS entries.  A level with k <= t
    is a single block, the previous level's block extended by one factor
    (the first level asked for is built from the identity).  Past that, a
    word splits into a head of k - t digits, the factors applied first,
    and a tail of t digits; each head product is extended by t levels
    into one block of r^t consecutive words.
    """
    if n < 1:
        raise ValueError("product length n must be a positive integer")
    if not 1 <= first <= n:
        raise ValueError(f"first must be in 1..n = {n}, got {first!r}")
    step, mats = _binary_scale(mset)
    r, d = mset.r, mset.dim
    table, exponent, length = np.eye(d)[None], 0, 0
    for k in range(first, n + 1):
        _check_budget("enumerating length-{n} products requires {count} "
                      "words, budget is {budget}", r, k, "max_words",
                      max_words)
        tail = k
        while tail > 1 and r ** tail * d * d > _CHUNK_FLOATS:
            tail -= 1
        if tail == k:
            table, exponent = _extend(mats, table, exponent, k - length, step)
            length = k
            yield k, iter([(0, table, exponent)])
        else:
            table = None  # no later level fits: free the last table
            yield k, _split_level(mats, step, k, tail)


def _product_chunks(
    mset: MatrixSet, n: int, max_words: int
) -> Iterator[tuple[int, np.ndarray, int]]:
    """The chunks of ``_product_levels`` for the length-n words alone."""
    for _, chunks in _product_levels(mset, n, n, max_words):
        yield from chunks


def enumerate_products(
    mset: MatrixSet, n: int, max_words: int = DEFAULT_WORD_BUDGET
) -> Iterator[tuple[Word, np.ndarray]]:
    """Yield (word, product) for every length-n word in lexicographic order.

    A per-word view of the chunked engine: memory stays at one block of
    products regardless of r^n.  Entries beyond the float range read inf.
    """
    words = itertools.product(range(1, mset.r + 1), repeat=n)
    for _, block, exponent in _product_chunks(mset, n, max_words):
        with np.errstate(over="ignore"):
            block = np.ldexp(block, exponent)
        for prod in block:
            yield next(words), prod


def _exceeds(value: float, exponent: int, other: float,
             other_exponent: int) -> bool:
    """value * 2^exponent > other * 2^other_exponent for values >= 0."""
    if exponent == other_exponent or value <= 0.0 or other <= 0.0:
        return value > other
    (f, g), (f_other, g_other) = math.frexp(value), math.frexp(other)
    return (g + exponent, f) > (g_other + other_exponent, f_other)


def _root(value: float, exponent: int, n: int) -> float:
    """(value * 2^exponent) ** (1 / n) for value >= 0, at any exponent."""
    f, g = math.frexp(value)
    g += exponent
    if value == 0.0 or -1021 <= g <= 1024:
        return math.ldexp(f, g) ** (1.0 / n)
    q, rem = divmod(g, n)
    try:
        return math.ldexp(f ** (1.0 / n) * 2.0 ** (rem / n), q)
    except OverflowError:
        return math.inf


def _in_scale(value: float, exponent: int, target: int) -> float:
    """value * 2^(exponent - target), exact when that is a normal float;
    inf above the float range and 0 below it, where it is under
    _SCREEN_FLOOR and prunes nothing."""
    if value <= 0.0:
        return 0.0
    f, g = math.frexp(value)
    g += exponent - target
    if g > 1024:
        return math.inf
    return math.ldexp(f, g) if g >= -1021 else 0.0


def _cheap_norms(block: np.ndarray) -> tuple[np.ndarray, ...]:
    """Column-sum, row-sum and Frobenius norms of every row of a block.

    The entries are laid out (d, d, m), so every sum and maximum runs
    over whole arrays of m values rather than over tiny trailing axes.
    """
    m, d, _ = block.shape
    a = np.abs(block.transpose(1, 2, 0), out=np.empty((d, d, m)))
    flat = block.reshape(m, d * d)
    with np.errstate(over="ignore"):
        frobenius = np.sqrt(np.einsum("mi,mi->m", flat, flat))
    return a.sum(axis=0).max(axis=0), a.sum(axis=1).max(axis=0), frobenius


def _screened_max(block: np.ndarray, metric, bound,
                  norms: tuple[np.ndarray, ...] | None, best: float
                  ) -> tuple[float, int] | None:
    """(value, row) of the first row holding the block's largest value of
    ``metric``, or None when no row can reach ``best`` (in block scale).
    Every row is scanned when ``norms`` or ``bound`` is None.

    A row is pruned when bound * (1 + _SCREEN_MARGIN) < threshold, the
    threshold being the larger of ``best`` and the exact value of the row
    with the largest bound.  Such a row can neither hold nor tie the
    maximum, because for every row whose computed value v is at least
    _SCREEN_FLOOR, v <= computed bound * (1 + _SCREEN_MARGIN):
    - Rounding.  Each cheap norm is at least the largest entry |p| of P.
      The 2-norm and eigensolver kernels are backward stable: v is, up to
      a few roundings, the value of P + E with ||E|| <= c(d) eps ||P||,
      and at most ||P + E|| in the 1, inf and Frobenius norms (radii are
      below every norm, the 2-norm below the Frobenius norm and the
      geometric mean of the 1 and inf norms).  The d = 2 closed form of
      the 2-norm has ``eigvalsh``'s bits.  The d = 1 radius closed form is
      exact; the d = 2 one is not stable near a double eigenvalue, but its
      discriminant on P / |p| is off by at most about 40 eps, so v exceeds
      rho(P) by at most sqrt(40 eps) / 2 |p|, about 5e-8 |p|.  The
      computed sums lose at most d eps.  The l1 and linf bounds are the
      sums their kernels take.  The l1 kernel adds each column's terms
      row by row, as ``_cheap_norms`` does, so v is the bound's bits.  The
      linf kernel sums each row along its contiguous axis, which numpy
      adds pairwise from d = 8 on, against term by term in
      ``_cheap_norms``; both orders of d terms >= 0 are within d eps of
      the exact sum, so v <= r (1 + 2 d eps).  The margin, 2^-20 or
      2^32 eps, covers c(d) + d and 2 d for any dimension whose products
      can be enumerated, and 5e-8 19 times over.
    - Underflow.  v >= 2^-480 forces an entry of P of at least 2^-482 / d,
      whose square is a normal float; entries that underflow in the sums
      or squares change them by a relative d^4 * 2^-115 at most.  Below
      the floor nothing is pruned.
    - Overflow.  Block entries stay below 2^500, so only the bounds can
      overflow, to inf, which prunes nothing.
    Kept rows are scanned in order and the kernels give the same bits on
    a subset of rows as on the block, so the first maximal row is found.
    """
    rows = None
    if norms is not None and bound is not None:
        with np.errstate(over="ignore"):
            bound = bound(*norms) * (1.0 + _SCREEN_MARGIN)
        top = int(np.argmax(bound))
        if best >= _SCREEN_FLOOR and bound[top] < best:
            return None
        threshold = max(float(_metric_values(block[top:top + 1], metric)[0]),
                        best)
        kept = np.flatnonzero(bound >= threshold)
        if threshold >= _SCREEN_FLOOR and kept.size < block.shape[0]:
            rows = kept
    vals = _metric_values(block if rows is None else block[rows], metric)
    j = int(np.argmax(vals))
    return float(vals[j]), j if rows is None else int(rows[j])


def _level_max(mset: MatrixSet, n: int, chunks, metrics: list
               ) -> list[tuple[float, int, Word]]:
    """The (mantissa, exponent, witness word) of each metric over the
    chunks of the length-n words; see ``max_over_products``."""
    bounds = [_metric_bound(metric) for metric in metrics]
    best: list[tuple[float, int, int]] = [(-np.inf, 0, -1)] * len(metrics)
    screened = any(bound is not None for bound in bounds)
    for start, chunk, exponent in chunks:
        norms = (_cheap_norms(chunk)
                 if screened and chunk.size >= _SCREEN_MIN_FLOATS else None)
        for k, (metric, bound) in enumerate(zip(metrics, bounds)):
            found = _screened_max(chunk, metric, bound, norms,
                                  _in_scale(*best[k][:2], exponent))
            if found is not None and _exceeds(found[0], exponent,
                                              *best[k][:2]):
                best[k] = (found[0], exponent, start + found[1])
    return [
        (value, exponent, word_from_index(index, mset.r, n))
        for value, exponent, index in best
    ]


def max_over_products(
    mset: MatrixSet,
    n: int,
    metrics: list,
    max_words: int = DEFAULT_WORD_BUDGET,
    *,
    first: int | None = None,
) -> list:
    """Maximize several per-product metrics in one enumeration pass.

    A metric is a NormKind (its induced operator norm), ``RADIUS`` (the
    spectral radius) or ``TRACE`` (|trace|).  Returns (mantissa, exponent,
    witness word) per metric over the length-n products; ties keep the
    first word in lexicographic order.  With ``first``, returns one such
    list per length first..n, each level grown from the one before where
    it fits one block (see ``_product_levels``), with the same bits as a
    call per length.  A JsrError raised at a level carries the lists of
    the levels before it in its ``partial`` attribute.

    On blocks of at least _SCREEN_MIN_FLOATS entries, the operator norms
    and the radius run their exact kernels only on the rows whose cheap
    bound can still reach the best value so far (see ``_screened_max``),
    from block norms taken once for all metrics.  Values and witnesses
    are those of the exact kernel on every row.
    """
    levels: list[list[tuple[float, int, Word]]] = []
    try:
        for k, chunks in _product_levels(mset, n if first is None else first,
                                         n, max_words):
            levels.append(_level_max(mset, k, chunks, metrics))
    except JsrError as exc:
        exc.partial = levels
        raise
    return levels if first is not None else levels[0]

"""Matrix sets, norms, spectral radii and product enumeration.

A matrix set is a finite collection of real d x d matrices.  Everything in
this package reduces to scanning the products A_{i_n} ... A_{i_2} A_{i_1}
over index words (i_1, ..., i_n); the word lists the factor applied first
on the right, so word (1, 2) denotes the product A_2 A_1.

One engine, ``_walk``, produces those products through one batched
left-multiplication (``_left_multiply``), so every scan sees the same
numbers in the same lexicographic order.  It walks a length's word tree
breadth first from the longest complete product table of its pass: a
length whose products fit one block is the table times one more factor,
and a longer one is formed in groups of prefixes, each walked to the end
before the next.  A single length's walk forms the same table, so its
blocks are those of the pass, rescaled at the same points, and every
product has the same bits.  In a pass over several lengths
(``max_over_products`` with ``first``), a prefix is dropped once a bound
on every product under it falls below a value its length is known to
reach, so most words of a long pass are never formed (see ``_Pass``).
Since rho(XY) = rho(YX), the spectral radius is maximized over the
necklaces alone, the words least among their rotations; the walk
carries each word's prenecklace period to find them and to drop, for
the radius, the prefixes of no necklace.

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
column and row sums themselves; a pass that screens l2 alone takes the
Frobenius norms alone).  ``max_over_products`` runs the exact kernel on
the row with the largest bound, then only on the rows whose bound can
still reach that value, the best of earlier blocks or, in a pruned
level, the value the level is known to reach, so those kernels see a
small share of the products.  The kernels give the same bits on a
subset of rows as on the whole block, and no row that holds or ties the
maximum is pruned, so values and witnesses are those of the full scan.

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

# Entries of a block that ``_left_multiply`` takes at a time, into two
# accumulators of r times as many (1.25 MB in all at r = 2).  Chunks cut
# by r took 0.88-1.89 times as long at d = 2-8, r = 2-8, and over 1.7
# times at d >= 6, r <= 4 (2-core Xeon, numpy 2.4).
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

# Chains of the radius seeds kept in a pass (see ``_Pass``).  They act
# past the n <= 19 of the benchmark's bound tasks.  [L2, RADIUS] passes
# to n = 40 on random sets (2-core Xeon, one BLAS thread) took 0.27,
# 0.70, 4.65 and 7.1 s with 2 chains, 0.82, 2.88, 5.84 and 8.3 s with
# none ((d, r) = (3, 2), (3, 3), (2, 2), (4, 2)); on 15 other sets the
# chains took 0.16 s against 0.75 s at best, 0.51 s against 0.33 at worst.
_CHAINS = 2

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
    linf norms are the column-sum and row-sum norms themselves.  Where
    the sums were not taken (c and r None), the l2 bound is ||P||_F
    alone.  None for |trace|, whose kernel costs less than the screen."""
    if metric is NormKind.L1:
        return lambda c, r, f: c
    if metric is NormKind.LINF:
        return lambda c, r, f: r
    if metric is NormKind.L2:
        return lambda c, r, f: (f if c is None
                                else np.minimum(np.sqrt(c * r), f))
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
    so a first term of -0 gives +0.  The entries are laid out (r, d, d, m),
    _MULTIPLY_FLOATS / (d d) columns at a time, so each step is one
    multiply-add over all members and whole arrays held in cache.
    """
    r, d, _ = mats.shape
    m = block.shape[0]
    out = np.empty((m, r, d, d))
    cols = max(1, _MULTIPLY_FLOATS // (d * d))
    # (b, t, a, 1, 1): column b of every member, against row b of x
    left = mats.transpose(2, 0, 1)[..., None, None]
    acc, term = np.empty((2, r, d, d, min(cols, m)))
    for lo in range(0, m, cols):
        x = block[lo:lo + cols].transpose(1, 2, 0).copy()
        k = x.shape[-1]
        np.multiply(left[0], x[0], out=acc[..., :k])
        acc[..., :k] += 0.0
        for b in range(1, d):
            np.multiply(left[b], x[b], out=term[..., :k])
            acc[..., :k] += term[..., :k]
        out[lo:lo + k] = acc[..., :k].transpose(3, 0, 1, 2)
    return out.reshape(-1, d, d)


def _extend(mats: np.ndarray, block: np.ndarray, exponent: int,
            step: int, formed: dict | None = None) -> tuple[np.ndarray, int]:
    """Left-multiply every product in ``block`` by one more factor.

    Appending index t to the product at position j lands at j * r + t, so
    word order is kept.  ``mats`` are the members / 2^step.  ``formed``
    maps positions j to the r products ``_left_multiply`` gave for row j,
    which are not formed again.
    """
    if formed:
        r, d, _ = mats.shape
        out = np.empty((block.shape[0], r, d, d))
        rest = np.ones(block.shape[0], dtype=bool)
        rest[list(formed)] = False
        out[rest] = _left_multiply(mats, block[rest]).reshape(-1, r, d, d)
        out[list(formed)] = list(formed.values())
        block = out.reshape(-1, d, d)
    else:
        block = _left_multiply(mats, block)
    return _rescale(block, exponent + step)


def _rescale(block: np.ndarray, exponent: int) -> tuple[np.ndarray, int]:
    """The block times 2^-s and exponent + s, s the binary exponent of its
    largest entry, when that leaves [-_RANGE_BITS, _RANGE_BITS]."""
    shift = math.frexp(float(max(block.max(), -block.min())))[1]
    if abs(shift) > _RANGE_BITS:
        block, exponent = np.ldexp(block, -shift), exponent + shift
    return block, exponent


@dataclass
class _Table:
    """The longest complete product table of a pass: the r^depth products
    of length ``depth`` in word order, as block * 2^exponent, and, in a
    walk that tracks necklaces, the prenecklace period of each word (see
    ``_grow_periods``)."""

    block: np.ndarray
    exponent: int
    depth: int
    periods: np.ndarray | None = None


def _grow_periods(periods: np.ndarray, index: np.ndarray, depth: int,
                  r: int, powers: np.ndarray) -> np.ndarray:
    """The prenecklace periods of the r one-factor extensions of each row,
    row j and factor t landing at j * r + t as in ``_extend``.

    A prenecklace is a prefix of a necklace, a word that is least among
    its rotations.  ``periods[j]`` is the period p of the length-``depth``
    word at ``index[j]`` (the length of its longest prefix that is a
    Lyndon word), 0 when it is no prenecklace; the empty word has p = 1.
    ``powers[k]`` is r^k.  By the theorem of Fredricksen and Maiorana
    (Cattell et al., J. Algorithms 37 (2000)), appending b to a
    prenecklace a_1 .. a_depth gives one iff b >= a_(depth + 1 - p), the
    digit (index // r^(p - 1)) % r; the period stays p when they are
    equal and becomes depth + 1 when b is greater.  A word of length n is
    a necklace iff p > 0 divides n.  Python-int indices (an object array)
    work at any length.
    """
    digit = index // powers[periods - 1] % r
    # no factor reaches r: the extensions of a non-prenecklace get 0
    digit[periods == 0] = r
    ahead = np.arange(r) - digit.astype(np.intp, copy=False)[:, None]
    return np.where(ahead > 0, depth + 1,
                    periods[:, None] * (ahead == 0)).ravel()


def _necklace_rows(periods: np.ndarray, n: int) -> np.ndarray:
    """The rows whose length-n word is a necklace: p > 0 divides n."""
    return np.flatnonzero((periods > 0) & (n % np.maximum(periods, 1) == 0))


@dataclass
class _Chain:
    """The word of the first ``length`` letters of w w w ..., w = ``root``
    a primitive necklace (letters from 0): its index and its product
    row * 2^exponent, formed one factor at a time as the walk forms
    products.  Every prefix of w w w ... is a prenecklace of period |w|."""

    root: tuple[int, ...]
    index: int
    row: np.ndarray
    exponent: int
    length: int
    rate: float

    def rebase(self, table: _Table, r: int) -> None:
        """Take the row from the table when the table is longer: it has the
        walk's bits, and no product is formed."""
        if self.length < table.depth:
            self.length, self.index = table.depth, 0
            for k in range(table.depth):
                self.index = self.index * r + self.root[k % len(self.root)]
            self.row = table.block[self.index].copy()
            self.exponent = table.exponent

    def advance(self, products: np.ndarray, exponent: int) -> None:
        """One more letter, from the r products of the row's extensions,
        which are products * 2^exponent."""
        letter = self.root[self.length % len(self.root)]
        self.index = self.index * products.shape[0] + letter
        self.row, self.exponent = products[letter].copy(), exponent
        self.length += 1


def _walk(mats: np.ndarray, step: int, table: _Table, n: int, prune=None,
          formed: dict | None = None
          ) -> Iterator[tuple[int, np.ndarray | None, np.ndarray, int,
                              np.ndarray | None]]:
    """Yield (start, rows, block, exponent, periods) over the length-n
    words in lexicographic order, the products being block * 2^exponent.

    The walk starts from ``table`` and extends blocks one factor at a
    time, breadth first.  ``prune(block, exponent, depth, periods)``,
    when given, returns a mask of the prefixes to keep, or None to keep
    them all; the words under a dropped prefix are never formed.  ``rows``
    is None when a block holds the consecutive words start, start + 1,
    ...; else ``rows[i]`` is the index of row i.  When the table carries
    periods, ``periods[i]`` is the prenecklace period of row i's word,
    grown factor by factor (``_grow_periods``); else it is None.  A
    complete block (every word of its length) is extended whole while
    its extension fits, up to length t, the largest whose r^t products
    fit _CHUNK_FLOATS entries; that block becomes the table, so the next
    level starts from it, and a walk from the identity forms the same
    table as a pass over several lengths.  Below it, a block of several
    prefixes whose r^(n - depth) extensions would exceed _CHUNK_FLOATS
    entries is split into groups of r^(t - n + depth) rows (one row when
    t < n - depth), each walked to the end before the next and rescaled
    on its own.  So memory stays
    at a few blocks, and unpruned, the length-n blocks are the r^t words
    under each prefix of n - t factors.

    ``formed`` maps indices of length-(n - 1) words to (bits, exponent,
    products): the r products ``_left_multiply`` gave for that row.  A
    row of the same bits at the same exponent is not extended again.
    The map may be filled while the walk runs.
    """
    r, d = mats.shape[0], mats.shape[-1]
    fit = 1  # r^t, t the largest length whose r^t products fit a block
    while r > 1 and fit * r * d * d <= _CHUNK_FLOATS:
        fit *= r
    # word indices past 2^62 are kept as Python ints
    big = r ** n >= 1 << 62
    if table.periods is not None:
        powers = np.array([r ** k for k in range(n)],
                          dtype=object if big else np.int64)

    def visit(start, rows, periods, block, exponent, depth, tested=False):
        while depth < n:
            keep = None if prune is None or tested else prune(
                block, exponent, depth, periods)
            tested = False
            if keep is not None:
                kept = np.flatnonzero(keep)
                if rows is None:
                    rows = (kept.astype(object) if big else kept) + start
                else:
                    rows = rows[kept]
                block = block[kept]
                if periods is not None:
                    periods = periods[kept]
            m = block.shape[0]
            if m == 0:
                return
            span = r ** (n - depth)
            complete = rows is None and m == r ** depth
            if (m > 1 and m * span * d * d > _CHUNK_FLOATS
                    and not (complete and m < fit)):
                group = max(1, fit // span)
                for lo in range(0, m, group):
                    yield from visit(start + lo, None if rows is None
                                     else rows[lo:lo + group],
                                     None if periods is None
                                     else periods[lo:lo + group],
                                     block[lo:lo + group], exponent, depth,
                                     True)
                return
            if periods is not None:
                index = rows if rows is not None else start + np.arange(
                    m, dtype=object if big else np.int64)
                periods = _grow_periods(periods, index, depth, r, powers)
            known = None
            if formed and depth == n - 1:
                known = _formed_rows(formed, start, rows, block, exponent)
            block, exponent = _extend(mats, block, exponent, step, known)
            depth, start = depth + 1, start * r
            if rows is not None:
                rows = (rows[:, None] * r + np.arange(r)).ravel()
            elif complete:
                table.block, table.exponent, table.depth, table.periods = \
                    block, exponent, depth, periods
        yield start, rows, block, exponent, periods

    yield from visit(0, None, table.periods, table.block, table.exponent,
                     table.depth)


def _formed_rows(formed: dict, start: int, rows: np.ndarray | None,
                 block: np.ndarray, exponent: int) -> dict:
    """{position: products} for the rows of ``block`` whose extensions
    ``formed`` holds from the same bits at the same exponent."""
    keys = list(formed)
    if rows is None:
        hits = [(index - start, index) for index in keys
                if 0 <= index - start < len(block)]
    else:
        # the walk keeps rows in increasing order
        hits = [(j, index) for j, index in
                zip(np.searchsorted(rows, keys).tolist(), keys)
                if j < len(rows) and rows[j] == index]
    found = {}
    for j, index in hits:
        bits, at, products = formed[index]
        if at == exponent and block[j].tobytes() == bits:
            found[int(j)] = products
    return found


def _check_length(n: int, first: int) -> None:
    """Raise ValueError unless 1 <= first <= n."""
    if n < 1:
        raise ValueError("product length n must be a positive integer")
    if not 1 <= first <= n:
        raise ValueError(f"first must be in 1..n = {n}, got {first!r}")


def _level_budget(r: int, n: int, max_words: int) -> None:
    """Raise BudgetExceededError when the r^n words exceed max_words."""
    _check_budget("enumerating length-{n} products requires {count} "
                  "words, budget is {budget}", r, n, "max_words", max_words)


def _product_chunks(
    mset: MatrixSet, n: int, max_words: int
) -> Iterator[tuple[int, np.ndarray, int]]:
    """(start_index, block, exponent) covering the length-n words in order,
    the products being block * 2^exponent: the unpruned walk from the
    identity, after the budget check."""
    _check_length(n, n)
    _level_budget(mset.r, n, max_words)
    step, mats = _binary_scale(mset)
    table = _Table(np.eye(mset.dim)[None], 0, 0)
    for start, _, block, exponent, _ in _walk(mats, step, table, n):
        yield start, block, exponent


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


def _sum_norms(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column-sum and row-sum norms of every row of a block.

    The entries are laid out (d, d, m), so every sum and maximum runs
    over whole arrays of m values rather than over tiny trailing axes.
    """
    m, d, _ = block.shape
    a = np.abs(block.transpose(1, 2, 0), out=np.empty((d, d, m)))
    return a.sum(axis=0).max(axis=0), a.sum(axis=1).max(axis=0)


def _cheap_norms(block: np.ndarray, sums: bool = True) -> tuple:
    """Column-sum, row-sum and Frobenius norms of every row of a block;
    without ``sums``, the last alone (one einsum) after two Nones."""
    flat = block.reshape(block.shape[0], -1)
    with np.errstate(over="ignore"):
        frobenius = np.sqrt(np.einsum("mi,mi->m", flat, flat))
    return *(_sum_norms(block) if sums else (None, None)), frobenius


def _screened_max(block: np.ndarray, metric, bound,
                  norms: tuple[np.ndarray, ...] | None, best: float
                  ) -> tuple[float, int] | None:
    """(value, row) of the first row holding the block's largest value of
    ``metric``, or None when no row can reach ``best`` (in block scale).
    Every row is scanned when ``norms`` or ``bound`` is None.  ``norms``
    are ``_cheap_norms``' of the block: all three when a screened metric
    of the pass reads the column or row sums (l1, linf or the radius),
    else the Frobenius norms alone, which bound l2 by themselves.

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
      geometric mean of the 1 and inf norms, so below either alone).
      The d = 2 closed form of the 2-norm has ``eigvalsh``'s bits.  The
      d = 1 radius closed form is exact; the d = 2 one is not stable near
      a double eigenvalue, but its discriminant on P / |p| is off by at
      most about 40 eps, so v exceeds rho(P) by at most
      sqrt(40 eps) / 2 |p|, about 5e-8 |p|.  The
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


def _pair(value: float, exponent: int) -> tuple[float, int]:
    """value * 2^exponent as (f, g) with f in [0.5, 1), or f = 0."""
    f, g = math.frexp(value)
    return f, exponent + g


def _pair_sum(a: tuple[float, int], b: tuple[float, int],
              weight: float = 1.0) -> tuple[float, int]:
    """a + weight * b for pairs, clamped at 0.  A term under 2^-1074 of the
    other is dropped, a relative change the pruning margins cover."""
    if b[0] == 0.0:
        return a
    if a[0] == 0.0:
        return _pair(max(weight * b[0], 0.0), b[1])
    top = max(a[1], b[1])
    total = (math.ldexp(a[0], a[1] - top)
             + weight * math.ldexp(b[0], b[1] - top))
    return _pair(max(total, 0.0), top)


def _pair_product(a: tuple[float, int], b: tuple[float, int]
                  ) -> tuple[float, int]:
    return _pair(a[0] * b[0], a[1] + b[1])


class _Pass:
    """One ``max_over_products`` pass over the lengths first..n: the table,
    the level maxima so far, and the pruning of each level's walk.

    Necklaces.  rho(XY) = rho(YX), so in exact arithmetic a word's product
    has the spectral radius of each of its rotations, and the radius is
    maximized over the necklaces of a level, the words that are least
    among their rotations: the witness is the first such word in
    lexicographic order, the least rotation of its class.  The computed
    radii of a word's rotations differ in the last bits, so this maximum
    can be a few ulps under the one over every word (on defective
    products by far more, which is why no radius of another word is used
    below).  The walk carries each row's prenecklace period
    (``_grow_periods``), and the radius kernel runs only on the leaves
    whose period divides L, at every level, so a level of a pass is that
    of a call for its length.  The norms and |trace| take every word.

    Pruning.  Let K be the first operator norm among the metrics, ub the
    bound of ``_metric_bound(K)`` on a block (the column or row sums, or
    min(sqrt(c r), F) in l2), so ub(P) >= || |P| ||_K >= ||P||_K, M the
    largest ub of a member, N_k the K maximum of level k as computed, and
    u = 2^-53; all in true scale.  At depth j < L of the walk of level L,
    L - j being a level of this pass, the metric m drops a prefix P of j
    factors when

        (1 + 2 mu) (ub(P) F_j + U) < t_m,   F_j = N_{L-j} + R_j,

    with mu = _SCREEN_MARGIN, R_j = 4 (L - j) d u M^(L-j) and
    U = L d^3 2^-568 M^L.  Its threshold is
    t_m = max(seed_m / c_m - 2 U, best_m / c_m), where c_m is 1 for K and
    the radius and d for |trace| and the other norms (|tr X| <= d rho(X)
    and ||X||_m <= d ||X||_K).  The candidates of m are the words its
    maximum is taken over, the necklaces for the radius and every word
    for the others; seed_m is the largest value of m on its candidates
    among the one-factor extensions of the seed rows (below), formed from
    those rows as the walk forms products, and best_m the largest on its
    candidates among the leaves walked so far.  The radius also drops
    every prefix that is not a prenecklace.  The walk drops a prefix
    when every metric drops it.  No metric loses a candidate that holds
    or ties its maximum:
    - A prefix of a necklace is a prenecklace, by definition, so no
      necklace lies under a prefix that is not one.
    - Every leaf Q under a prefix that m drops has a computed value
      v_m < c_m t_m <= the computed maximum of m over its candidates, as
      seed_m and best_m are values of candidates, so Q can neither hold
      nor tie that maximum.  A radius seed from another word could stand
      above every necklace's computed radius, and drop the maximum.
    - Leaves that another metric keeps are words of the level too, so
      scanning them leaves each maximum and its first witness as they are.
    The bound on v_m:
    - Rounding.  Q = fl(A_{i_L} ... fl(A_{i_(j+1)} P)) with each sum
      started from +0, so |Q - T P| <= gamma_{(L-j) d} |A_{i_L}| ...
      |A_{i_(j+1)}| |P| for the exact tail product T (Higham, Accuracy
      and Stability, 3.5), and ||Q||_K <= ||T||_K ||P||_K
      + gamma M^(L-j) ub(P).  The computed tail obeys the same bound from
      the identity, and its computed norm is at most N_{L-j}, so
      ||T||_K <= N_{L-j} (1 + kappa) + gamma M^(L-j); R_j >= 2 gamma M^(L-j).
      Here kappa < 2^-22 is the relative error of a kernel, as argued in
      ``_screened_max``, which also bounds v_m by c_m (1 + kappa) ||Q||_K
      (the d = 2 radius closed form's 5e-8 of the largest entry
      included).  Without the R_j term the bound fails on sets such as
      S U_i S^-1, U_i strictly upper triangular and cond(S) = 1e13, whose
      computed products are rounding alone.
    - The cheap bound.  ub(P) is within 2 d u of its exact value when it
      is at least _SCREEN_FLOOR in block scale, where no square in it
      underflows; rows below the floor are kept.
    - Underflow.  A block's largest entry is at least 2^-501 of its scale
      and every entry of a level-k product is below (1 + gamma) M^k, so an
      underflowed multiply moves a level-L product by at most d^2 2^-572 M^L
      in K norm.  The steps of a leaf and of its tail move it by at most
      U / 2, and so do those of a seed formed in other blocks than the
      walk's, which the 2 U taken off the seeds covers.
    The margins 2 mu against mu leave room for (1 + kappa)^3, the 2 d u of
    ub and the few roundings of the test.  For the same reason the leaf
    screen may start from seed_m - 2 c_m U: no leaf below it holds or ties
    the maximum of m.

    Seed rows.  They are the previous level's witnesses and the chains:
    for the radius witnesses w of earlier levels, the prefix of w w w ...
    of L - 1 letters, a prenecklace of period |w| (w taken primitive).
    Its necklace extensions are Lyndon words, and w^(L / |w|) when |w|
    divides L, with radii near rho(w)^(L / |w|).  The witnesses' own
    extensions seldom come near the radius maximum, which lies near
    powers of short words: on the 3x3 triple of the ``enum`` benchmark
    they reach 0.29-0.58 of it.  A chain grows one factor a level, from
    the products its seeds formed, and starts from the table when that is
    longer, so it forms nothing of its own while seeds are formed at every
    level.  The _CHAINS chains whose w has the largest rho(w)^(1 / |w|)
    are kept.

    Levels of fewer than _SCREEN_MIN_FLOATS entries are formed whole:
    below that size the tests cost more than the products they save.

    A block is tested only when it could lose a row: the least threshold
    t over the metrics but the radius is at most the computed level
    maximum of K, which is at most (1 + mu) (N_j G_j + U) with
    G_j = N_{L-j} + sqrt(d) R_j by the same argument on the maximizing
    word's prefix (||P|| <= (1 + kappa) N_j and ub(P) <= sqrt(d) ||P||),
    so when no row's bound is below that, those metrics keep every row,
    the block is kept whole and the seeds are not formed.  On sets whose
    products tie in the norm, such as rotations in l2, every level then
    forms the products of the unpruned walk and no more.

    Work.  The seeds' products are kept, and the walk does not form them
    again when it reaches their rows with the same bits at the same
    exponent (``_walk``'s ``formed``).  A whole length that keeps half
    its prefixes or more is kept whole when its extension fits a block:
    the extension costs at most twice the kept part, and it becomes the
    table, so the later levels do not form those prefixes again.  On
    sets whose products nearly tie, such as rotations in l1, which drop
    few prefixes or none, a pass then forms no more products than the
    unpruned one.
    """

    def __init__(self, mset: MatrixSet, metrics: list, first: int):
        self.step, self.mats = _binary_scale(mset)
        self.r, self.d = mset.r, mset.dim
        self.metrics, self.first = metrics, first
        # the radius is taken over necklaces: the walk carries periods
        self.table = _Table(np.eye(self.d)[None], 0, 0,
                            np.ones(1, dtype=np.intp) if RADIUS in metrics
                            else None)
        self.bounds = [_metric_bound(metric) for metric in metrics]
        kinds = [m for m in metrics if isinstance(m, NormKind)]
        # a level of one word has nothing to prune
        self.kind = kinds[0] if kinds and self.r > 1 else None
        if self.kind is not None:
            self.norm_index = metrics.index(self.kind)
            self.ub = _metric_bound(self.kind)
            self.c = [1.0 if m is self.kind or m == RADIUS else float(self.d)
                      for m in metrics]
            self.powers: list[tuple[float, int]] = []
        self.norm_max: list[tuple[float, int]] = []
        self.witnesses: list = []
        self.chains: dict[tuple[int, ...], _Chain] = {}

    def level(self, n: int) -> list[tuple[float, int, Word]]:
        """The (mantissa, exponent, witness word) of each metric over the
        length-n words; the levels first..n - 1 must be done."""
        screened = [metric for metric, bound in zip(self.metrics,
                                                    self.bounds) if bound]
        # l2 alone reads only ||P||_F >= ||P||_2 at the leaves
        sums = any(metric is not NormKind.L2 for metric in screened)
        self.n, self.seeds, self.factors, self.formed = n, None, {}, {}
        self.best: list[tuple[float, int, int]] = \
            [(-np.inf, 0, -1)] * len(self.metrics)
        witnesses: list = [None] * len(self.metrics)
        prune = None
        # below the screen's size, forming a whole level costs less
        if (self.kind is not None and n > self.first
                and self.r ** n * self.d ** 2 >= _SCREEN_MIN_FLOATS):
            prune = self._keep
            self.underflow = self._scaled_power(
                n, n * self.d ** 3 * 2.0 ** -568)
        for start, rows, chunk, exponent, periods in _walk(
                self.mats, self.step, self.table, n, prune, self.formed):
            norms = None
            if screened and chunk.size >= _SCREEN_MIN_FLOATS:
                norms = _cheap_norms(chunk, sums)
            if periods is not None:
                necklaces = _necklace_rows(periods, n)
            for k, (metric, bound) in enumerate(zip(self.metrics,
                                                    self.bounds)):
                reach = _in_scale(*self.best[k][:2], exponent)
                if self.seeds is not None:
                    seed = self.seeds[k]
                    reach = max(reach, _in_scale(seed[0] * self.c[k],
                                                 seed[1], exponent))
                block, block_norms, subset = chunk, norms, None
                if metric == RADIUS and necklaces.size < chunk.shape[0]:
                    if necklaces.size == 0:
                        continue
                    block, subset = chunk[necklaces], necklaces
                    if norms is not None:
                        block_norms = tuple(x[subset] for x in norms)
                found = _screened_max(block, metric, bound, block_norms, reach)
                if found is not None and _exceeds(found[0], exponent,
                                                  *self.best[k][:2]):
                    value, j = found
                    if subset is not None:
                        j = int(subset[j])
                    index = start + j if rows is None else int(rows[j])
                    self.best[k] = (value, exponent, index)
                    witnesses[k] = (index, chunk[j].copy(), exponent,
                                    None if periods is None else periods[j])
        self.witnesses = witnesses
        if self.kind is not None:
            self.norm_max.append(_pair(*self.best[self.norm_index][:2]))
            if RADIUS in self.metrics:
                self._add_chain(n)
        return [(value, exponent, word_from_index(index, self.r, n))
                for value, exponent, index in self.best]

    def _add_chain(self, n: int) -> None:
        """Start a chain from the radius witness w of level n, keeping the
        _CHAINS chains whose root has the largest radius rate
        rho(w)^(1 / n)."""
        k = self.metrics.index(RADIUS)
        index, row, exponent, _ = self.witnesses[k]
        word = tuple(t - 1 for t in word_from_index(index, self.r, n))
        root = next(word[:p] for p in range(1, n + 1)
                    if n % p == 0 and word == word[:p] * (n // p))
        rate = _root(*self.best[k][:2], n)
        if root not in self.chains:
            self.chains[root] = _Chain(root, index, row, exponent, n, rate)
            if len(self.chains) > _CHAINS:
                del self.chains[min(self.chains,
                                    key=lambda w: self.chains[w].rate)]

    def _scaled_power(self, k: int, weight: float) -> tuple[float, int]:
        """weight * M^k in true scale, as a pair."""
        if not self.powers:
            # M^0, and M itself in member scale
            self.powers.append((0.5, 1))
            self.member_bound = _pair(
                float(self.ub(*_cheap_norms(self.mats)).max()), 0)
        while len(self.powers) <= k:
            self.powers.append(_pair_product(self.powers[-1],
                                             self.member_bound))
        f, g = self.powers[k]
        return _pair(weight * f, g + k * self.step)

    def _factor(self, depth: int) -> tuple[tuple[float, int], ...]:
        """(F_j, G_j) for j = depth at the current level."""
        if depth not in self.factors:
            tail = self.n - depth
            norm = self.norm_max[tail - self.first]
            rounding = self._scaled_power(
                tail, 4.0 * tail * self.d * 2.0 ** -53)
            self.factors[depth] = (_pair_sum(norm, rounding),
                                   _pair_sum(norm, rounding,
                                             math.sqrt(self.d)))
        return self.factors[depth]

    def _seed(self) -> None:
        """Form the seeds: the largest value of each metric on the
        one-factor extensions of the previous level's witnesses and of the
        chains, the radius's on the extensions that are necklaces."""
        rows = {}
        for index, row, exponent, period in self.witnesses:
            rows.setdefault(index, (row, exponent, period))
        for chain in self.chains.values():
            chain.rebase(self.table, self.r)
            while chain.length < self.n - 1:
                block, exponent = self._extended([chain.row], chain.exponent)
                chain.advance(block, exponent)
            rows.setdefault(chain.index, (chain.row, chain.exponent,
                                          len(chain.root)))
        values = [(0.0, 0)] * len(self.metrics)
        groups: dict[int, list] = {}
        for index, (row, exponent, period) in rows.items():
            groups.setdefault(exponent, []).append((index, row, period))
        ends = {}
        powers = np.array([self.r ** k for k in range(self.n)], dtype=object)
        for exponent, group in groups.items():
            indices = [index for index, _, _ in group]
            block, at = self._extended([row for _, row, _ in group],
                                       exponent, indices)
            for j, index in enumerate(indices):
                ends[index] = (block[j * self.r:(j + 1) * self.r], at)
            if RADIUS in self.metrics:
                necklaces = _necklace_rows(_grow_periods(
                    np.array([period for _, _, period in group]),
                    np.array(indices, dtype=object), self.n - 1, self.r,
                    powers), self.n)
            for k, metric in enumerate(self.metrics):
                scanned = block if metric != RADIUS else block[necklaces]
                if scanned.shape[0] == 0:
                    continue
                seed = _pair(float(_metric_values(scanned, metric).max()), at)
                if _exceeds(*seed, *values[k]):
                    values[k] = seed
        for chain in self.chains.values():
            chain.advance(*ends[chain.index])
        self.seeds = [_pair_sum(_pair(f / c, g), self.underflow, -2.0)
                      for (f, g), c in zip(values, self.c)]

    def _extended(self, rows: list, exponent: int,
                  indices: list | None = None) -> tuple[np.ndarray, int]:
        """(block, exponent): row j times factor t is block[j * r + t] *
        2^exponent, for rows * 2^``exponent``.  With the rows' word
        ``indices``, the products go to ``formed``, and the walk does not
        form them again if it reaches the rows."""
        products = _left_multiply(self.mats, np.array(rows))
        for j, index in enumerate(indices or ()):
            self.formed[index] = (rows[j].tobytes(), exponent,
                                  products[j * self.r:(j + 1) * self.r])
        return _rescale(products, exponent + self.step)

    def _thresholds(self) -> tuple:
        """(t, t_R) as pairs: t the least threshold over the metrics but
        the radius, t_R the radius's, None without it.  The seeds are
        formed at the first call."""
        if self.seeds is None:
            self._seed()
        least = radius = None
        for metric, seed, (value, exponent, _), c in zip(
                self.metrics, self.seeds, self.best, self.c):
            if value > 0.0 and _exceeds(value / c, exponent, *seed):
                seed = _pair(value / c, exponent)
            if metric == RADIUS:
                radius = seed
            elif least is None or _exceeds(*least, *seed):
                least = seed
        return least, radius

    def _keep(self, block: np.ndarray, exponent: int, depth: int,
              periods: np.ndarray | None):
        """The prefixes of a block to keep at ``depth``, or None for all."""
        if depth < 1 or self.n - depth < self.first:
            return None
        (f, g), limit = self._factor(depth)
        ub = self.ub(*_cheap_norms(block))
        grow = 1.0 + 2.0 * _SCREEN_MARGIN
        if depth >= self.first:
            lowest = _pair_sum(_pair(float(ub.min()) * f, exponent + g),
                               self.underflow)
            reached = self.norm_max[depth - self.first]
            highest = _pair_sum(_pair_product(reached, limit),
                                self.underflow)
            if not _exceeds(highest[0] * (1.0 + _SCREEN_MARGIN), highest[1],
                            lowest[0] * grow, lowest[1]):
                return None
        reach = ub * f

        def level_of(t):
            t = _pair_sum(_pair(t[0] / grow, t[1]), self.underflow, -1.0)
            return _in_scale(*t, exponent + g)

        t, t_radius = self._thresholds()
        drop = (ub >= _SCREEN_FLOOR) & (reach < level_of(t))
        if t_radius is not None:
            drop &= (periods == 0) | (reach < level_of(t_radius))
        m = block.shape[0]
        # a whole length that keeps half its prefixes is extended whole
        # if that fits a block, so later levels do not form them again
        if (m == self.r ** depth and 2 * int(drop.sum()) <= m
                and m * self.r * self.d ** 2 <= _CHUNK_FLOATS):
            return None
        return ~drop if drop.any() else None


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
    first word in lexicographic order.  The radius is maximized over the
    necklaces, the words least among their rotations, which hold every
    radius in exact arithmetic: its witness is a least rotation, and its
    value can be a few ulps under the largest computed radius of all
    words.  With ``first``, returns one such list per length first..n,
    with the values and words of a call per length.  The budget is
    checked for each level's r^k words before the level, and a JsrError
    raised at a level carries the lists of the levels before it in its
    ``partial`` attribute.

    Each level is a walk of its word tree (``_walk``) from the longest
    complete product table, so a level that grows by one factor from a
    table forms r^k products.  From the second length of the pass on, a
    prefix is dropped once its norm bound times the norm maximum of the
    remaining length, with a-priori rounding terms, falls below a value
    the level is known to reach (see ``_Pass``), or, for the radius, once
    it is no prefix of a necklace; the words under it are never formed.
    At the leaves, the operator norms and the radius run their exact
    kernels only on the rows whose cheap bound can still reach the best
    value so far (see ``_screened_max``), from block norms taken once for
    all metrics: the column and row sums and the Frobenius norms, or,
    when l2 is the only screened metric, the Frobenius norms alone.
    Values and witnesses are those of the exact kernel on every product,
    or every necklace for the radius.
    """
    lo = n if first is None else first
    _check_length(n, lo)
    scan = _Pass(mset, metrics, lo)
    levels: list[list[tuple[float, int, Word]]] = []
    try:
        for k in range(lo, n + 1):
            _level_budget(mset.r, k, max_words)
            levels.append(scan.level(k))
    except JsrError as exc:
        exc.partial = levels
        raise
    return levels if first is not None else levels[0]

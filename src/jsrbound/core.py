"""Matrix sets, norms, spectral radii and product enumeration.

A matrix set is a finite collection of real d x d matrices.  Everything in
this package reduces to scanning the products A_{i_n} ... A_{i_2} A_{i_1}
over index words (i_1, ..., i_n); the word lists the factor applied first
on the right, so word (1, 2) denotes the product A_2 A_1.

One engine, ``_product_chunks``, produces those products: it builds the
table of head products (the first factors applied) and extends each head
by a batched left-multiplication into a block of consecutive words, so
every scan sees the same numbers in the same lexicographic order.

Scale is kept in exact powers of two: the engine divides the members by
2^e, e the binary exponent of the largest entry, and each block carries
an exponent E with products = block * 2^E; a level whose largest entry
leaves [2^-500, 2^500] is multiplied by 2^-s and s is added to E.  Maxima
are (mantissa, exponent) pairs and ``_root`` takes their n-th roots, so
in-range results are the same bits as unscaled ones.
"""

from __future__ import annotations

import enum
import itertools
import json
import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .errors import BudgetExceededError, ConvergenceError, InputFormatError

# Default cap on the number of words enumerated in one call.
DEFAULT_WORD_BUDGET = 1 << 24

# Levels whose largest entry leaves [2^-500, 2^500] are rescaled.
_RANGE_BITS = 500

# Largest block of product entries held in memory at once.
_CHUNK_FLOATS = 1 << 22

Word = tuple[int, ...]


class NormKind(enum.Enum):
    """Vector norm selector; operator norms are the induced ones."""

    L1 = "l1"
    L2 = "l2"
    LINF = "linf"

    @classmethod
    def from_name(cls, name: str) -> "NormKind":
        try:
            return cls(name.strip().lower())
        except ValueError:
            raise InputFormatError(
                f"unknown norm {name!r}: expected one of l1, l2, linf"
            ) from None


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
            for j, v in enumerate(row):
                if isinstance(v, bool) or not isinstance(v, (int, float)):
                    raise InputFormatError(
                        f"matrix {k}, entry ({i}, {j}): not a number"
                    )
                if not np.isfinite(v):
                    raise InputFormatError(
                        f"matrix {k}, entry ({i}, {j}): non-finite value"
                    )
            rows.append([float(v) for v in row])
        members.append(np.array(rows))
    return MatrixSet(dim=dim, members=tuple(members))


def load_matrix_set(path) -> MatrixSet:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_matrix_set(fh.read())


# ---------------------------------------------------------------------------
# Norms and spectral radii


def operator_norms(stack: np.ndarray, kind: NormKind) -> np.ndarray:
    """Induced operator norms of a (..., d, d) stack of matrices."""
    s = np.asarray(stack, dtype=float)
    if kind is NormKind.L1:
        return np.max(np.sum(np.abs(s), axis=-2), axis=-1)
    if kind is NormKind.LINF:
        return np.max(np.sum(np.abs(s), axis=-1), axis=-1)
    # Largest singular value via the symmetric eigenproblem on A^T A.
    # Matrices are normalized by their largest entry first so squaring
    # cannot overflow.
    scale = np.max(np.abs(s), axis=(-2, -1))
    safe = np.where(scale > 0.0, scale, 1.0)
    hat = s / safe[..., None, None]
    gram = np.einsum("...ba,...bc->...ac", hat, hat)
    try:
        eigs = np.linalg.eigvalsh(gram)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"singular value iteration failed: {exc}") from None
    top = np.clip(eigs[..., -1], 0.0, None)
    return np.where(scale > 0.0, safe * np.sqrt(top), 0.0)


def operator_norm(matrix, kind: NormKind) -> float:
    """Operator norm of a single matrix induced by the chosen vector norm."""
    a = np.asarray(matrix, dtype=float)
    return float(operator_norms(a[None, :, :], kind)[0])


def spectral_radii(stack: np.ndarray) -> np.ndarray:
    """Spectral radii of a (..., d, d) stack.

    Dimensions 1 and 2 use the closed form from the characteristic
    polynomial; larger matrices go through the QR eigensolver.  Entries are
    pre-normalized by the largest magnitude so the discriminant cannot
    overflow.
    """
    s = np.asarray(stack, dtype=float)
    d = s.shape[-1]
    scale = np.max(np.abs(s), axis=(-2, -1))
    safe = np.where(scale > 0.0, scale, 1.0)
    hat = s / safe[..., None, None]
    if d == 1:
        return scale * np.abs(hat[..., 0, 0])
    if d == 2:
        tr = hat[..., 0, 0] + hat[..., 1, 1]
        det = hat[..., 0, 0] * hat[..., 1, 1] - hat[..., 0, 1] * hat[..., 1, 0]
        disc = tr * tr - 4.0 * det
        real = (np.abs(tr) + np.sqrt(np.clip(disc, 0.0, None))) / 2.0
        complex_pair = np.sqrt(np.clip(det, 0.0, None))
        return scale * np.where(disc >= 0.0, real, complex_pair)
    try:
        eigs = np.linalg.eigvals(hat)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigenvalue iteration failed: {exc}") from None
    return scale * np.max(np.abs(eigs), axis=-1)


def spectral_radius(matrix) -> float:
    """Largest eigenvalue magnitude of a single square matrix."""
    a = np.asarray(matrix, dtype=float)
    return float(spectral_radii(a[None, :, :])[0])


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


def _check_word_budget(mset: MatrixSet, n: int, max_words: int) -> None:
    if n < 1:
        raise ValueError("product length n must be a positive integer")
    required = mset.r ** n
    if required > max_words:
        raise BudgetExceededError(
            f"enumerating length-{n} products requires {required} words, "
            f"budget is {max_words}",
            required=required,
            budget=max_words,
        )


def _binary_scale(mset: MatrixSet) -> tuple[int, np.ndarray]:
    """e, the binary exponent of the largest entry, and the members / 2^e."""
    mats = mset.stacked()
    e = math.frexp(float(np.max(np.abs(mats))))[1]
    return e, np.ldexp(mats, -e)


def _extend(mats: np.ndarray, block: np.ndarray, exponent: int,
            levels: int, step: int) -> tuple[np.ndarray, int]:
    """Left-multiply every product in ``block`` by ``levels`` more factors.

    Appending index t to the product at position j lands at j * r + t, so
    word order is kept.  ``mats`` are the members / 2^step.
    """
    d = mats.shape[-1]
    for _ in range(levels):
        block = np.einsum("tab,jbc->jtac", mats, block).reshape(-1, d, d)
        exponent += step
        shift = math.frexp(float(np.max(np.abs(block))))[1]
        if abs(shift) > _RANGE_BITS:
            block, exponent = np.ldexp(block, -shift), exponent + shift
    return block, exponent


def _product_chunks(
    mset: MatrixSet, n: int, max_words: int
) -> Iterator[tuple[int, np.ndarray, int]]:
    """Yield (start_index, block, exponent) covering the length-n words in order.

    The products are block * 2^exponent.  A word splits into a head of k
    digits, the factors applied first, and a tail of t = n - k digits,
    with t the largest length (at least 1) whose r^t products fit in
    _CHUNK_FLOATS entries.  Each length-k head product is extended by t
    levels into one block of r^t consecutive words; when all r^n products
    fit (k = 0) there is a single block.
    """
    _check_word_budget(mset, n, max_words)
    step, mats = _binary_scale(mset)
    r, d = mset.r, mset.dim
    tail = n
    while tail > 1 and r ** tail * d * d > _CHUNK_FLOATS:
        tail -= 1
    if tail == n:
        yield (0, *_extend(mats, mats, step, n - 1, step))
        return
    heads, exponent = _extend(mats, mats, step, n - tail - 1, step)
    for h in range(heads.shape[0]):
        yield (h * r ** tail,
               *_extend(mats, heads[h:h + 1], exponent, tail, step))


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


def max_over_products(
    mset: MatrixSet,
    n: int,
    metrics: list[Callable[[np.ndarray], np.ndarray]],
    max_words: int = DEFAULT_WORD_BUDGET,
) -> list[tuple[float, int, Word]]:
    """Maximize several per-product metrics in one enumeration pass.

    Each metric must satisfy f(2^k P) = 2^k f(P), as norms, radii and
    |trace| do.  Returns (mantissa, exponent, witness word) per metric;
    ties keep the first word in lexicographic order.
    """
    best: list[tuple[float, int, int]] = [(-np.inf, 0, -1)] * len(metrics)
    for start, chunk, exponent in _product_chunks(mset, n, max_words):
        for k, fn in enumerate(metrics):
            vals = np.asarray(fn(chunk), dtype=float)
            j = int(np.argmax(vals))
            if _exceeds(float(vals[j]), exponent, *best[k][:2]):
                best[k] = (float(vals[j]), exponent, start + j)
    return [
        (value, exponent, word_from_index(index, mset.r, n))
        for value, exponent, index in best
    ]


def matrix_set_norm(
    mset: MatrixSet,
    n: int,
    kind: NormKind,
    max_words: int = DEFAULT_WORD_BUDGET,
) -> float:
    """Largest operator norm over all length-n products."""
    value, _ = matrix_set_norm_witness(mset, n, kind, max_words)
    return value


def matrix_set_norm_witness(
    mset: MatrixSet,
    n: int,
    kind: NormKind,
    max_words: int = DEFAULT_WORD_BUDGET,
) -> tuple[float, Word]:
    """Largest operator norm over length-n products plus its witness word."""
    [(value, exponent, word)] = max_over_products(
        mset, n, [lambda s: operator_norms(s, kind)], max_words
    )
    return _root(value, exponent, 1), word

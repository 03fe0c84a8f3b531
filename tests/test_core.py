from __future__ import annotations

import functools
import importlib
import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from jsrbound import (
    BoundReport,
    BudgetExceededError,
    CertifiedInterval,
    ChiEstimate,
    CrosscheckReport,
    DEFAULT_WORD_BUDGET,
    FamilyChiBound,
    GammaEstimate,
    InputFormatError,
    MatrixSet,
    NormKind,
    OracleInterval,
    StepPlan,
    as_matrix,
    brute_force_interval,
    enumerate_products,
    gelfand_upper,
    load_matrix_set,
    max_over_products,
    operator_norm,
    parse_matrix_set,
    product_of_word,
    sandwich,
    spectral_radius,
    word_from_index,
)
from jsrbound.core import (
    RADIUS,
    TRACE,
    Record,
    _budget_count,
    _left_multiply,
    _plain,
    _product_chunks,
    operator_norms,
    spectral_radii,
)
import jsrbound.core as core_module
from jsrbound.geometry import vector_norms

from .conftest import DIAGONAL_PAIR, GOLDEN_PAIR, QUARTER_TURN, random_set


# Independent norm oracles: plain loops, no shared code with the package.

def _oracle_norm(a: np.ndarray, kind: NormKind) -> float:
    if kind is NormKind.L1:
        return max(sum(abs(a[i][j]) for i in range(len(a)))
                   for j in range(len(a)))
    if kind is NormKind.LINF:
        return max(sum(abs(a[i][j]) for j in range(len(a)))
                   for i in range(len(a)))
    return float(np.linalg.norm(a, 2))


def _oracle_rho(a: np.ndarray) -> float:
    return float(max(abs(np.linalg.eigvals(a))))


def _set_norm(ms: MatrixSet, n: int, kind: NormKind) -> float:
    """Largest norm over the length-n products: the (mantissa, exponent)
    maximum of ``max_over_products`` multiplied out."""
    [(value, exponent, _)] = max_over_products(ms, n, [kind])
    return math.ldexp(value, exponent)


def _chunk_stack(ms: MatrixSet, n: int) -> np.ndarray:
    """All length-n products in word order, from the engine's blocks."""
    return np.concatenate([np.ldexp(block, exponent) for _, block, exponent
                           in _product_chunks(ms, n, 1 << 20)])


class TestParsing:
    def test_scalar_set(self):
        ms = parse_matrix_set('{"dim": 1, "matrices": [[[2.0]]]}')
        assert ms.dim == 1
        assert ms.r == 1
        assert ms.members[0][0, 0] == 2.0

    def test_pair(self):
        ms = parse_matrix_set(
            '{"dim": 2, "matrices": [[[1,1],[0,1]], [[1,0],[1,1]]]}'
        )
        assert ms.dim == 2
        assert ms.r == 2
        np.testing.assert_array_equal(ms.members[0], [[1, 1], [0, 1]])

    def test_ragged_matrix(self):
        with pytest.raises(InputFormatError, match="ragged matrix: expected 2 rows"):
            parse_matrix_set('{"dim": 2, "matrices": [[[1, 1]]]}')

    def test_ragged_row(self):
        with pytest.raises(InputFormatError, match="matrix 1"):
            parse_matrix_set('{"dim": 2, "matrices": [[[1, 1], [0]]]}')

    def test_error_points_at_offending_matrix(self):
        text = '{"dim": 2, "matrices": [[[1,1],[0,1]], [[1,1],[0,"x"]]]}'
        with pytest.raises(InputFormatError, match="matrix 2"):
            parse_matrix_set(text)

    def test_empty_set_rejected(self):
        with pytest.raises(InputFormatError):
            parse_matrix_set('{"dim": 2, "matrices": []}')

    def test_missing_keys(self):
        with pytest.raises(InputFormatError):
            parse_matrix_set('{"matrices": [[[1]]]}')

    def test_boolean_entry_rejected(self):
        with pytest.raises(InputFormatError):
            parse_matrix_set('{"dim": 1, "matrices": [[[true]]]}')

    def test_nonfinite_rejected(self):
        with pytest.raises(InputFormatError):
            MatrixSet.from_arrays([[[np.inf, 0.0], [0.0, 1.0]]])

    @pytest.mark.parametrize("literal, message", [
        ("NaN", "matrix 2: non-finite entry at position (1, 0)"),
        ("Infinity", "matrix 2: non-finite entry at position (1, 0)"),
        ("-Infinity", "matrix 2: non-finite entry at position (1, 0)"),
        ("1e400", "matrix 2: non-finite entry at position (1, 0)"),
        ("1" + "0" * 400,
         "matrix 2, entry (1, 0): integer beyond the float range"),
    ], ids=["nan", "inf", "-inf", "1e400", "10^400"])
    def test_entry_beyond_the_float_range_is_located(self, literal, message):
        text = ('{"dim": 2, "matrices": [[[1, 0], [0, 1]], '
                f'[[1, 0], [{literal}, 1]]]}}')
        with pytest.raises(InputFormatError) as info:
            parse_matrix_set(text)
        assert str(info.value) == message

    def test_load_roundtrip(self, tmp_path):
        path = tmp_path / "set.json"
        path.write_text('{"dim": 2, "matrices": [[[0, -1], [1, 0]]]}')
        ms = load_matrix_set(path)
        assert ms.to_dict() == {"dim": 2, "matrices": [[[0.0, -1.0], [1.0, 0.0]]]}

    def test_as_matrix_rejects_nonsquare(self):
        with pytest.raises(InputFormatError):
            as_matrix([[1.0, 2.0]])

    def test_members_are_frozen(self):
        with pytest.raises(ValueError):
            GOLDEN_PAIR.members[0][0, 0] = 9.0


class TestVectorNorm:
    def test_l1(self):
        assert vector_norms(np.array([3.0, -4.0]), NormKind.L1) == 7.0

    def test_l2(self):
        assert vector_norms(np.array([3.0, -4.0]), NormKind.L2) == 5.0

    def test_linf(self):
        assert vector_norms(np.array([3.0, -4.0]), NormKind.LINF) == 4.0


class TestOperatorNorm:
    def test_identity_all_kinds(self):
        for kind in NormKind:
            assert operator_norm(np.eye(2), kind) == pytest.approx(1.0)

    def test_shear_l1(self):
        # column sums 1 and 2
        assert operator_norm(np.array([[1.0, 1.0], [0.0, 1.0]]), NormKind.L1) == 2.0

    def test_rotation_l2(self):
        r = np.array([[0.0, -1.0], [1.0, 0.0]])
        assert operator_norm(r, NormKind.L2) == pytest.approx(1.0)

    def test_matches_oracle_on_randoms(self, rng):
        for _ in range(25):
            d = int(rng.integers(1, 5))
            a = rng.uniform(-3, 3, size=(d, d))
            for kind in NormKind:
                assert operator_norm(a, kind) == pytest.approx(
                    _oracle_norm(a, kind), rel=1e-12, abs=1e-12
                )

    def test_huge_entries_survive_squaring(self):
        # naive A^T A would overflow at 1e160
        a = np.diag([1e160, 1.0])
        assert operator_norm(a, NormKind.L2) == pytest.approx(1e160, rel=1e-12)

    def test_zero_matrix(self):
        assert operator_norm(np.zeros((3, 3)), NormKind.L2) == 0.0

    def test_batch_matches_scalar(self, rng):
        stack = rng.uniform(-1, 1, size=(6, 3, 3))
        for kind in NormKind:
            batch = operator_norms(stack, kind)
            for k in range(6):
                assert batch[k] == pytest.approx(operator_norm(stack[k], kind))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("rows", [5, 300])
    def test_nonfinite_rows_read_nan_or_inf(self, d, rows):
        """NaN anywhere reads nan and inf without NaN reads inf, in every
        norm, on the eigvalsh path (5 rows) and the d = 2 closed form."""
        rng = np.random.default_rng([d, rows])
        stack = rng.uniform(-1.0, 1.0, (rows, d, d))
        finite = {kind: operator_norms(stack, kind) for kind in NormKind}
        stack[0, 0, d - 1] = np.nan
        stack[1, d - 1, 0] = np.inf
        stack[2, 0, 0], stack[2, d - 1, d - 1] = -np.inf, np.nan
        stack[3] = -np.inf
        expect = [np.nan, np.inf, np.nan, np.inf]
        for kind in NormKind:
            got = operator_norms(stack, kind)
            np.testing.assert_array_equal(got[:4], expect)
            assert got[4:].tobytes() == finite[kind][4:].tobytes()
            nested = operator_norms(stack.reshape(-1, 1, d, d), kind)
            assert nested.tobytes() == got.reshape(-1, 1).tobytes()


def _eigvalsh_l2(stack: np.ndarray) -> np.ndarray:
    """The l2 norms by ``eigvalsh`` on the gram of each matrix divided by
    its largest entry: the formula the d = 2 closed form must match."""
    scale = np.max(np.abs(stack), axis=(-2, -1))
    safe = np.where(scale > 0.0, scale, 1.0)
    hat = stack / safe[..., None, None]
    gram = np.einsum("...ba,...bc->...ac", hat, hat)
    top = np.clip(np.linalg.eigvalsh(gram)[..., -1], 0.0, None)
    return np.where(scale > 0.0, safe * np.sqrt(top), 0.0)


def _near_split_grams(rng: np.random.Generator, m: int,
                      unit: float) -> np.ndarray:
    """Rotations scaled by 2^k with one entry moved by about ``unit``
    relative: grams with near-equal diagonals and off-diagonals near
    ``unit`` times the diagonal, on both sides of ``dsterf``'s split
    tests when ``unit`` is near eps or eps^2."""
    angle = rng.uniform(0.0, 2.0 * math.pi, m)
    cos, sin = np.cos(angle), np.sin(angle)
    moved = unit * rng.uniform(-4.0, 4.0, m)
    stack = np.stack([cos, -sin * (1.0 + moved), sin, cos], axis=-1)
    return np.ldexp(stack, rng.integers(-3, 4, m)[:, None]).reshape(m, 2, 2)


@pytest.mark.filterwarnings("error")
class TestL2Norms2x2:
    """``operator_norms(s, L2)`` at d = 2 against ``eigvalsh``, bit for bit,
    on stacks large enough for the closed form."""

    @staticmethod
    def _check(stack: np.ndarray) -> None:
        assert operator_norms(stack, NormKind.L2).tobytes() == \
            _eigvalsh_l2(stack).tobytes()

    def test_random_and_integer_entries(self):
        rng = np.random.default_rng(21)
        self._check(rng.standard_normal((200_000, 2, 2)))
        self._check(rng.integers(-4, 5, (100_000, 2, 2)).astype(float))
        self._check(rng.uniform(-1.0, 1.0, (300, 7, 2, 2)))

    def test_rotation_products(self):
        """Every length-n product of the planar rotation pair, n <= 19:
        orthogonal up to rounding, so the grams sit at the split tests."""
        ms = ATTAINED["planar rotations"][0]
        for n in (8, 13, 19):
            self._check(_chunk_stack(ms, n))

    def test_split_tests_fire(self):
        eps = 2.0 ** -53
        rng = np.random.default_rng(22)
        for unit in (eps, 4.0 * eps, eps * eps, 2.0 ** -30):
            stack = _near_split_grams(rng, 100_000, unit)
            self._check(stack)
            # equal diagonals, off-diagonal near unit * sqrt(d1 d2)
            a = rng.uniform(0.5, 1.0, 50_000)
            off = a * unit * rng.uniform(0.25, 4.0, a.size)
            self._check(np.stack([a, off, np.zeros_like(a), a], axis=-1)
                        .reshape(-1, 2, 2))

    def test_special_rows(self):
        rng = np.random.default_rng(23)
        m = 50_000
        u, v = rng.standard_normal((2, m, 2))
        rank_one = u[:, :, None] * v[:, None, :]
        diagonal = rng.standard_normal((m, 2))[:, :, None] * np.eye(2)
        tied = np.abs(rng.standard_normal(m))[:, None, None] * np.eye(2)
        stack = np.concatenate([rank_one, diagonal, tied, np.zeros((500, 2, 2)),
                                -np.zeros((500, 2, 2))])
        self._check(stack[rng.permutation(stack.shape[0])])

    @pytest.mark.parametrize("bits", [400, -400, -1060])
    def test_far_from_unit_scale(self, bits):
        rng = np.random.default_rng(24)
        stack = np.concatenate([rng.standard_normal((40_000, 2, 2)),
                                _near_split_grams(rng, 20_000, 2.0 ** -53)])
        self._check(np.ldexp(stack, bits))

    def test_row_threshold_and_chunks(self, monkeypatch):
        """Stacks on both sides of the row threshold, and across chunk
        boundaries, give the bits of eigvalsh; the closed form runs from
        the threshold on, in chunks."""
        calls = []
        closed = core_module._top_eigenvalues_2x2

        def counted(a, c, e):
            calls.append(a.size)
            return closed(a, c, e)

        monkeypatch.setattr(core_module, "_top_eigenvalues_2x2", counted)
        rng = np.random.default_rng(25)
        least = core_module._L2_CLOSED_MIN_ROWS
        for rows in (1, least - 1, least, 3 * least + 1):
            calls.clear()
            self._check(rng.standard_normal((rows, 2, 2)))
            assert calls == ([] if rows < least else [rows])
        monkeypatch.setattr(core_module, "_L2_CHUNK_ROWS", 7)
        calls.clear()
        stack = np.concatenate([rng.standard_normal((150, 2, 2)),
                                _near_split_grams(rng, 150, 2.0 ** -53)])
        self._check(stack)
        assert calls == [7] * 42 + [6]


class TestSpectralRadius:
    def test_scalar(self):
        assert spectral_radius(np.array([[-2.5]])) == 2.5

    def test_rotation_has_unit_radius(self):
        assert spectral_radius(np.array([[0.0, -1.0], [1.0, 0.0]])) == pytest.approx(1.0)

    def test_nilpotent(self):
        assert spectral_radius(np.array([[0.0, 1.0], [0.0, 0.0]])) == 0.0

    def test_matches_oracle_on_randoms(self, rng):
        for _ in range(40):
            d = int(rng.integers(2, 5))
            a = rng.uniform(-2, 2, size=(d, d))
            assert spectral_radius(a) == pytest.approx(
                _oracle_rho(a), rel=1e-9, abs=1e-12
            )

    def test_radius_below_every_norm(self, rng):
        for _ in range(30):
            d = int(rng.integers(2, 5))
            a = rng.uniform(-1, 1, size=(d, d))
            rho = spectral_radius(a)
            for kind in NormKind:
                assert rho <= operator_norm(a, kind) + 1e-9

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_nonfinite_rows_read_nan_or_inf(self, d):
        """NaN anywhere reads nan and inf without NaN reads inf, as in
        operator_norms; the other rows keep their bits."""
        rng = np.random.default_rng([19, d])
        stack = np.stack([np.eye(d)] * 5 + [rng.uniform(-1.0, 1.0, (d, d))])
        finite = spectral_radii(stack)
        stack[0, 0, d - 1] = np.nan
        stack[1, d - 1, 0] = np.inf
        stack[2, 0, 0], stack[2, d - 1, d - 1] = -np.inf, np.nan
        stack[3] = -np.inf
        got = spectral_radii(stack)
        np.testing.assert_array_equal(got[:4], [np.nan, np.inf, np.nan,
                                                np.inf])
        assert got[4:].tobytes() == finite[4:].tobytes()
        assert got[4] == 1.0


class TestWords:
    def test_index_order_r2_n2(self):
        words = [word_from_index(j, 2, 2) for j in range(4)]
        assert words == [(1, 1), (1, 2), (2, 1), (2, 2)]

    def test_roundtrip(self, rng):
        for _ in range(50):
            r = int(rng.integers(1, 5))
            n = int(rng.integers(1, 7))
            j = int(rng.integers(0, r**n))
            word = word_from_index(j, r, n)
            assert len(word) == n
            assert all(1 <= i <= r for i in word)
            back = 0
            for i in word:
                back = back * r + (i - 1)
            assert back == j

    def test_word_one_two_multiplies_right_to_left(self):
        # word (1,2) applies member 1 first, so the product is A_2 A_1
        prod = product_of_word(GOLDEN_PAIR, (1, 2))
        np.testing.assert_array_equal(prod, [[1.0, 1.0], [1.0, 2.0]])
        a1, a2 = GOLDEN_PAIR.members
        np.testing.assert_array_equal(prod, a2 @ a1)


class TestEnumeration:
    def test_count_r2_n2(self):
        pairs = list(enumerate_products(GOLDEN_PAIR, 2))
        assert [w for w, _ in pairs] == [(1, 1), (1, 2), (2, 1), (2, 2)]

    def test_identity_singleton(self):
        ms = MatrixSet.from_arrays([np.eye(2)])
        pairs = list(enumerate_products(ms, 5))
        assert len(pairs) == 1
        np.testing.assert_array_equal(pairs[0][1], np.eye(2))

    def test_products_match_explicit_multiplication(self, rng):
        ms = random_set(rng, 3, 2)
        for word, prod in enumerate_products(ms, 3):
            expect = np.eye(3)
            for i in word:
                expect = ms.members[i - 1] @ expect
            np.testing.assert_allclose(prod, expect, rtol=1e-13, atol=1e-13)

    def test_stack_layout_matches_word_index(self, rng):
        ms = random_set(rng, 2, 3)
        stack = np.array([prod for _, prod in enumerate_products(ms, 3)])
        assert stack.shape == (27, 2, 2)
        for j in (0, 5, 13, 26):
            word = word_from_index(j, 3, 3)
            np.testing.assert_allclose(
                stack[j], product_of_word(ms, word), rtol=1e-13
            )

    def test_budget_error_carries_counts(self):
        with pytest.raises(BudgetExceededError) as info:
            list(enumerate_products(GOLDEN_PAIR, 10, max_words=100))
        assert info.value.required == 1024
        assert info.value.budget == 100

    def test_budget_error_above_2_to_the_1024_has_no_count(self):
        ms = MatrixSet.from_arrays(np.ones((3, 2, 2)))
        with pytest.raises(BudgetExceededError) as info:
            next(enumerate_products(ms, 20000))
        assert info.value.required is None
        assert info.value.budget == DEFAULT_WORD_BUDGET
        assert "requires more than 2^19999 words" in str(info.value)


class TestBudgetCount:
    """``_budget_count`` against the count formed directly."""

    @pytest.mark.parametrize("r", [1, 2, 3, 4, 7])
    @pytest.mark.parametrize("first", [None, 0, 1])
    def test_matches_the_formed_count(self, r, first):
        for n in (1, 2, 5, 40, 300, 700, 1100):
            count = (r ** n if first is None
                     else sum(r ** k for k in range(first, n + 1)))
            for budget in (0, 100, count - 1, count, 1 << 24, 1 << 1100):
                assert _budget_count(r, n, budget, first) == (
                    count > budget, count if count < 1 << 1024 else None)


class TestChunkedEngine:
    """The engine with its block shrunk, against the one-block result."""

    def test_blocks_concatenate_to_the_one_block_stack(self, rng,
                                                       monkeypatch):
        sets = [random_set(rng, d, r) for d in (1, 2, 3) for r in (1, 2, 3)]
        whole = {(id(ms), n): _chunk_stack(ms, n)
                 for ms in sets for n in range(1, 6)}
        assert all(len(list(_product_chunks(ms, 5, 1 << 20))) == 1
                   for ms in sets)
        monkeypatch.setattr("jsrbound.core._CHUNK_FLOATS", 64)
        for ms in sets:
            for n in range(1, 6):
                chunks = list(_product_chunks(ms, n, 1 << 20))
                starts = np.cumsum([0] + [b.shape[0] for _, b, _ in chunks])
                assert [s for s, _, _ in chunks] == list(starts[:-1])
                stacked = _chunk_stack(ms, n)
                assert stacked.tobytes() == whole[(id(ms), n)].tobytes()

    def test_several_blocks_when_shrunk(self, small_chunks):
        ms = random_set(np.random.default_rng(3), 2, 3)
        chunks = list(_product_chunks(ms, 5, 1 << 20))
        # 3^2 * 4 floats fit in 64, 3^3 * 4 do not: 27 heads of 9 words
        assert len(chunks) == 27
        assert all(b.shape == (9, 2, 2) for _, b, _ in chunks)

    def test_enumerate_products_across_blocks(self, small_chunks, rng):
        ms = random_set(rng, 2, 2)
        pairs = list(enumerate_products(ms, 6))
        assert [w for w, _ in pairs] == [word_from_index(j, 2, 6)
                                         for j in range(64)]
        for word, prod in pairs:
            np.testing.assert_allclose(prod, product_of_word(ms, word),
                                       rtol=1e-13, atol=1e-13)

    def test_max_over_products_matches_one_block_and_oracle(self, rng,
                                                            monkeypatch):
        cases = [(random_set(rng, d, r), kind)
                 for d, r in ((2, 2), (2, 3), (3, 2)) for kind in NormKind]
        whole = [[max_over_products(ms, n, [kind, RADIUS])
                  for n in range(1, 6)] for ms, kind in cases]
        monkeypatch.setattr("jsrbound.core._CHUNK_FLOATS", 64)
        for (ms, kind), expect in zip(cases, whole):
            got = [max_over_products(ms, n, [kind, RADIUS])
                   for n in range(1, 6)]
            assert got == expect
            # best n-th roots over n = 1..5 against the independent oracle
            uppers = [math.ldexp(norm, e) ** (1.0 / n) for n, ((norm, e, _), _)
                      in enumerate(got, start=1)]
            lowers = [math.ldexp(rho, e) ** (1.0 / n) for n, (_, (rho, e, _))
                      in enumerate(got, start=1)]
            oracle = brute_force_interval(ms, 5, kind)
            assert oracle.upper == pytest.approx(min(uppers), rel=1e-12)
            assert oracle.lower == pytest.approx(max(lowers), rel=1e-12)
            assert got[int(np.argmin(uppers))][0][2] == oracle.witness_upper
            # rho(P^2) = rho(P)^2 ties lower witnesses of different lengths,
            # so the oracle's lower witness is checked by its value only
            word = oracle.witness_lower
            rho = spectral_radius(product_of_word(ms, word))
            assert rho ** (1.0 / len(word)) == pytest.approx(max(lowers),
                                                             rel=1e-12)

    @pytest.mark.parametrize("chunk_floats", [None, 64])
    def test_level_blocks_match_single_level_blocks(self, rng, monkeypatch,
                                                    chunk_floats):
        """Each length of one unpruned walk over several lengths, which
        carries its table from length to length, has the blocks (starts,
        exponents and bits) of a single-length walk, including lengths
        grown from the table and lengths past the one that fits a block."""
        if chunk_floats is not None:
            monkeypatch.setattr("jsrbound.core._CHUNK_FLOATS", chunk_floats)
        sets = [random_set(rng, d, r) for d, r in ((1, 3), (2, 2), (3, 2))]
        # members 2^250 and 2^510 apart: products down to 2^-3060, so the
        # blocks are rescaled, and entries flushed to zero, at the same
        # points or the bits differ
        sets += [MatrixSet.from_arrays([np.eye(2), 2.0 ** -k * np.eye(2)])
                 for k in (250, 510)]
        for ms in sets:
            step, mats = core_module._binary_scale(ms)
            for first in (1, 3):
                table = core_module._Table(np.eye(ms.dim)[None], 0, 0)
                for k in range(first, 7):
                    got = [(s, b.tobytes(), e) for s, rows, b, e, _
                           in core_module._walk(mats, step, table, k)]
                    assert got == [(s, b.tobytes(), e) for s, b, e
                                   in _product_chunks(ms, k, 1 << 20)]

    @pytest.mark.parametrize("chunk_floats", [None, 64])
    def test_multi_level_maxima_match_single_level_calls(self, rng,
                                                         monkeypatch,
                                                         chunk_floats):
        if chunk_floats is not None:
            monkeypatch.setattr("jsrbound.core._CHUNK_FLOATS", chunk_floats)
        metrics = [NormKind.L2, RADIUS, TRACE, NormKind.L1]
        sets = [random_set(rng, d, r) for d, r in ((1, 2), (2, 3), (3, 2))]
        # products from 1 down to 2^-1250: with 64-float blocks, the
        # blocks of the small ones are rescaled
        sets.append(MatrixSet.from_arrays([np.eye(2),
                                           2.0 ** -250 * np.eye(2)]))
        for ms in sets:
            for first in (1, 2, 3, 5):
                assert max_over_products(ms, 5, metrics, first=first) == [
                    max_over_products(ms, n, metrics)
                    for n in range(first, 6)]

    def test_budget_is_checked_per_level_and_keeps_earlier_levels(self):
        with pytest.raises(BudgetExceededError,
                           match="enumerating length-7 products requires "
                                 "128 words, budget is 100") as info:
            max_over_products(GOLDEN_PAIR, 20, [NormKind.L2], 100, first=1)
        assert info.value.partial == [
            max_over_products(GOLDEN_PAIR, n, [NormKind.L2])
            for n in range(1, 7)]

    @pytest.mark.parametrize("first", [0, -1, 5])
    def test_first_outside_1_to_n_is_refused(self, first):
        with pytest.raises(ValueError, match="first must be in 1..n = 4"):
            max_over_products(GOLDEN_PAIR, 4, [NormKind.L2], first=first)


def _special_entries(rng: np.random.Generator, shape) -> np.ndarray:
    """Uniform [-1, 1] entries with +0, -0, subnormals and entries near
    1e200 and 1e-200 mixed in."""
    a = rng.uniform(-1.0, 1.0, shape)
    pick = rng.random(shape)
    a[pick < 0.15] = 0.0
    a[(pick >= 0.15) & (pick < 0.3)] = -0.0
    a[(pick >= 0.3) & (pick < 0.4)] *= 1e-310
    a[(pick >= 0.4) & (pick < 0.5)] *= 1e200
    a[(pick >= 0.5) & (pick < 0.6)] *= 1e-200
    return a


class TestLeftMultiply:
    """The engine's multiply gives the bits of ``np.einsum``."""

    @pytest.mark.parametrize("multiply_floats", [None, 12])
    @pytest.mark.parametrize("d", range(1, 10))
    def test_matches_einsum_bit_for_bit(self, d, rng, monkeypatch,
                                        multiply_floats):
        # 12 floats: one to three words per pass, with a partial last one
        if multiply_floats is not None:
            monkeypatch.setattr("jsrbound.core._MULTIPLY_FLOATS",
                                multiply_floats)
        with np.errstate(all="ignore"):
            for r in range(1, 9):
                for m in (1, 2, 7, 40):
                    mats = _special_entries(rng, (r, d, d))
                    block = _special_entries(rng, (m, d, d))
                    expect = np.einsum("tab,jbc->jtac", mats, block)
                    got = _left_multiply(mats, block)
                    assert got.shape == (m * r, d, d)
                    assert got.tobytes() == expect.tobytes()

    @pytest.mark.parametrize("d", range(1, 10))
    def test_chunk_edges_at_default_size(self, d, rng):
        """Blocks of cols - 1, cols and cols + 1 rows, cols the columns of
        a chunk at the default _MULTIPLY_FLOATS: one short chunk, one full
        chunk, and a full chunk with a one-row partial last chunk of the
        (r, d, d, k) accumulators, up to r = 8."""
        cols = core_module._MULTIPLY_FLOATS // (d * d)
        with np.errstate(all="ignore"):
            for r in (1, 2, 6, 7, 8):
                mats = _special_entries(rng, (r, d, d))
                for m in (cols - 1, cols, cols + 1):
                    block = _special_entries(rng, (m, d, d))
                    expect = np.einsum("tab,jbc->jtac", mats, block)
                    assert _left_multiply(mats, block).tobytes() == \
                        expect.tobytes()

    def test_sum_starts_from_plus_zero(self):
        # einsum gives +0 + 1 * -0 = +0, not the -0 of the product alone
        got = _left_multiply(np.ones((1, 1, 1)), np.full((1, 1, 1), -0.0))
        assert not np.signbit(got).any()


class TestSetNorm:
    def test_identity(self):
        ms = MatrixSet.from_arrays([np.eye(2)])
        for kind in NormKind:
            assert _set_norm(ms, 4, kind) == pytest.approx(1.0)

    def test_doubling_scalar(self):
        ms = MatrixSet.from_arrays([2.0 * np.eye(2)])
        assert _set_norm(ms, 3, NormKind.L1) == pytest.approx(8.0)

    def test_golden_pair_n2_l1(self):
        # oracle: max column sum over the four length-2 products
        a1, a2 = GOLDEN_PAIR.members
        best = 0.0
        for left in (a1, a2):
            for right in (a1, a2):
                best = max(best, _oracle_norm(left @ right, NormKind.L1))
        assert best == 3.0
        assert _set_norm(GOLDEN_PAIR, 2, NormKind.L1) == 3.0

    def test_witness_is_first_on_ties(self):
        twin = MatrixSet.from_arrays([np.eye(2), np.eye(2)])
        [(_, _, word)] = max_over_products(twin, 3, [NormKind.L2])
        assert _set_norm(twin, 3, NormKind.L2) == pytest.approx(1.0)
        assert word == (1, 1, 1)

    def test_max_over_products_single_pass(self, rng):
        ms = random_set(rng, 2, 2)
        [(v1, e1, w1), (v2, e2, w2)] = max_over_products(
            ms, 4, [NormKind.L2, NormKind.L1])
        assert math.ldexp(v1, e1) == pytest.approx(
            _set_norm(ms, 4, NormKind.L2))
        assert math.ldexp(v2, e2) == pytest.approx(
            _set_norm(ms, 4, NormKind.L1))
        assert len(w1) == len(w2) == 4

    def test_large_entries_do_not_overflow(self):
        ms = MatrixSet.from_arrays([1e100 * np.eye(2)])
        assert _set_norm(ms, 2, NormKind.L2) == 1e200


class TestScaling:
    def test_scaled_set(self):
        half = GOLDEN_PAIR.scaled(0.5)
        np.testing.assert_allclose(half.members[0], GOLDEN_PAIR.members[0] * 0.5)

    def test_norm_is_homogeneous(self, rng):
        ms = random_set(rng, 2, 2)
        for k in (-2, 600, -600):
            scaled = ms.scaled(2.0 ** k)
            for kind in NormKind:
                for n in (1, 2, 3):
                    if n * abs(k) < 1000:
                        # in the float range: the same bits times 2^(n k)
                        assert _set_norm(scaled, n, kind) == \
                            math.ldexp(_set_norm(ms, n, kind), n * k)
                    else:
                        expect = 2.0 ** k * gelfand_upper(ms, n, kind)
                        assert gelfand_upper(scaled, n, kind) == \
                            pytest.approx(expect, rel=1e-12)

    def test_to_dict_json_serializable(self):
        text = json.dumps(QUARTER_TURN.to_dict())
        assert parse_matrix_set(text).dim == 2


@dataclass(frozen=True)
class _Leaf(Record):
    kind: NormKind
    word: tuple


@dataclass(frozen=True, eq=False)
class _Nested(Record):
    leaf: _Leaf
    point: np.ndarray
    extra: dict


class TestRecords:
    def test_plain_nested_record(self):
        leaf = _Leaf(kind=NormKind.L1, word=(1, 2))
        rec = _Nested(leaf=leaf, point=np.array([0.5, -1.0]),
                      extra={"leaf": leaf, "pair": (3, [4, 5])})
        doc = _plain(rec)
        assert doc == {
            "leaf": {"kind": "l1", "word": [1, 2]},
            "point": [0.5, -1.0],
            "extra": {"leaf": {"kind": "l1", "word": [1, 2]},
                      "pair": [3, [4, 5]]},
        }
        assert list(doc) == ["leaf", "point", "extra"]
        assert type(doc["point"][0]) is float
        assert rec.to_dict() == doc
        assert json.loads(json.dumps(doc)) == doc

    def test_records_serialize_as_before(self):
        """to_dict of every result record gives the keys, order and values
        of the envelope format."""
        chi = ChiEstimate(p=1, kind=NormKind.L2, sampled_inf=0.5,
                          certified_lower=0.25, lipschitz=2.0, mesh=0.1,
                          argmin=np.array([0.6, 0.8]), samples=63)
        chi_doc = {"p": 1, "kind": "l2", "sampled_inf": 0.5,
                   "certified_lower": 0.25, "lipschitz": 2.0, "mesh": 0.1,
                   "argmin": [0.6, 0.8], "samples": 63}
        cases = [
            (BoundReport(n=2, kind=NormKind.L1, lower=1.5, upper=2.0,
                         best_lower=1.5, best_upper=2.0, witness_lower=(1, 2),
                         witness_upper=(2, 2)),
             {"n": 2, "kind": "l1", "lower": 1.5, "upper": 2.0,
              "best_lower": 1.5, "best_upper": 2.0, "witness_lower": [1, 2],
              "witness_upper": [2, 2]}),
            (OracleInterval(n_max=3, kind=NormKind.LINF, lower=1.0,
                            upper=1.25, witness_lower=(1,),
                            witness_upper=(1, 2, 1)),
             {"n_max": 3, "kind": "linf", "lower": 1.0, "upper": 1.25,
              "witness_lower": [1], "witness_upper": [1, 2, 1]}),
            (chi, chi_doc),
            (CrosscheckReport(irreducible=True, rank=4, status="irreducible",
                              chi=chi, agreement="consistent"),
             {"irreducible": True, "rank": 4, "status": "irreducible",
              "chi": chi_doc, "agreement": "consistent"}),
            (CertifiedInterval(n=4, p=1, kind=NormKind.L2, nu_p=2.0,
                               lower=0.8, upper=0.95, ratio=1.1892),
             {"n": 4, "p": 1, "kind": "l2", "nu_p": 2.0, "lower": 0.8,
              "upper": 0.95, "ratio": 1.1892}),
            (StepPlan(n=7, products_required=128, fits_budget=True),
             {"n": 7, "products_required": 128, "fits_budget": True}),
            (StepPlan(n=7, products_required=None, fits_budget=None),
             {"n": 7, "products_required": None, "fits_budget": None}),
            (GammaEstimate(gamma_lower=0.125, p_values=(0.5, 0.25),
                           heuristic=True),
             {"gamma_lower": 0.125, "p_values": [0.5, 0.25],
              "heuristic": True}),
            (FamilyChiBound(family="V", alpha=0.5, beta=1.0, chi_lower=0.5,
                            irreducible=True),
             {"family": "V", "alpha": 0.5, "beta": 1.0, "chi_lower": 0.5,
              "irreducible": True}),
        ]
        assert {type(record) for record, _ in cases} == {
            cls for cls in Record.__subclasses__()
            if cls.__module__.startswith("jsrbound.")}
        for record, expected in cases:
            doc = record.to_dict()
            assert _plain(record) == doc
            assert doc == expected
            assert list(doc) == list(expected)
            assert json.dumps(doc) == json.dumps(expected)


# ---------------------------------------------------------------------------
# Screened level maxima


def _rotation_3d(axis: int, angle: float) -> np.ndarray:
    a = np.eye(3)
    i, j = [k for k in range(3) if k != axis]
    a[i, i] = a[j, j] = math.cos(angle)
    a[i, j], a[j, i] = -math.sin(angle), math.sin(angle)
    return a


def _column_stochastic(rng: np.random.Generator, d: int, r: int) -> MatrixSet:
    mats = rng.uniform(0.0, 1.0, (r, d, d))
    return MatrixSet.from_arrays(mats / mats.sum(axis=1, keepdims=True))


def _hidden_shears() -> MatrixSet:
    """S U_i S^-1 for unit upper triangular U_i and a non-orthogonal S:
    every product has the double eigenvalue 1, and the rounding of the
    discriminant's square root lifts the computed radii just above 1."""
    s = np.array([[2.0, 1.0], [1.0, 1.0]])
    return MatrixSet.from_arrays(
        [s @ np.array([[1.0, t], [0.0, 1.0]]) @ np.linalg.inv(s)
         for t in (1.0, -0.5)])


# Sets whose cheap bound is attained or whose values tie, with a length n.
_SHIFT_3 = np.diag([1.0, 1.0], k=1)
ATTAINED = {
    "permutations": (MatrixSet.from_arrays(
        [np.eye(3)[[1, 2, 0]], np.eye(3)[[1, 0, 2]]]), 7),
    "signed permutations 4d": (MatrixSet.from_arrays(
        [np.diag([1.0, -1.0, 1.0, 1.0])[[3, 0, 1, 2]],
         np.eye(4)[[1, 0, 3, 2]]]), 6),
    "planar rotations": (MatrixSet.from_arrays(
        [[[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]]
         for t in (1.0, 2.2)]), 8),
    "3d rotations": (MatrixSet.from_arrays(
        [_rotation_3d(2, 1.23), _rotation_3d(0, 1.01)]), 7),
    "quarter turn": (QUARTER_TURN, 9),
    "diagonal pair": (DIAGONAL_PAIR, 8),
    "scalar multiples of I": (MatrixSet.from_arrays(
        [0.75 * np.eye(3), 0.75 * np.eye(3), -0.75 * np.eye(3)]), 5),
    "column-stochastic": (_column_stochastic(np.random.default_rng(7), 3, 3),
                          6),
    "golden pair": (GOLDEN_PAIR, 9),
    # radii near 2^-600 under entries near 2^-400: the squares in the
    # Frobenius bound underflow, so only the floor keeps these rows
    "tiny radii": (MatrixSet.from_arrays(
        [_SHIFT_3, 2.0 ** -100 * np.eye(3), 2.0 ** -99 * np.eye(3)]), 6),
    # the d = 2 closed form near a double eigenvalue, where it is not
    # backward stable
    "hidden shears": (_hidden_shears(), 10),
    "near-scalar pair": (MatrixSet.from_arrays(
        [np.eye(2) + 1e-8 * np.array([[1.0, 2.0], [-1.0, 0.5]]),
         np.eye(2) + 1e-8 * np.array([[0.0, -1.0], [3.0, 1.0]])]), 10),
}


@functools.lru_cache(maxsize=None)
def _necklace_mask(r: int, n: int) -> np.ndarray:
    """Which length-n words over r letters, in lexicographic order, are
    necklaces: least among their rotations."""
    return np.array([min(w[i:] + w[:i] for i in range(n)) == w
                     for w in itertools.product(range(r), repeat=n)])


def _reference_max(ms: MatrixSet, n: int, kernel,
                   necklaces: bool = False) -> tuple[float, int, tuple]:
    """Unscreened scan: the kernel on every block, compared exactly as
    fractions; the first word wins ties.  With ``necklaces``, only the
    words that are least among their rotations take part."""
    best = None
    for start, block, exponent in _product_chunks(ms, n, 1 << 24):
        vals = kernel(block)
        if necklaces:
            mask = _necklace_mask(ms.r, n)[start:start + len(block)]
            if not mask.any():
                continue
            vals = np.where(mask, vals, -np.inf)
        j = int(np.argmax(vals))
        exact = Fraction(float(vals[j])) * Fraction(2) ** exponent
        if best is None or exact > best[0]:
            best = (exact, float(vals[j]), exponent, start + j)
    return best[1], best[2], word_from_index(best[3], ms.r, n)


def _reference(ms: MatrixSet, n: int, metric) -> tuple[float, int, tuple]:
    """``_reference_max`` of a metric: the radius over necklaces, the
    others over every word."""
    return _reference_max(ms, n, _kernel(metric), necklaces=metric == RADIUS)


class _RowCounter:
    """Counts the rows that reach the exact kernels, which ``core`` looks up
    in its own namespace at each call: all norms, each NormKind, radii."""

    def __init__(self, monkeypatch):
        self.rows = {"norms": 0, "radii": 0, **dict.fromkeys(NormKind, 0)}
        norms, radii = core_module.operator_norms, core_module.spectral_radii

        def counted_norms(stack, kind):
            self.rows["norms"] += stack.shape[0]
            self.rows[kind] += stack.shape[0]
            return norms(stack, kind)

        def counted_radii(stack):
            self.rows["radii"] += stack.shape[0]
            return radii(stack)

        monkeypatch.setattr(core_module, "operator_norms", counted_norms)
        monkeypatch.setattr(core_module, "spectral_radii", counted_radii)


@pytest.fixture(params=["default blocks", "every block screened",
                        "small chunks"])
def screen_mode(request, monkeypatch) -> str:
    """Default blocks; every block screened, however small; and 64-float
    blocks, all screened, so the best is carried across many blocks."""
    if request.param != "default blocks":
        monkeypatch.setattr("jsrbound.core._SCREEN_MIN_FLOATS", 1)
    if request.param == "small chunks":
        monkeypatch.setattr("jsrbound.core._CHUNK_FLOATS", 64)
    return request.param


# The metrics of ``sandwich`` in l2, both screened.
SCREENED = [NormKind.L2, RADIUS]


def _check_screened(ms: MatrixSet, n: int,
                    metrics: list = SCREENED) -> list[tuple]:
    """Screened maxima of ``metrics`` (by default the l2 norm and the
    radius) against the reference."""
    got = max_over_products(ms, n, metrics)
    assert got == [_reference(ms, n, metric) for metric in metrics]
    return got


# The norms screened by the column and row sums themselves, with the
# radius, whose screen takes the same sums.
SUM_NORMS = [NormKind.L1, NormKind.LINF, RADIUS]


def _similar_square_zero(d: int, r: int, cond: float, diag: float,
                         seed) -> MatrixSet:
    """S (D_i + N_i) S^-1 for r members, cond(S) = cond, D_i diagonal with
    entries up to ``diag`` and N_i = [[0, B_i], [0, 0]], B_i of d // 2
    rows, so N_i N_j = 0.  Each member's norm is up to cond times its
    radius, and at diag = 0 every exact product of two or more members
    vanishes, so the computed radii are rounding."""
    rng = np.random.default_rng(seed)
    q1 = np.linalg.qr(rng.standard_normal((d, d)))[0]
    q2 = np.linalg.qr(rng.standard_normal((d, d)))[0]
    s = q1 @ np.diag(np.geomspace(1.0, 1.0 / cond, d)) @ q2
    inv = np.linalg.inv(s)
    members = []
    for _ in range(r):
        n = np.zeros((d, d))
        n[:d // 2, d // 2:] = rng.uniform(-1.0, 1.0, (d // 2, d - d // 2))
        members.append(s @ (np.diag(diag * rng.uniform(-1.0, 1.0, d)) + n)
                       @ inv)
    return MatrixSet.from_arrays(members)


class TestScreenedMaxima:
    """max_over_products with screened metrics against an unscreened scan:
    the same values, exponents and witness words."""

    def test_kernels_are_batch_invariant(self):
        """A kernel gives the same bits on a subset of rows, and on a single
        row, as on the whole block; screening relies on it."""
        rng = np.random.default_rng(11)
        # at d = 2 the block takes the closed form, subsets eigvalsh
        assert 37 < core_module._L2_CLOSED_MIN_ROWS <= 300
        kernels = [lambda s, k=kind: operator_norms(s, k) for kind in NormKind]
        kernels.append(spectral_radii)
        for d in range(1, 7):
            for scale in (1e-3, 1.0, 1e3):
                block = scale * rng.uniform(-1.0, 1.0, (300, d, d))
                subset = np.sort(rng.choice(300, size=37, replace=False))
                for kernel in kernels:
                    full = kernel(block)
                    assert kernel(block[subset]).tobytes() == \
                        full[subset].tobytes()
                    for i in (0, 150, 299):
                        assert kernel(block[i:i + 1]).tobytes() == \
                            full[i:i + 1].tobytes()

    @pytest.mark.parametrize("name", sorted(ATTAINED))
    def test_attained_and_tied_sets(self, name, screen_mode):
        ms, n = ATTAINED[name]
        for k in range(1, n + 1):
            _check_screened(ms, k)
            _check_screened(ms, k, SUM_NORMS)

    def test_tied_values_keep_the_first_word(self, screen_mode, monkeypatch):
        """Every product of these sets has the same norm and radius, so the
        first word wins, and the screen prunes none of the tied rows.  The
        products of the permutation sets tie in the l1 and linf norms."""
        for ms, n in (ATTAINED["scalar multiples of I"],
                      ATTAINED["quarter turn"]):
            counter = _RowCounter(monkeypatch)
            got = _check_screened(ms, n)
            assert [word for _, _, word in got] == [(1,) * n] * 2
            if screen_mode != "default blocks":
                assert counter.rows["norms"] >= ms.r ** n
        for name in ("scalar multiples of I", "quarter turn",
                     "permutations", "signed permutations 4d"):
            ms, n = ATTAINED[name]
            counter = _RowCounter(monkeypatch)
            got = _check_screened(ms, n, SUM_NORMS)
            assert [word for _, _, word in got[:2]] == [(1,) * n] * 2
            if screen_mode != "default blocks":
                assert counter.rows[NormKind.L1] >= ms.r ** n
                assert counter.rows[NormKind.LINF] >= ms.r ** n

    @pytest.mark.parametrize("d", range(1, 10))
    def test_random_sets(self, d, screen_mode):
        """From d = 8 numpy sums the rows of the linf kernel pairwise, so
        some row sums of ``_cheap_norms``, its screen, differ from the
        kernel's in the last bit; the screen's margin covers them."""
        rng = np.random.default_rng([d, 3])
        differ = False
        for r in (1, 2, 3, 4):
            # top levels of up to 4096 entries, past the screen's minimum
            n = 6 if r == 1 else min(7, int(math.log(4096 / d ** 2, r)))
            ms = random_set(rng, d, r, scale=10.0 ** rng.uniform(-3.0, 3.0))
            for k in sorted({1, n // 2, n}):
                _check_screened(ms, k)
                _check_screened(ms, k, SUM_NORMS)
            stack = _chunk_stack(ms, n)
            sums = core_module._cheap_norms(stack)[1]
            kernel = operator_norms(stack, NormKind.LINF)
            assert np.all(np.abs(sums - kernel) <= 2 * d * 2.0 ** -53 * kernel)
            differ |= bool(np.any(sums != kernel))
        assert differ == (d >= 8)

    @pytest.mark.parametrize("k", [600, -600])
    def test_far_from_unit_scale(self, k, screen_mode):
        rng = np.random.default_rng(5)
        for ms in (random_set(rng, 2, 2), random_set(rng, 3, 3),
                   GOLDEN_PAIR):
            scaled = ms.scaled(2.0 ** k)
            for n in (1, 3, 6):
                got = _check_screened(scaled, n)
                plain = max_over_products(ms, n, SCREENED)
                assert [(v, w) for v, _, w in got] == \
                    [(v, w) for v, _, w in plain]

    @pytest.mark.parametrize("d", range(3, 9))
    def test_non_normal_sets(self, d, screen_mode):
        """Sets whose computed radii are far below their norms and, near 0,
        are rounding: the cheap bound keeps many rows there."""
        for r in (2, 3):
            n = min(5, int(math.log(4096 / d ** 2, r)))
            for cond in (1e6, 1e10, 1e13):
                for diag in (0.0, 1e-8, 1e-4):
                    for seed in (1, 2):
                        ms = _similar_square_zero(d, r, cond, diag,
                                                  [d, r, seed])
                        _check_levels(ms, n, [NormKind.L2, RADIUS])

    @pytest.mark.parametrize("k", [600, -600])
    def test_non_normal_sets_far_from_unit_scale(self, k, screen_mode):
        for d in (3, 4, 6):
            ms = _similar_square_zero(d, 2, 1e10, 1e-8, [d, 7])
            got = _check_levels(ms.scaled(2.0 ** k), 5, SCREENED)
            plain = max_over_products(ms, 5, SCREENED, first=1)
            assert [[(v, w) for v, _, w in level] for level in got] == \
                [[(v, w) for v, _, w in level] for level in plain]

    def test_exact_kernels_see_few_rows(self, monkeypatch):
        """On random sets at default blocks the l2 kernel sees under 1% of
        the words, the radius kernel under 5%; the l1 and linf kernels,
        screened by the column and row sums themselves, under 1%."""
        rng = np.random.default_rng(2)
        for d, r, n in ((2, 2, 14), (3, 2, 14), (6, 2, 11)):
            ms = random_set(rng, d, r)
            counter = _RowCounter(monkeypatch)
            _check_screened(ms, n)
            assert counter.rows["norms"] < 0.01 * r ** n
            assert counter.rows["radii"] < 0.05 * r ** n
            counter = _RowCounter(monkeypatch)
            _check_screened(ms, n, SUM_NORMS)
            assert 0 < counter.rows[NormKind.L1] < 0.01 * r ** n
            assert 0 < counter.rows[NormKind.LINF] < 0.01 * r ** n

    def test_metric_names_need_no_wrapping(self, monkeypatch):
        """Names alone select core's kernels and screens: the l2 kernel sees
        under 1% of the rows, |trace| and the l1 and linf norms match their
        references, and an unknown name is refused."""
        ms, n = random_set(np.random.default_rng(6), 3, 2), 13
        counter = _RowCounter(monkeypatch)
        got = max_over_products(ms, n, [NormKind.L2, RADIUS])
        assert got == [
            _reference_max(ms, n, lambda s: operator_norms(s, NormKind.L2)),
            _reference_max(ms, n, spectral_radii, necklaces=True)]
        assert 0 < counter.rows["norms"] < 0.01 * 2 ** n
        assert max_over_products(ms, n, [TRACE, NormKind.L1, NormKind.LINF]) \
            == [_reference_max(ms, n, lambda s: np.abs(np.trace(
                    s, axis1=-2, axis2=-1))),
                _reference_max(ms, n, lambda s: operator_norms(s, NormKind.L1)),
                _reference_max(ms, n,
                               lambda s: operator_norms(s, NormKind.LINF))]
        with pytest.raises(ValueError, match="unknown metric 'rho'"):
            max_over_products(ms, 1, ["rho"])

    def test_sandwich_and_gelfand_upper_are_screened(self, monkeypatch):
        ms, n = random_set(np.random.default_rng(4), 3, 2), 16
        counter = _RowCounter(monkeypatch)
        top = sandwich(ms, n, NormKind.L2)[-1]
        assert 0 < counter.rows["norms"] < 0.01 * 2 ** (n + 1)
        assert 0 < counter.rows["radii"] < 0.05 * 2 ** (n + 1)
        norm = _reference_max(ms, n, lambda s: operator_norms(s, NormKind.L2))
        rho = _reference_max(ms, n, spectral_radii, necklaces=True)
        assert top.witness_upper == norm[2]
        assert top.witness_lower == rho[2]
        assert top.upper == math.ldexp(norm[0], norm[1]) ** (1.0 / n)
        assert top.lower == math.ldexp(rho[0], rho[1]) ** (1.0 / n)
        assert gelfand_upper(ms, n, NormKind.L2) == top.upper


class _SumSpy:
    """Counts the calls of ``core._sum_norms``, the column and row sums of
    the cheap pass, which ``core`` looks up in its own namespace."""

    def __init__(self, monkeypatch):
        self.calls = 0
        sums = core_module._sum_norms

        def counted(block):
            self.calls += 1
            return sums(block)

        monkeypatch.setattr(core_module, "_sum_norms", counted)


class TestFrobeniusScreen:
    """A single-length l2 call screens its leaves by ||P||_2 <= ||P||_F
    alone: it never takes the column and row sums, and its maxima are the
    reference's."""

    @staticmethod
    def _check(ms: MatrixSet, n: int, monkeypatch) -> tuple:
        spy = _SumSpy(monkeypatch)
        got = max_over_products(ms, n, [NormKind.L2])
        assert spy.calls == 0
        assert got == [_reference(ms, n, NormKind.L2)]
        return got[0]

    @pytest.mark.parametrize("d", range(1, 7))
    def test_random_sets(self, d, screen_mode, monkeypatch):
        rng = np.random.default_rng([d, 28])
        for r in (1, 2, 3, 4):
            # blocks of at least 2^11 entries, past the screen's minimum
            n = 4 if r == 1 else math.ceil(math.log(2 ** 11 / d ** 2, r))
            ms = random_set(rng, d, r, scale=10.0 ** rng.uniform(-3.0, 3.0))
            for k in sorted({1, n // 2, n}):
                self._check(ms, k, monkeypatch)

    @pytest.mark.parametrize("name, n", [("planar rotations", 11),
                                         ("3d rotations", 9)])
    def test_rotation_pairs(self, name, n, screen_mode, monkeypatch):
        """Every product has norm 1 up to rounding, under its Frobenius
        norm sqrt(d): the screen prunes nothing."""
        ms = ATTAINED[name][0]
        value, exponent, _ = self._check(ms, n, monkeypatch)
        assert math.ldexp(value, exponent) == pytest.approx(1.0, rel=1e-13)

    @pytest.mark.parametrize("k", [600, -600])
    def test_far_from_unit_scale(self, k, screen_mode, monkeypatch):
        rng = np.random.default_rng(29)
        for ms in (random_set(rng, 2, 2), random_set(rng, 3, 3),
                   ATTAINED["planar rotations"][0]):
            value, _, word = self._check(ms.scaled(2.0 ** k), 10,
                                         monkeypatch)
            plain = max_over_products(ms, 10, [NormKind.L2])[0]
            assert (value, word) == (plain[0], plain[2])

    def test_zero_and_nilpotent_sets(self, screen_mode, monkeypatch):
        rng = np.random.default_rng(30)
        for ms in (MatrixSet.from_arrays(np.zeros((2, 2, 2))),
                   MatrixSet.from_arrays(np.triu(rng.uniform(-1, 1, (3, 3, 3)),
                                                 k=1))):
            assert self._check(ms, 8, monkeypatch)[0] == 0.0

    def test_l2_kernel_sees_few_rows(self, monkeypatch):
        """On random sets at default blocks, the Frobenius screen alone
        leaves the l2 kernel under 1% of the words."""
        rng = np.random.default_rng(31)
        for d, r, n in ((2, 2, 14), (3, 2, 14), (6, 2, 11)):
            ms = random_set(rng, d, r)
            counter = _RowCounter(monkeypatch)
            self._check(ms, n, monkeypatch)
            assert 0 < counter.rows[NormKind.L2] < 0.01 * r ** n


# ---------------------------------------------------------------------------
# Pruned level walks


def _kernel(metric):
    """The exact kernel of a metric, for ``_reference_max``."""
    if metric == RADIUS:
        return spectral_radii
    if metric == TRACE:
        return lambda s: np.abs(np.trace(s, axis1=-2, axis2=-1))
    return lambda s: operator_norms(s, metric)


# The metrics of ``bound --trace`` in each norm.
BOUND_METRICS = [[kind, RADIUS, TRACE] for kind in NormKind]


def _check_levels(ms: MatrixSet, n: int, metrics: list) -> list:
    """``max_over_products`` at lengths 1..n in one pass against the
    unpruned reference at every length, and from length 2 on, where the
    first length has no maxima to prune against."""
    got = max_over_products(ms, n, metrics, first=1)
    assert got == [[_reference(ms, k, metric) for metric in metrics]
                   for k in range(1, n + 1)]
    if n > 1:
        assert max_over_products(ms, n, metrics, first=2) == got[1:]
    return got


def _cancelling_triple(cond: float, seed: int) -> MatrixSet:
    """S U_i S^-1 for three strictly upper triangular U_i and
    cond(S) = cond: every exact product of two or more members is 0, and
    every computed one is rounding, at up to 2^-52 cond^2 of the exact
    products of the members' absolute values."""
    def turn(t):
        return np.array([[math.cos(t), -math.sin(t)],
                         [math.sin(t), math.cos(t)]])
    rng = np.random.default_rng(seed)
    s = (turn(rng.uniform(0.0, 3.0)) @ np.diag([1.0, 1.0 / cond])
         @ turn(rng.uniform(0.0, 3.0)))
    inv = np.linalg.inv(s)
    return MatrixSet.from_arrays(
        [s @ np.triu(rng.uniform(-1.0, 1.0, (2, 2)), k=1) @ inv
         for _ in range(3)])


class _ProductCounter:
    """Counts the products formed: the rows out of ``_left_multiply``,
    which ``core`` looks up in its own namespace at each call."""

    def __init__(self, monkeypatch):
        self.rows = 0
        multiply = core_module._left_multiply

        def counted(mats, block):
            self.rows += mats.shape[0] * block.shape[0]
            return multiply(mats, block)

        monkeypatch.setattr(core_module, "_left_multiply", counted)


class TestPrunedLevels:
    """Multi-length passes, which drop prefixes of each length's word
    tree, against the unpruned reference at every length: the same
    values, exponents and witness words."""

    @pytest.mark.parametrize("name", sorted(ATTAINED))
    def test_attained_and_tied_sets(self, name, screen_mode):
        ms, n = ATTAINED[name]
        for metrics in BOUND_METRICS:
            _check_levels(ms, n, metrics)

    @pytest.mark.parametrize("d", range(1, 10))
    def test_random_sets(self, d, screen_mode):
        rng = np.random.default_rng([d, 5])
        for r in (1, 2, 3, 4):
            n = 6 if r == 1 else min(7, int(math.log(4096 / d ** 2, r)))
            ms = random_set(rng, d, r, scale=10.0 ** rng.uniform(-3.0, 3.0))
            for metrics in BOUND_METRICS:
                _check_levels(ms, n, metrics)

    @pytest.mark.parametrize("d, r, n", [(2, 2, 18), (3, 2, 18), (4, 2, 18),
                                         (3, 3, 12)])
    def test_deep_passes_match_single_lengths(self, d, r, n):
        """At the depths where the seeds, the radius chains and the R_j
        term act at default block sizes, each length of a pass has the
        values, exponents and witnesses of a call at that length alone."""
        ms = random_set(np.random.default_rng([d, r, n]), d, r)
        for kind in NormKind:
            metrics = [kind, RADIUS, TRACE]
            assert max_over_products(ms, n, metrics, first=1) == \
                [max_over_products(ms, k, metrics) for k in range(1, n + 1)]

    @pytest.mark.parametrize("k", [600, -600])
    def test_far_from_unit_scale(self, k, screen_mode):
        rng = np.random.default_rng(8)
        for ms in (random_set(rng, 2, 3), random_set(rng, 3, 2),
                   GOLDEN_PAIR):
            got = _check_levels(ms.scaled(2.0 ** k), 6, SCREENED)
            plain = max_over_products(ms, 6, SCREENED, first=1)
            assert [[(v, w) for v, _, w in level] for level in got] == \
                [[(v, w) for v, _, w in level] for level in plain]

    def test_zero_and_nilpotent_sets(self, screen_mode):
        rng = np.random.default_rng(9)
        sets = [MatrixSet.from_arrays(np.zeros((2, 2, 2))),
                MatrixSet.from_arrays(np.triu(rng.uniform(-1, 1, (3, 3, 3)),
                                              k=1)),
                MatrixSet.from_arrays(np.triu(rng.uniform(-1, 1, (2, 4, 4)),
                                              k=1))]
        for ms in sets:
            for metrics in BOUND_METRICS:
                got = _check_levels(ms, 6, metrics)
                assert all(v == 0.0 for level in got[ms.dim:]
                           for v, _, _ in level)

    @pytest.mark.parametrize("cond, seed", [(1e10, 24), (1e13, 4)])
    @pytest.mark.parametrize("kind", [NormKind.L1, NormKind.L2])
    def test_cancelling_similarity_keeps_its_maximum(self, cond, seed, kind):
        """The computed products of these sets are far from the exact
        ones.  Without the a-priori rounding term R_j of ``_Pass``, the
        walk drops the prefix of the computed maximum on both sets, in
        both norms."""
        _check_levels(_cancelling_triple(cond, seed), 10, [kind, RADIUS])

    def test_budget_error_keeps_the_levels_before(self):
        ms = random_set(np.random.default_rng(10), 2, 4)
        with pytest.raises(BudgetExceededError,
                           match="length-9 products requires 262144 words"
                           ) as info:
            max_over_products(ms, 12, SCREENED, 4 ** 8, first=1)
        assert info.value.partial == [
            [_reference(ms, k, metric) for metric in SCREENED]
            for k in range(1, 9)]


def _least_rotation(word: tuple) -> tuple:
    return min(word[i:] + word[:i] for i in range(len(word)))


def _walk_periods(r: int, n: int, prune=None) -> dict:
    """{word index: period} over the leaves of a length-n walk of r 1x1
    members, which carries periods from the empty word."""
    table = core_module._Table(np.ones((1, 1, 1)), 0, 0, np.ones(1, int))
    found = {}
    for start, rows, block, _, periods in core_module._walk(
            np.ones((r, 1, 1)), 0, table, n, prune):
        indices = range(start, start + len(block)) if rows is None else rows
        found.update(zip((int(i) for i in indices), periods.tolist()))
    return found


class TestNecklaceWalk:
    """The prenecklace periods the walk carries (``_grow_periods``)
    against rotations compared with ``itertools``.  A word w over r
    letters is a prefix of a least rotation iff w z^|w| is one, z the
    largest letter: appending z's to such a word makes it a Lyndon word,
    or a power of one, within |w| letters, and keeps it so."""

    @pytest.mark.parametrize("chunk_floats", [None, 16])
    def test_periods_match_least_rotations(self, monkeypatch, chunk_floats):
        """Every word with r <= 4 and n <= 8: the period is positive iff
        the word is a prefix of a least rotation, and it divides n iff
        the word is a least rotation, a necklace.  With 16-float blocks
        the leaves come in groups of a few rows."""
        if chunk_floats is not None:
            monkeypatch.setattr(core_module, "_CHUNK_FLOATS", chunk_floats)
        for r in range(1, 5):
            for n in range(1, 9):
                periods = _walk_periods(r, n)
                assert len(periods) == r ** n
                for index, word in enumerate(
                        itertools.product(range(r), repeat=n)):
                    padded = word + (r - 1,) * n
                    p = periods[index]
                    assert (p > 0) == (_least_rotation(padded) == padded)
                    assert (p > 0 and n % p == 0) == \
                        (_least_rotation(word) == word)

    def test_pruned_walks_keep_the_periods_of_their_rows(self):
        """Prefixes dropped at random leave the periods of the rows kept,
        which the walk then carries as index arrays."""
        rng = np.random.default_rng(14)

        def prune(block, exponent, depth, periods):
            return None if depth < 2 else rng.uniform(size=len(block)) < 0.8

        for r, n in ((2, 8), (3, 6), (4, 5)):
            full = _walk_periods(r, n)
            kept = _walk_periods(r, n, prune)
            assert 0 < len(kept) < len(full)
            assert all(full[index] == p for index, p in kept.items())

    @pytest.mark.parametrize("rows", [200, 1])
    def test_python_int_indices(self, rows):
        """Past 2^62 word indices are Python ints: the periods of 200
        words of 70 letters over 2 and 3 letters, grown letter by letter
        200 rows at a time and one row at a time, flag their necklace
        prefixes."""
        rng = np.random.default_rng(15)
        for r in (2, 3):
            powers = np.array([r ** k for k in range(70)], dtype=object)
            words = rng.integers(0, r, (200, 70))
            # long periodic stretches, whose prefixes are prenecklaces
            # deep into the word
            words[::2, 1:] = np.minimum(words[::2, 1:], words[::2, :1] + 1)
            words[::4] = np.sort(words[::4], axis=1)
            for batch in np.split(words, 200 // rows):
                periods = np.ones(len(batch), int)
                index = np.zeros(len(batch), dtype=object)
                for t in range(70):
                    grown = core_module._grow_periods(
                        periods, index, t, r, powers).reshape(-1, r)
                    periods = grown[np.arange(len(batch)), batch[:, t]]
                    index = index * r + batch[:, t]
                    for word, p in zip(batch.tolist(), periods.tolist()):
                        prefix = tuple(word[:t + 1])
                        assert (p > 0 and (t + 1) % p == 0) == \
                            (_least_rotation(prefix) == prefix)


class TestNecklaceMaxima:
    """The radius maximum of a level is taken over its necklaces: the
    same value in exact arithmetic, and as computed within rounding of
    the maximum over every word."""

    @pytest.mark.parametrize("kind", list(NormKind))
    @pytest.mark.parametrize("scale", [0, 600, -600])
    def test_every_kind_and_scale(self, kind, scale, screen_mode):
        rng = np.random.default_rng(16)
        sets = [random_set(rng, 2, 3), random_set(rng, 3, 2),
                random_set(rng, 4, 2), ATTAINED["planar rotations"][0],
                ATTAINED["permutations"][0],
                MatrixSet.from_arrays(np.zeros((2, 2, 2))),
                MatrixSet.from_arrays(np.triu(rng.uniform(-1, 1, (3, 3, 3)),
                                              k=1))]
        for ms in sets:
            got = _check_levels(ms.scaled(2.0 ** scale), 6, [kind, RADIUS])
            for n, (_, (value, exponent, word)) in enumerate(got, start=1):
                assert _least_rotation(word) == word
                top, top_exponent, _ = _reference_max(
                    ms.scaled(2.0 ** scale), n, spectral_radii)
                if top == 0.0:
                    assert value == 0.0
                else:
                    assert math.ldexp(value / top, exponent - top_exponent) \
                        == pytest.approx(1.0, rel=1e-13)


class TestPrunedWork:
    """Products formed by a multi-length pass, counted at the multiply."""

    def test_few_products_are_formed(self, monkeypatch):
        """A random set of four 2x2 matrices at lengths 1..10: under 5% of
        the sum of 4^k products in every norm (an unpruned pass forms
        them all)."""
        ms = random_set(np.random.default_rng(12), 2, 4)
        total = sum(4 ** k for k in range(1, 11))
        for kind in NormKind:
            counter = _ProductCounter(monkeypatch)
            max_over_products(ms, 10, [kind, RADIUS], first=1)
            assert 0 < counter.rows < 0.05 * total

    @pytest.mark.parametrize("kind", list(NormKind))
    @pytest.mark.parametrize("name", sorted(ATTAINED))
    def test_tied_sets_form_each_level_once(self, name, kind, monkeypatch):
        """Where products tie or nearly tie (rotations, permutations, the
        quarter turn), few prefixes or none can be dropped.  With every
        length of two or more tested, however small, a pass still forms
        at most the sum of r^k products, as without pruning: the walk
        reuses the seeds' products, and a whole length that keeps half
        its prefixes or more is formed whole and becomes the table."""
        monkeypatch.setattr("jsrbound.core._SCREEN_MIN_FLOATS", 1)
        tested = set()
        keep = core_module._Pass._keep

        def spy(scan, *args):
            tested.add(scan.n)
            return keep(scan, *args)

        monkeypatch.setattr(core_module._Pass, "_keep", spy)
        ms, n = ATTAINED[name]
        counter = _ProductCounter(monkeypatch)
        max_over_products(ms, n, [kind, RADIUS, TRACE], first=1)
        assert counter.rows <= sum(ms.r ** k for k in range(1, n + 1))
        # a set of one member has one word a length, nothing to drop
        assert tested == (set(range(2, n + 1)) if ms.r > 1 else set())


class TestExports:
    def test_every_exported_name_resolves(self):
        import jsrbound

        names = jsrbound.__all__
        assert len(names) == len(set(names)) == 52
        for name in names:
            assert hasattr(jsrbound, name), name

    @pytest.mark.parametrize("module, name", [
        ("jsrbound", "spectral_lower"), ("jsrbound.bounds", "spectral_lower"),
        ("jsrbound", "matrix_set_norm"), ("jsrbound.core", "matrix_set_norm"),
        ("jsrbound", "reach_set"), ("jsrbound.irreducibility", "reach_set"),
        ("jsrbound", "ReachSet"), ("jsrbound.irreducibility", "ReachSet"),
        ("jsrbound", "BurnsideReport"),
        ("jsrbound", "support_radius_upper"),
        ("jsrbound.geometry", "support_radius_upper"),
        ("jsrbound.geometry", "halton_directions"),
    ])
    def test_wrappers_of_other_public_routines_are_gone(self, module, name):
        # sandwich reports carry the spectral lower bound, max_over_products
        # gives the set norm, reach_products @ x the reach points, and no
        # exported function returns a BurnsideReport
        assert not hasattr(importlib.import_module(module), name)

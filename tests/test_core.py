from __future__ import annotations

import json
import math

import numpy as np
import pytest

from jsrbound import (
    BudgetExceededError,
    InputFormatError,
    MatrixSet,
    NormKind,
    as_matrix,
    brute_force_interval,
    enumerate_products,
    gelfand_upper,
    load_matrix_set,
    matrix_set_norm,
    matrix_set_norm_witness,
    max_over_products,
    operator_norm,
    parse_matrix_set,
    product_of_word,
    spectral_radius,
    word_from_index,
)
from jsrbound.core import _product_chunks, operator_norms, spectral_radii
from jsrbound.geometry import vector_norms

from .conftest import GOLDEN_PAIR, QUARTER_TURN, random_set


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
        metrics = {kind: [lambda s, k=kind: operator_norms(s, k),
                          spectral_radii] for kind in NormKind}
        whole = [[max_over_products(ms, n, metrics[kind])
                  for n in range(1, 6)] for ms, kind in cases]
        monkeypatch.setattr("jsrbound.core._CHUNK_FLOATS", 64)
        for (ms, kind), expect in zip(cases, whole):
            got = [max_over_products(ms, n, metrics[kind])
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


class TestSetNorm:
    def test_identity(self):
        ms = MatrixSet.from_arrays([np.eye(2)])
        for kind in NormKind:
            assert matrix_set_norm(ms, 4, kind) == pytest.approx(1.0)

    def test_doubling_scalar(self):
        ms = MatrixSet.from_arrays([2.0 * np.eye(2)])
        assert matrix_set_norm(ms, 3, NormKind.L1) == pytest.approx(8.0)

    def test_golden_pair_n2_l1(self):
        # oracle: max column sum over the four length-2 products
        a1, a2 = GOLDEN_PAIR.members
        best = 0.0
        for left in (a1, a2):
            for right in (a1, a2):
                best = max(best, _oracle_norm(left @ right, NormKind.L1))
        assert best == 3.0
        assert matrix_set_norm(GOLDEN_PAIR, 2, NormKind.L1) == 3.0

    def test_witness_is_first_on_ties(self):
        twin = MatrixSet.from_arrays([np.eye(2), np.eye(2)])
        value, word = matrix_set_norm_witness(twin, 3, NormKind.L2)
        assert value == pytest.approx(1.0)
        assert word == (1, 1, 1)

    def test_max_over_products_single_pass(self, rng):
        ms = random_set(rng, 2, 2)
        [(v1, e1, w1), (v2, e2, w2)] = max_over_products(
            ms, 4, [lambda s: operator_norms(s, NormKind.L2),
                    lambda s: operator_norms(s, NormKind.L1)]
        )
        assert math.ldexp(v1, e1) == pytest.approx(
            matrix_set_norm(ms, 4, NormKind.L2))
        assert math.ldexp(v2, e2) == pytest.approx(
            matrix_set_norm(ms, 4, NormKind.L1))
        assert len(w1) == len(w2) == 4

    def test_large_entries_do_not_overflow(self):
        ms = MatrixSet.from_arrays([1e100 * np.eye(2)])
        assert matrix_set_norm(ms, 2, NormKind.L2) == 1e200


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
                        assert matrix_set_norm(scaled, n, kind) == \
                            math.ldexp(matrix_set_norm(ms, n, kind), n * k)
                    else:
                        expect = 2.0 ** k * gelfand_upper(ms, n, kind)
                        assert gelfand_upper(scaled, n, kind) == \
                            pytest.approx(expect, rel=1e-12)

    def test_to_dict_json_serializable(self):
        text = json.dumps(QUARTER_TURN.to_dict())
        assert parse_matrix_set(text).dim == 2

from __future__ import annotations

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
    matrix_set_norm,
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
        [(_, _, word)] = max_over_products(twin, 3, [NormKind.L2])
        assert matrix_set_norm(twin, 3, NormKind.L2) == pytest.approx(1.0)
        assert word == (1, 1, 1)

    def test_max_over_products_single_pass(self, rng):
        ms = random_set(rng, 2, 2)
        [(v1, e1, w1), (v2, e2, w2)] = max_over_products(
            ms, 4, [NormKind.L2, NormKind.L1])
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
}


def _reference_max(ms: MatrixSet, n: int, kernel) -> tuple[float, int, tuple]:
    """Unscreened scan: the kernel on every block, compared exactly as
    fractions; the first word wins ties."""
    best = None
    for start, block, exponent in _product_chunks(ms, n, 1 << 24):
        vals = kernel(block)
        j = int(np.argmax(vals))
        exact = Fraction(float(vals[j])) * Fraction(2) ** exponent
        if best is None or exact > best[0]:
            best = (exact, float(vals[j]), exponent, start + j)
    return best[1], best[2], word_from_index(best[3], ms.r, n)


class _RowCounter:
    """Counts the rows that reach the exact kernels, which ``core`` looks up
    in its own namespace at each call."""

    def __init__(self, monkeypatch):
        self.rows = {"norms": 0, "radii": 0}
        norms, radii = core_module.operator_norms, core_module.spectral_radii

        def counted_norms(stack, kind):
            self.rows["norms"] += stack.shape[0]
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


def _check_screened(ms: MatrixSet, n: int) -> list[tuple]:
    """Screened maxima of the l2 norm and the radius against the reference."""
    got = max_over_products(ms, n, SCREENED)
    assert got == [
        _reference_max(ms, n, lambda s: operator_norms(s, NormKind.L2)),
        _reference_max(ms, n, spectral_radii)]
    return got


class TestScreenedMaxima:
    """max_over_products with screened metrics against an unscreened scan:
    the same values, exponents and witness words."""

    def test_kernels_are_batch_invariant(self):
        """A kernel gives the same bits on a subset of rows, and on a single
        row, as on the whole block; screening relies on it."""
        rng = np.random.default_rng(11)
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

    def test_tied_values_keep_the_first_word(self, screen_mode, monkeypatch):
        """Every product of these sets has the same norm and radius, so the
        first word wins, and the screen prunes none of the tied rows."""
        for ms, n in (ATTAINED["scalar multiples of I"],
                      ATTAINED["quarter turn"]):
            counter = _RowCounter(monkeypatch)
            got = _check_screened(ms, n)
            assert [word for _, _, word in got] == [(1,) * n] * 2
            if screen_mode != "default blocks":
                assert counter.rows["norms"] >= ms.r ** n

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
    def test_random_sets(self, d, screen_mode):
        rng = np.random.default_rng([d, 3])
        for r in (1, 2, 3, 4):
            # top levels of up to 4096 entries, past the screen's minimum
            n = 6 if r == 1 else min(7, int(math.log(4096 / d ** 2, r)))
            ms = random_set(rng, d, r, scale=10.0 ** rng.uniform(-3.0, 3.0))
            for k in sorted({1, n // 2, n}):
                _check_screened(ms, k)

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

    def test_exact_kernels_see_few_rows(self, monkeypatch):
        """On random sets at default blocks the l2 kernel sees under 1% of
        the words, the d >= 3 radius kernel under 5%."""
        rng = np.random.default_rng(2)
        for d, r, n in ((2, 2, 14), (3, 2, 14), (6, 2, 11)):
            ms = random_set(rng, d, r)
            counter = _RowCounter(monkeypatch)
            _check_screened(ms, n)
            assert counter.rows["norms"] < 0.01 * r ** n
            if d >= 3:
                assert counter.rows["radii"] < 0.05 * r ** n

    def test_metric_names_need_no_wrapping(self, monkeypatch):
        """Names alone select core's kernels and screens: the l2 kernel sees
        under 1% of the rows, |trace| and the unscreened norms match their
        references, and an unknown name is refused."""
        ms, n = random_set(np.random.default_rng(6), 3, 2), 13
        counter = _RowCounter(monkeypatch)
        got = max_over_products(ms, n, [NormKind.L2, RADIUS])
        assert got == [
            _reference_max(ms, n, lambda s: operator_norms(s, NormKind.L2)),
            _reference_max(ms, n, spectral_radii)]
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
        rho = _reference_max(ms, n, spectral_radii)
        assert top.witness_upper == norm[2]
        assert top.witness_lower == rho[2]
        assert top.upper == math.ldexp(norm[0], norm[1]) ** (1.0 / n)
        assert top.lower == math.ldexp(rho[0], rho[1]) ** (1.0 / n)
        assert gelfand_upper(ms, n, NormKind.L2) == top.upper

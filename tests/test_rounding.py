"""The error model of ``jsrbound._rounding``, checked in exact arithmetic.

Each lemma R1-R7 is checked on the floats the package computes against
``fractions.Fraction``, on matrices of d <= 4, products of k <= 8
factors, scales 2^-500 to 2^500 and S U S^-1 with cond(S) = 1e13, and
each moved constant is derived from the lemmas.  A1 and A2 are
assumptions, which no exact test can confirm; only their numbers are
checked.  These tests need the standard library, numpy and pytest alone.
"""

from __future__ import annotations

import math
from fractions import Fraction as F
from itertools import product

import numpy as np
import pytest

import jsrbound.geometry as geometry
from jsrbound._rounding import (
    UNIT,
    _DEGENERATE_REL,
    _DISPLACEMENT_ROUNDING,
    _PRUNE_INRADIUS,
    _PRUNE_MARGIN,
    _RANGE_BITS,
    _ROUNDING_MARGIN,
    _SCREEN_FLOOR,
    _SCREEN_MARGIN,
    _exceeds,
    _in_scale,
    _pair,
    _pair_product,
    _pair_sum,
    _root,
    cap_factor,
    tail_term,
    underflow_term,
)
from jsrbound.core import (
    MatrixSet,
    NormKind,
    _cheap_norms,
    _left_multiply,
    _product_chunks,
    operator_norms,
    spectral_radii,
)

U = F(UNIT)
KAPPA = F(1, 2 ** 22)
# R6's bound on the d = 2 radius closed form, over the largest entry
RADIUS_SLACK = F(5, 10 ** 8)
# rational bounds of sqrt(3) and sin(2^-14)
SQRT3_UP = F(17321, 10000)
SIN_2_14_DOWN = F(1, 2 ** 14) - F(1, 6 * 2 ** 42)


def gamma(k: int) -> F:
    return k * U / (1 - k * U)


def exact(a) -> list:
    """Nested lists of Fractions, the exact values of a float array."""
    a = np.asarray(a, dtype=float)
    if a.ndim == 0:
        return F(float(a))
    return [exact(x) for x in a]


def matmul(a: list, b: list) -> list:
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def absolute(a: list) -> list:
    return [[abs(x) for x in row] for row in a]


def norm1(a: list) -> F:
    return max(sum(abs(row[j]) for row in a) for j in range(len(a)))


def within_root(err: F, bound: F, square: F) -> bool:
    """|err| <= bound * sqrt(square)."""
    return err * err <= bound * bound * square


def cancelling(rng, d: int, cond: float, r: int = 2) -> np.ndarray:
    """S U_i S^-1, U_i strictly upper triangular, cond(S) about cond:
    every exact product of d members is 0, every computed one rounding."""
    q = np.linalg.qr(rng.standard_normal((d, d)))[0]
    s = q @ np.diag(np.geomspace(1.0, 1.0 / cond, d)) @ q.T
    inv = np.linalg.inv(s)
    return np.array([s @ np.triu(rng.uniform(-1.0, 1.0, (d, d)), 1) @ inv
                     for _ in range(r)])


def product_sets(rng) -> list[np.ndarray]:
    """Member stacks for R3: d = 2..4 at scales 1, 2^500 and 2^-500, and
    the cancelling sets at cond(S) = 1e13."""
    sets = []
    for d in (2, 3, 4):
        base = rng.uniform(-1.0, 1.0, (2, d, d))
        sets += [base, np.ldexp(base, 500), np.ldexp(base, -500),
                 cancelling(rng, d, 1e13)]
    return sets


def walk_errors(mats: np.ndarray, k_max: int):
    """For k = 1..k_max: (k, errors, |A| products, M^k), the last three
    in exact integer units of one power of two: the engine's length-k
    products less the exact ones, the products of the members' absolute
    values, and the k-th power of the members' largest l1 norm M.  Python
    ints carry the exact products, row j * r + t of level k being A_t
    times row j."""
    d = mats.shape[-1]
    e0 = min((math.frexp(x)[1] - 53 for x in mats.ravel().tolist() if x),
             default=0)
    members = [[[int(F(x) / F(2) ** e0) for x in row] for row in m]
               for m in mats.tolist()]
    level = abs_level = [[[int(i == j) for j in range(d)]
                          for i in range(d)]]
    m = max(max(sum(abs(row[j]) for row in a) for j in range(d))
            for a in members)
    for k in range(1, k_max + 1):
        level = [matmul(a, p) for p in level for a in members]
        abs_level = [matmul(absolute(a), p) for p in abs_level
                     for a in members]
        chunks = list(_product_chunks(MatrixSet.from_arrays(mats), k,
                                      1 << 20))
        c = min([k * e0] + [e - 1074 for _, _, e in chunks])
        got = []
        for _, block, exponent in chunks:
            for x in block.ravel().tolist():
                n, den = x.as_integer_ratio()
                got.append(n << (exponent - den.bit_length() + 1 - c))
        scale = 1 << (k * e0 - c)
        errors = [[[got[(w * d + i) * d + j] - p[i][j] * scale
                    for j in range(d)] for i in range(d)]
                  for w, p in enumerate(level)]
        yield k, errors, [[[x * scale for x in row] for row in a]
                          for a in abs_level], m ** k * scale


# ---------------------------------------------------------------------------
# R1, R2


class TestModel:
    def test_basic_operations_round_by_u(self, rng):
        xs = np.ldexp(rng.uniform(0.5, 1.0, 200), rng.integers(-900, 900, 200))
        ys = np.ldexp(rng.uniform(-1.0, 1.0, 200), rng.integers(-60, 60, 200))
        for x, y in zip(xs.tolist(), ys.tolist()):
            for got, want in ((x + y, F(x) + F(y)), (x - y, F(x) - F(y)),
                              (x * y, F(x) * F(y)), (x / y, F(x) / F(y))):
                assert abs(F(got) - want) <= U * abs(want)
            root = F(math.sqrt(x))
            assert abs(root * root - F(x)) <= (2 * U + U * U) * F(x)

    def test_subnormal_products_sums_and_scaling(self, rng):
        # products under 2^-1080, sums under 2^-1040
        xs = np.ldexp(rng.uniform(-1.0, 1.0, 200), rng.integers(-560, -540, 200))
        ys = np.ldexp(rng.uniform(-1.0, 1.0, 200), rng.integers(-560, -540, 200))
        for x, y in zip(xs.tolist(), ys.tolist()):
            assert abs(F(x * y) - F(x) * F(y)) <= F(1, 2 ** 1075)
            small, other = math.ldexp(x, -500), math.ldexp(y, -500)
            assert F(small + other) == F(small) + F(other)
            assert F(math.ldexp(x, 300)) == F(x) * 2 ** 300

    @pytest.mark.parametrize("k", [2, 3, 4, 8, 16])
    def test_sums_and_dots(self, rng, k):
        for _ in range(40):
            x = np.ldexp(rng.uniform(-1.0, 1.0, k), rng.integers(-4, 5, k))
            y = rng.uniform(-1.0, 1.0, k)
            terms = [F(a) * F(b) for a, b in zip(x.tolist(), y.tolist())]
            size = sum(abs(t) for t in terms)
            for dot in (float(x @ y), float(np.einsum("i,i->", x, y))):
                assert abs(F(dot) - sum(terms)) <= gamma(k) * size
            positive = np.abs(x)
            total = sum(exact(positive))
            for got in (float(positive.sum()), float(np.add.reduce(
                    positive[:, None], axis=0)[0])):
                assert abs(F(got) - total) <= gamma(k - 1) * total


# ---------------------------------------------------------------------------
# R3, R4: products of the walk


class TestProducts:
    def test_products_within_gamma_and_the_tail_term(self, rng):
        for mats in product_sets(rng):
            d = mats.shape[-1]
            for k, errors, abs_level, power in walk_errors(mats, 8):
                kd = k * d
                for err, a in zip(errors, abs_level):
                    # |fl(P) - P| <= gamma_(kd) |A_k| ... |A_1|
                    assert all(abs(e) * ((1 << 53) - kd) <= kd * b
                               for re, ra in zip(err, a)
                               for e, b in zip(re, ra))
                    # || fl(P) - P ||_1 <= R_k / 2 = 2 k d u M^k
                    assert F(norm1(err)) <= F(tail_term(k, d)) / 2 * power

    def test_underflow_within_the_underflow_term(self):
        # entries 2^-600 apart: products underflow in block scale
        sets = [np.array([np.diag([2.0 ** -600, 1.0]),
                          [[1.0, 2.0 ** -600], [2.0 ** -600, 0.5]]]),
                np.array([np.diag([2.0 ** -40, 0.5, 2.0 ** -300]),
                          np.triu(np.full((3, 3), 0.75)) * 2.0 ** -200])]
        for mats in sets:
            d = mats.shape[-1]
            for k, errors, _, power in walk_errors(mats, 8):
                bound = gamma(k * d) + F(underflow_term(k, d)) / 2
                assert all(norm1(err) <= bound * power for err in errors)

    def test_tail_term_is_twice_gamma(self):
        for k, d in product((1, 2, 7, 40, 1 << 10), (1, 2, 3, 4, 1 << 12)):
            assert tail_term(k, d) == 4.0 * k * d * 2.0 ** -53
            assert F(tail_term(k, d)) >= 2 * gamma(k * d)

    def test_underflow_term_from_the_range_and_the_subnormals(self):
        for n, d in product((1, 2, 19, 40, 1 << 10), (1, 2, 3, 4, 1 << 12)):
            assert underflow_term(n, d) == n * d ** 3 * 2.0 ** -568
            g = gamma(n * d)
            # one underflowed product, in true scale over M^(k+1): the
            # subnormal half-step, the block's least top and 2^s <= 2 M
            product_error = F(1, 2 ** 1075) * 2 ** (_RANGE_BITS + 1) * 2
            assert product_error == F(1, 2 ** 573)
            # d products an entry, d entries in ub, the tail's 1 + gamma
            level = d * d * product_error * (1 + g) ** 2
            assert level <= d * d * F(1, 2 ** 572)
            # a leaf and its tail: 2 n levels in U / 2
            assert 2 * n * level <= F(underflow_term(n, d)) / 2


# ---------------------------------------------------------------------------
# R5, R6: cheap bounds and kernels


def blocks(rng, d: int) -> list[np.ndarray]:
    base = rng.uniform(-1.0, 1.0, (24, d, d))
    tiny = np.ldexp(base, -479)
    tiny[:, 0, -1] = 2.0 ** -600  # its square underflows
    return [base, np.ldexp(base, 499), tiny, cancelling(rng, d, 1e13, 24)]


class TestCheapBounds:
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_cheap_norms(self, rng, d):
        g_sum, g_f = gamma(d - 1), gamma(d * d + 2)
        for block in blocks(rng, d):
            c, r, f = (x.tolist() for x in _cheap_norms(block))
            for j, p in enumerate(exact(block)):
                cols = max(sum(abs(row[i]) for row in p) for i in range(d))
                rows = max(sum(abs(x) for x in row) for row in p)
                squares = sum(x * x for row in p for x in row)
                assert abs(F(c[j]) - cols) <= g_sum * cols
                assert abs(F(r[j]) - rows) <= g_sum * rows
                # R5 holds where F >= _SCREEN_FLOOR / 2
                if squares >= (F(_SCREEN_FLOOR) / 2) ** 2:
                    g = g_f + d * d * F(1, 2 ** 113)
                    assert (1 - g) ** 2 * squares <= F(f[j]) ** 2
                    assert F(f[j]) ** 2 <= (1 + g) ** 2 * squares
                geo = F(math.sqrt(c[j] * r[j]))
                if cols * rows >= (F(_SCREEN_FLOOR) / 2) ** 2:
                    assert (1 - g_f) ** 2 * cols * rows <= geo * geo
                    assert geo * geo <= (1 + g_f) ** 2 * cols * rows

    def test_underflowing_squares_above_the_floor(self):
        for d in (1, 2, 3, 4, 1 << 12):
            # F >= floor / 2: F^2 >= 2^-962, d^2 squares off by 2^-1075 each
            assert d * d * F(1, 2 ** 1075) <= d * d * F(1, 2 ** 113) * (
                F(_SCREEN_FLOOR) / 2) ** 2
            # the largest square there is normal: F^2 / d^2 >= 2^-1022
            assert (F(_SCREEN_FLOOR) / 2) ** 2 / d ** 2 >= F(1, 2 ** 1022)


def _minors_positive(t: F, gram: list) -> bool:
    """t I - gram is positive definite (all leading minors positive)."""
    def det(m):
        if len(m) == 1:
            return m[0][0]
        return sum((-1) ** j * m[0][j] * det([row[:j] + row[j + 1:]
                                              for row in m[1:]])
                   for j in range(len(m)) if m[0][j])
    n = len(gram)
    shifted = [[(t if i == j else 0) - gram[i][j] for j in range(n)]
               for i in range(n)]
    return all(det([row[:k] for row in shifted[:k]]) > 0
               for k in range(1, n + 1))


def l2_stacks(rng, d: int) -> list[np.ndarray]:
    base = rng.uniform(-1.0, 1.0, (16, d, d))
    rank_one = (rng.uniform(-1, 1, (16, d, 1)) * rng.uniform(-1, 1, (16, 1, d))
                + 2.0 ** -30 * rng.uniform(-1, 1, (16, d, d)))
    return [base, np.ldexp(base, 500), np.ldexp(base, -500), rank_one,
            cancelling(rng, d, 1e13, 16)]


class TestKernels:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_l2_within_4du(self, rng, d):
        bound = 4 * d * U
        assert bound <= KAPPA
        for stack in l2_stacks(rng, d):
            # d = 2 stacks of 64 rows take the closed form of
            # _top_eigenvalues_2x2, small ones eigvalsh
            values = [operator_norms(stack, NormKind.L2)]
            if d == 2:
                values.append(operator_norms(np.concatenate([stack] * 4),
                                             NormKind.L2)[:16])
            for got in values:
                for v, p in zip(got.tolist(), exact(stack)):
                    gram = matmul([list(col) for col in zip(*p)], p)
                    v = F(v)
                    # ||P||_2 < v / (1 - b) and ||P||_2 >= v / (1 + b)
                    assert _minors_positive((v / (1 - bound)) ** 2, gram)
                    assert not _minors_positive((v / (1 + bound)) ** 2, gram)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_sums_within_gamma(self, rng, d):
        for stack in l2_stacks(rng, d):
            for kind, flip in ((NormKind.L1, False), (NormKind.LINF, True)):
                for v, p in zip(operator_norms(stack, kind).tolist(),
                                exact(stack)):
                    want = norm1([list(c) for c in zip(*p)] if flip else p)
                    assert abs(F(v) - want) <= gamma(d - 1) * want
                    assert gamma(d - 1) <= KAPPA

    def test_radius_1x1_is_exact(self, rng):
        stack = np.ldexp(rng.uniform(-1, 1, (20, 1, 1)),
                         rng.integers(-900, 900, (20, 1, 1)))
        assert spectral_radii(stack).tolist() == np.abs(stack[:, 0, 0]).tolist()

    def test_radius_2x2_closed_form(self, rng):
        """v <= rho(P) + (sqrt(64.1 u) / 2 + 11 u) |p|, checked against the
        exact roots of the characteristic quadratic, on random matrices,
        near double eigenvalues (where the error is about sqrt(u)),
        complex pairs and cancelling sets."""
        slack = F(math.isqrt(math.floor(F(641, 10) * U * 4 ** 100)),
                  2 ** 101) + 11 * U
        assert (RADIUS_SLACK - 11 * U) ** 2 > F(641, 10) * U / 4
        turns = rng.uniform(0.0, 3.0, 60)
        jordan = np.array([[[np.cos(t), np.sin(t)], [-np.sin(t), np.cos(t)]]
                           @ np.array([[0.7, 1e-3 * k], [0.0, 0.7]])
                           @ [[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]]
                           for k, t in enumerate(turns)])
        stacks = [rng.uniform(-1, 1, (60, 2, 2)), jordan,
                  np.ldexp(jordan, 500), np.ldexp(jordan, -500),
                  np.array([[[0.3, -0.8], [0.8, 0.3]]] * 2) * [[[1.0]], [[3.0]]],
                  cancelling(rng, 2, 1e13, 60)]
        for stack in stacks:
            for v, p in zip(spectral_radii(stack).tolist(), exact(stack)):
                (a, b), (c, e) = p
                top = max(abs(a), abs(b), abs(c), abs(e))
                tr, det = a + e, a * e - b * c
                disc = tr * tr - 4 * det
                x = F(v) - slack * top
                if disc >= 0:
                    # x <= (|tr| + sqrt(disc)) / 2
                    y = 2 * x - abs(tr)
                    assert y <= 0 or y * y <= disc
                else:
                    assert x <= 0 or x * x <= det
        assert slack < RADIUS_SLACK

    def test_kappa_and_the_radius_slack_fit_the_screen_margin(self):
        mu = F(_SCREEN_MARGIN)
        assert 19 * RADIUS_SLACK <= mu
        for d in (1, 2, 3, 4, 1 << 12):
            g = gamma(d * d + 2) + d * d * F(1, 2 ** 113)
            # a value <= (1 + kappa) ub, ub within g of its computed bits,
            # against fl(bound * (1 + mu))
            assert (1 + KAPPA) / ((1 - g) * (1 - U)) <= (1 + mu) * (1 - U)
            assert (1 + RADIUS_SLACK) / ((1 - g) * (1 - U)) <= (1 + mu) * (
                1 - U)

    def test_pass_margins_leave_room(self):
        mu = F(_SCREEN_MARGIN)
        d = 1 << 12
        g = gamma(d * d + 2) + d * d * F(1, 2 ** 113)
        room = (1 + KAPPA) ** 3 * (1 + g) / (1 - g) * (1 + U) ** 8
        assert room <= (1 + 2 * mu) / (1 + mu)


# ---------------------------------------------------------------------------
# R7: the hull sweep


def sweep_rows(rng, d: int, k: int, s: int = 4) -> np.ndarray:
    """Planes (d, s, k) of k points a row, at mixed scales."""
    planes = rng.uniform(-1.0, 1.0, (d, s, k))
    return np.ldexp(planes, rng.integers(-3, 4, (1, s, k)))


def l2_square(vec) -> F:
    return sum(x * x for x in vec)


class TestHullSweep:
    @pytest.mark.parametrize("d", [2, 3])
    def test_dots(self, rng, d):
        g = gamma(3)
        assert g <= F(301, 100) * U
        normals, points = sweep_rows(rng, d, 10), sweep_rows(rng, d, 6)
        dots = geometry._abs_dots(normals, points)
        for row in range(normals.shape[1]):
            ws = exact(normals[:, row].T)
            ps = exact(points[:, row].T)
            for i, p in enumerate(ps):
                for c, w in enumerate(ws):
                    want = abs(sum(x * y for x, y in zip(w, p)))
                    err = F(float(dots[row, i, c])) - want
                    assert within_root(err, g, l2_square(w) * l2_square(p))

    def test_drop_test(self, rng):
        mu = F(_PRUNE_MARGIN)
        assert (1 - mu) * U + (1 - mu) * (1 + U) * F(301, 100) * U + \
            F(301, 100) * U <= F(71, 10) * U
        normals, pilot = sweep_rows(rng, 3, 12), sweep_rows(rng, 3, 6)
        hull = geometry._supports(normals, pilot)
        cut = (1.0 - _PRUNE_MARGIN) * hull
        # points near the cut along each pilot point
        near = pilot[:, :, :, None] * (1.0 - _PRUNE_MARGIN) * (
            1.0 + np.array([-4, -1, 0, 1, 4]) * 2.0 ** -52)
        near = near.reshape(3, pilot.shape[1], -1)
        dots = geometry._abs_dots(normals, near)
        dropped = 0
        for row in range(normals.shape[1]):
            ws, ps = exact(normals[:, row].T), exact(pilot[:, row].T)
            qs = exact(near[:, row].T)
            r2 = max(l2_square(p) for p in ps + qs)
            for c, w in enumerate(ws):
                h = max(abs(sum(x * y for x, y in zip(w, p))) for p in ps)
                for i, q in enumerate(qs):
                    if dots[row, i, c] < cut[row, c]:
                        dropped += 1
                        excess = abs(sum(x * y for x, y in zip(w, q))) - (
                            1 - mu) * h
                        assert excess <= 0 or within_root(
                            excess, F(71, 10) * U, l2_square(w) * r2)
        assert dropped

    @pytest.mark.parametrize("d", [2, 3])
    def test_dual_norms(self, rng, d):
        vectors = sweep_rows(rng, d, 20)
        for kind in NormKind:
            got = geometry._plane_norms(vectors, kind)
            for v, vec in zip(got.ravel().tolist(),
                              exact(vectors.reshape(d, -1).T)):
                v = F(v)
                if kind is NormKind.L2:
                    sq = l2_square(vec)
                    assert (1 - gamma(d + 1)) ** 2 * sq <= v * v
                    assert v * v <= (1 + gamma(d + 1)) ** 2 * sq
                else:
                    want = (sum(abs(x) for x in vec) if kind is NormKind.L1
                            else max(abs(x) for x in vec))
                    assert abs(v - want) <= gamma(d + 1) * want

    def test_normals_2d(self, rng):
        planes = sweep_rows(rng, 2, 5)
        normals = geometry._normals_2d(planes)
        i, j = geometry._index_tuples(5, 2)
        for row in range(planes.shape[1]):
            pts = exact(planes[:, row].T)
            want = [(p[1] + sign * q[1], -(p[0] + sign * q[0]))
                    for sign in (-1, 1) for p, q in zip(
                        [pts[b] for b in j], [pts[a] for a in i])]
            for c, n in enumerate(want):
                for a in range(2):
                    got = F(float(normals[a, row, c]))
                    assert abs(got - n[a]) <= U * abs(n[a])

    def test_normals_3d(self, rng):
        planes = sweep_rows(rng, 3, 5)
        normals = geometry._normals_3d(planes)
        ia, ib, ic = geometry._index_tuples(5, 3)
        for row in range(planes.shape[1]):
            pts = exact(planes[:, row].T)
            want = []
            for se, sf in product((-1, 1), repeat=2):
                for a, b, c in zip(ia, ib, ic):
                    e = [x + se * y for x, y in zip(pts[b], pts[a])]
                    f = [x + sf * y for x, y in zip(pts[c], pts[a])]
                    cross = [e[1] * f[2] - e[2] * f[1],
                             e[2] * f[0] - e[0] * f[2],
                             e[0] * f[1] - e[1] * f[0]]
                    want.append((cross, l2_square(e) * l2_square(f)))
            for c, (n, size) in enumerate(want):
                err = [F(float(normals[a, row, c])) - n[a] for a in range(3)]
                assert l2_square(err) <= (F(57, 10) * U) ** 2 * size

    def test_kept_points_slack(self):
        """(2 rho + 7.1 u) R / r2 <= mu / 2, R / r2 < d 2^12, with A2's
        rho in 3-d and rho = u, plus the degenerate edges' 2^-28, in 2-d."""
        mu = F(_PRUNE_MARGIN)
        ratio = 1 / F(_PRUNE_INRADIUS)
        rho = F(57, 10) * U / SIN_2_14_DOWN
        assert rho <= F(1, 2 ** 36)
        assert (2 * rho + F(71, 10) * U) * 3 * ratio <= mu / 2
        # 2-d: delta / r2 < 2^-28, r2 >= r_P / sqrt(2) - delta
        delta = 6 * F(_DEGENERATE_REL)
        r2 = F(_PRUNE_INRADIUS) / F(14143, 10000) - delta
        assert delta / r2 < F(1, 2 ** 28)
        assert (2 * U + F(71, 10) * U) * 2 * ratio + F(1, 2 ** 28) < F(
            1, 2 ** 27) < mu / 2

    def test_degenerate_floor(self):
        """A computed dual norm at the floor is an exact one under
        1.25e-13 s^2 (a 3-d normal's error, 5.7 u |e| |f| <= 5.7 u 12 s^2
        in l2, is at most sqrt(3) times that in a dual norm), and chi
        takes r < 0.45 M from it."""
        floor = F(_DEGENERATE_REL)
        bound = floor / (1 - gamma(4)) + SQRT3_UP * F(57, 10) * U * 12
        assert bound < F(125, 10 ** 15)
        r_bound = F(81, 10 ** 8)
        assert 27 * F(125, 10 ** 15) ** 2 <= r_bound ** 4
        assert r_bound * (1 + F(1, 2 ** 50)) < F(45, 100) * F(_ROUNDING_MARGIN)


# ---------------------------------------------------------------------------
# chi's margins


def test_chi_margins():
    big_m = F(_ROUNDING_MARGIN)
    s_over_l = 1 + F(1, 2 ** 50)
    # above: (8 rho + 20 u) s + 2^-32 s, rho = 2^-36
    above = (8 * F(1, 2 ** 36) + 20 * U + F(1, 2 ** 32)) * s_over_l
    assert above <= F(1, 2 ** 31)
    # the bounds' rounding: 2 u L, and 18 steps of 2^-46 L
    assert 2 * U + 18 * F(1, 2 ** 46) <= F(1, 2 ** 41)
    assert F(55, 100) * big_m > F(1, 2 ** 31) + F(1, 2 ** 41)
    assert 20 * U * s_over_l < F(45, 100) * big_m
    # a displacement: 2 u L + 3 u sqrt(3) |v| L + 3 u |v| L, |v| <= 2
    assert 2 * U + 3 * U * SQRT3_UP * 2 + 3 * U * 2 <= 19 * U
    assert 19 * U < F(_DISPLACEMENT_ROUNDING)


# ---------------------------------------------------------------------------
# The slice cap


class TestCapFactor:
    def test_covers_the_entry_and_the_cap(self):
        ds = list(range(1, 65)) + [1 << k for k in range(7, 21)] + [
            3 * (1 << 18), (1 << 20) - 1]
        for d in ds:
            need = (1 + gamma(d)) / ((1 - gamma(d - 1)) * (1 - U))
            assert F(cap_factor(d)) >= need

    @pytest.mark.parametrize("d", [2, 3, 4, 8])
    def test_no_entry_reaches_the_range_under_the_cap(self, rng, d):
        limit = 2.0 ** _RANGE_BITS
        mats = rng.uniform(0.5, 1.0, (2, d, d))
        mats[1] = mats[0][::-1]
        row = float(np.abs(mats).sum(axis=-1).max())
        for ulps in range(-40, 41, 3):
            top = limit / row * (1.0 + ulps * 2.0 ** -53)
            block = np.full((3, d, d), top)
            block[1] *= rng.uniform(0.999, 1.0, (d, d))
            cap = float(np.abs(mats).sum(axis=-1).max()) * float(
                np.abs(block).max())
            if cap * cap_factor(d) < limit:
                assert np.abs(_left_multiply(mats, block)).max() < limit


# ---------------------------------------------------------------------------
# The pair arithmetic, at exponents up to 2000


def value(pair) -> F:
    return F(pair[0]) * F(2) ** pair[1]


class TestPairs:
    def test_pair_is_exact(self, rng):
        for v, e in zip(rng.uniform(0, 4, 50).tolist(),
                        rng.integers(-2000, 2000, 50).tolist()):
            f, g = _pair(v, e)
            assert 0.5 <= f < 1.0 and value((f, g)) == F(v) * F(2) ** e
        assert _pair(0.0, 7) == (0.0, 7)

    def test_pair_product(self, rng):
        for _ in range(50):
            a = _pair(float(rng.uniform(0, 1)), int(rng.integers(-2000, 2000)))
            b = _pair(float(rng.uniform(0, 1)), int(rng.integers(-2000, 2000)))
            want = value(a) * value(b)
            assert abs(value(_pair_product(a, b)) - want) <= U * want

    @pytest.mark.parametrize("weight", [1.0, -1.0, -2.0, math.sqrt(3.0)])
    def test_pair_sum(self, rng, weight):
        gaps = [0, 1, 30, 53, 600, 1073, 1074, 1075, 1500]
        for gap, top in product(gaps, (-2000, 0, 2000)):
            for swap in (False, True):
                a = _pair(float(rng.uniform(0, 1)), top)
                b = _pair(float(rng.uniform(0, 1)), top - gap)
                if swap:
                    a, b = b, a
                got = value(_pair_sum(a, b, weight))
                want = max(value(a) + F(weight) * value(b), F(0))
                g = max(a[1], b[1])
                bound = 2 * U * (value(a) + abs(F(weight)) * value(b)) + (
                    1 + abs(F(weight))) * F(2) ** (g - 1075)
                assert abs(got - want) <= bound
                assert got >= 0

    def test_pair_sum_clamps_and_drops(self):
        # a negative weight that outweighs a clamps at 0
        assert _pair_sum((0.5, 10), (0.75, 10), -1.0) == (0.0, 10)
        assert _pair_sum((0.5, -2000), (0.5, -1990), -2.0)[0] == 0.0
        # a term under 2^-1074 of the other is dropped
        assert _pair_sum((0.5, 2000), (0.75, 2000 - 1076)) == (0.5, 2000)
        assert _pair_sum((0.75, -900), (0.5, 200)) == (0.5, 200)
        # a zero term leaves the other as it is
        assert _pair_sum((0.5, 3), (0.0, 0), -2.0) == (0.5, 3)
        assert _pair_sum((0.0, 0), (0.5, 3), -2.0) == (0.0, 3)

    def test_exceeds(self, rng):
        cases = [(0.5, 3, 0.5, 3), (0.75, 3, 0.5, 3), (0.5, 3, 0.75, 3),
                 (0.5, 2000, 0.75, 1999), (0.75, -2000, 0.5, -1999),
                 (0.0, 5, 0.0, -5), (0.0, 2000, 1e-300, -2000),
                 (1e-300, -2000, 0.0, 2000), (3.0, 10, 0.75, 12),
                 (3.0, 10, 0.75, 13)]
        for _ in range(50):
            cases.append((float(rng.uniform(0, 4)), int(rng.integers(-2000, 2000)),
                          float(rng.uniform(0, 4)), int(rng.integers(-2000, 2000))))
        for v, e, w, f in cases:
            assert _exceeds(v, e, w, f) == (value((v, e)) > value((w, f)))
        assert _exceeds(0.0, 0, -math.inf, 0)

    def test_in_scale(self):
        assert _in_scale(0.75, 2000, 1990) == 0.75 * 2.0 ** 10
        assert _in_scale(0.75, -2000, -1990) == 0.75 * 2.0 ** -10
        # past the float range: inf; below the normal range: 0, under the
        # floor, which prunes nothing
        assert _in_scale(0.75, 2000, 975) == math.inf
        assert _in_scale(0.75, 1024, 0) == math.ldexp(0.75, 1024)
        assert _in_scale(0.75, -2000, -978) == 0.0
        assert _in_scale(0.75, -1022, 0) == 0.0 < _SCREEN_FLOOR
        assert _in_scale(0.5, -1020, 0) == 2.0 ** -1021
        assert _in_scale(0.0, 5, 0) == 0.0
        assert _in_scale(-1.0, 5, 0) == 0.0

    def test_root(self):
        assert _root(0.5, 3000, 4) == pytest.approx(
            math.ldexp(2.0 ** 0.75, 749), rel=1e-15)
        assert _root(0.5, -3000, 4) == pytest.approx(
            math.ldexp(2.0 ** 0.75, -751), rel=1e-15)
        # the root itself leaves the float range
        assert _root(0.5, 5000, 2) == math.inf
        assert _root(0.5, -5000, 2) == 0.0
        assert _root(0.0, 5000, 3) == 0.0
        assert _root(0.75, 10, 1) == 768.0

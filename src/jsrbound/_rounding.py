"""The floating-point error model: every rounding margin, floor and term.

Floats are IEEE binary64 rounded to nearest, u = 2^-53 (``UNIT``) and
gamma_k = k u / (1 - k u).  R1-R7 and A1-A2 are the package's only
rounding arguments; other docstrings cite them.  Citations are to N. J.
Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed. (SIAM,
2002).  ``tests/test_rounding.py`` checks each lemma on floats against
``fractions.Fraction`` and derives each constant below from them.

R1 (Higham 2.2).  A +, -, *, / or sqrt with a normal result rounds it by
   a relative |delta| <= u; a product in the subnormal range is off by at
   most 2^-1075 and a sum there is exact; scaling by 2^k is exact while
   the result stays normal; rounding is monotone.
R2 (Higham 3.1, 4.2).  A sum of k terms, or a dot product of length k,
   in any order, is within gamma_k of the sum of its terms' magnitudes;
   a sum of k terms >= 0 is within gamma_(k-1) of itself.
R3 (Higham 3.5).  Q = fl(A_k ... fl(A_1 P)) of d x d matrices, summed as
   ``core._left_multiply`` sums, has |Q - A_k ... A_1 P| <= gamma_(kd)
   |A_k| ... |A_1| |P| entrywise while no product underflows: at most
   gamma_(kd) M^k ub(P) in an induced norm K, ub(X) >= || |X| ||_K,
   M >= ub(A_i).  The tail term R_k = 4 k d u M^k (``tail_term``) is at
   least 2 gamma_(kd) M^k while k d u <= 1/2.
R4 (underflow).  A walk holds products as block * 2^E, the block's
   largest entry 0 or at least 2^-(_RANGE_BITS + 1), and extends them by
   members / 2^s, 2^s <= 2 M.  A product that underflows forming level
   k + 1 is off by at most 2^(E + s - 1075) <= 2^-573 (1 + gamma) M^(k+1)
   (R1), so a level-L product moves by at most d^2 2^-572 M^L in ub for
   each level it is formed through, and U = L d^3 2^-568 M^L
   (``underflow_term``) covers 2 L levels.
R5 (cheap bounds).  The computed column-sum and row-sum norms c and r
   are within gamma_(d-1) of exact (R2); the Frobenius norm F and
   sqrt(c r), where at least _SCREEN_FLOOR / 2, within gamma_(d^2 + 2),
   and squares that underflow move F^2 by a relative d^2 2^-113 more.
R6 (kernels).  A kernel's value v on P: the l1 and linf norms are sums
   of R5; the l2 norm is within 4 d u at d <= 4 (``eigvalsh``, or
   ``core._top_eigenvalues_2x2`` with its bits); the radius is exact at
   d = 1, and at d = 2 ``core.spectral_radii`` gives v <= rho(P) +
   (sqrt(64.1 u) / 2 + 11 u) |p| < rho(P) + 5e-8 |p|, |p| the largest
   entry, as the division by |p|, the trace and the determinant move the
   discriminant of P / |p| by at most 64.1 u.  kappa = 2^-22 bounds the
   relative errors here, at d <= 2^12, and by A1 the other kernels'.
R7 (hull sweep).  A dot |w . p|, d <= 3, is within gamma_3 |w| |p| <=
   3.01 u |w| R of exact, R >= |p| in l2; so where fl(|w . q|) <
   fl((1 - mu) h^(w)), h^ the computed support and h the exact one,
   |w . q| < (1 - mu) h(w) + 7.1 u |w| R.  A dual norm is within
   gamma_(d+1), a 2-d normal's coordinate (one sum) within u, and a 3-d
   normal, the cross product of computed edges e and f, within
   5.7 u |e| |f| of the exact one.
A1 (assumed).  ``eigvals`` at d >= 3, and ``eigvalsh`` on the gram
   matrix at d > 4, are backward stable (Higham 1.5): exact for an input
   within c(d) u of theirs in norm, with c(d) u <= kappa / 2.
A2 (assumed).  In 3-d each facet of a pilot hull of
   ``geometry._kept_points`` has a vertex triangle with no angle under
   2^-14, so its computed normal is within rho <= 2^-36 relative (R7).

The constants, each checked against these:
- _RANGE_BITS = 500 (R4).  ``cap_factor`` covers the d roundings of an
  entry of M_t P and those of its cap (the largest row sum of |M_t|
  times the largest entry of P) at d <= 2^20 (R1, R2).
- _SCREEN_MARGIN mu = 2^-20, _SCREEN_FLOOR = 2^-480 (block scale): a
  value of at least the floor is at most its cheap bound times 1 + mu
  (R5, R6; R6's 5e-8 19 times over); a pass's 2 mu against mu leaves
  room for (1 + kappa)^3, R5 and a few roundings, at d <= 2^12.
- _PRUNE_MARGIN mu = 2^-20, _PRUNE_INRADIUS = 2^-12 (of a row's largest
  |coordinate| s): (2 rho + 7.1 u) d 2^12 <= mu / 2 (R7, A2).
  _DEGENERATE_REL = 1e-13: a computed dual norm of at most
  1e-13 s^(d-1) is an exact one under 1.25e-13 s^(d-1) (R7), and
  3 sqrt(3) 1.25e-13 < (0.45 _ROUNDING_MARGIN)^2.
- _ROUNDING_MARGIN M / L = 2^-19, _DISPLACEMENT_ROUNDING T / L = 2^-47,
  L = max_G ||G|| (``irreducibility.chi_measure``): 0.55 M exceeds
  2^-31 L + 2^-41 L, and T exceeds 19 u L.
"""

from __future__ import annotations

import math

UNIT = 2.0 ** -53
_RANGE_BITS = 500
_SCREEN_MARGIN = 2.0 ** -20
_SCREEN_FLOOR = 2.0 ** -480
_DEGENERATE_REL = 1e-13
_PRUNE_MARGIN = 2.0 ** -20
_PRUNE_INRADIUS = 2.0 ** -12
_ROUNDING_MARGIN = 2.0 ** -19
_DISPLACEMENT_ROUNDING = 2.0 ** -47


def tail_term(k: int, d: int) -> float:
    """R_k / M^k = 4 k d u (R3)."""
    return 4.0 * k * d * UNIT


def underflow_term(n: int, d: int) -> float:
    """U / M^n = n d^3 2^-568 (R4)."""
    return n * d ** 3 * 2.0 ** (_RANGE_BITS - 1068)


def cap_factor(d: int) -> float:
    """1 + 4 d u, the slice cap's factor (R1, R2)."""
    return 1.0 + tail_term(1, d)


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


def _pair(value: float, exponent: int) -> tuple[float, int]:
    """value * 2^exponent as (f, g) with f in [0.5, 1), or f = 0."""
    f, g = math.frexp(value)
    return f, exponent + g


def _pair_sum(a: tuple[float, int], b: tuple[float, int],
              weight: float = 1.0) -> tuple[float, int]:
    """a + weight * b for pairs, clamped at 0, within 2 u (|a| + |weight
    b|) + (1 + |weight|) 2^(g - 1075) of the exact sum, g the larger
    exponent: a term under 2^-1074 of the other is lost (R1)."""
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

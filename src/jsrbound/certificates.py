"""A-priori accuracy certificates for the norm-based upper bound.

An irreducible set with measure chi admits the two-sided enclosure

    nu^(-1/n) * ||set^n||^(1/n)  <=  rho  <=  ||set^n||^(1/n),

where nu = max(1, ||set||^p) / chi uses any certified lower bound of the
measure.  The relative width nu^(1/n) is known before enumerating a
single product, which makes step planning possible: pick the smallest n
whose width is below the requested accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import gelfand_upper
from .core import (
    DEFAULT_WORD_BUDGET,
    MatrixSet,
    NormKind,
    Record,
    _binary_scale,
    _budget_count,
    _require_budget,
    operator_norms,
)
from .errors import NoCertificateError, UnsupportedDimensionError
from .geometry import _net, _net_size
from .irreducibility import _require_lemma1_p

_EUCLID = NormKind.L2


@dataclass(frozen=True, eq=False)
class CertifiedInterval(Record):
    """A rigorous enclosure of the joint spectral radius."""

    n: int
    p: int
    kind: NormKind
    nu_p: float
    lower: float
    upper: float
    ratio: float


@dataclass(frozen=True)
class StepPlan(Record):
    """Smallest step count meeting a relative-accuracy target."""

    n: int
    products_required: int | None
    fits_budget: bool | None


@dataclass(frozen=True)
class GammaEstimate(Record):
    """Subspace-escape lower bound on the irreducibility constant.

    ``p_values[k-1]`` estimates how far the members push some vector out
    of the worst k-dimensional subspace; the product over k divided by a
    power of the set norm bounds the constant from below.  The subspace
    infimum is netted, so the estimate is heuristic unless the planar
    certified mode subtracted the Lipschitz slack.
    """

    gamma_lower: float
    p_values: tuple[float, ...]
    heuristic: bool


def _certificate(mset: MatrixSet, p: int, x: float, chi_lower: float,
                 name: str) -> float:
    """max(1, x^p) / chi_lower, once p >= d - 1 and chi_lower > 0.

    A result beyond the float range gives no certificate.
    """
    _require_lemma1_p(mset, p, "the certificate")
    if chi_lower <= 0.0:
        raise NoCertificateError(
            "no certificate: irreducibility is not established "
            "(chi lower bound is not positive; try a finer mesh)"
        )
    try:
        value = max(1.0, x ** p) / chi_lower
    except OverflowError:
        value = math.inf
    if math.isinf(value):
        raise NoCertificateError(f"no certificate: {name} overflows the floats")
    return value


def nu_p(
    mset: MatrixSet,
    p: int,
    kind: NormKind,
    chi_lower: float,
) -> float:
    """Certificate constant max(1, ||set||^p) / chi_lower.

    ``chi_lower`` must be a positive certified lower bound of the measure
    at this p; the accuracy guarantee needs p >= d - 1.
    """
    set_norm = float(np.max(operator_norms(mset.stacked(), kind)))
    return _certificate(mset, p, set_norm, chi_lower, "nu_p")


def eta_p(mset: MatrixSet, p: int, rho_estimate: float,
          chi_lower: float) -> float:
    """Diagnostic constant max(1, rho^p) / chi_lower.

    Sharper than nu_p but needs the unknown radius itself, so it only
    serves to gauge how conservative the computable certificate is.
    """
    if rho_estimate <= 0.0:
        raise ValueError("rho_estimate must be positive")
    return _certificate(mset, p, rho_estimate, chi_lower, "eta_p")


def certified_interval(
    mset: MatrixSet,
    n: int,
    p: int,
    kind: NormKind,
    chi_lower: float,
    max_words: int = DEFAULT_WORD_BUDGET,
) -> CertifiedInterval:
    """Two-sided enclosure from the length-n norm and the certificate."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    nu = nu_p(mset, p, kind, chi_lower)
    upper = gelfand_upper(mset, n, kind, max_words)
    ratio = nu ** (1.0 / n)
    return CertifiedInterval(
        n=n,
        p=p,
        kind=kind,
        nu_p=nu,
        lower=upper / ratio,
        upper=upper,
        ratio=ratio,
    )


def plan_steps(
    nu: float,
    epsilon: float,
    *,
    r: int | None = None,
    max_words: int = DEFAULT_WORD_BUDGET,
) -> StepPlan:
    """Smallest n with nu^(1/n) <= 1 + epsilon.

    When the member count r is supplied, the plan also reports whether
    r^n products fit the enumeration budget, and r^n itself while it is
    below 2^1024 (None beyond).
    """
    if not 1.0 < nu < math.inf:
        raise ValueError(f"nu must exceed 1 and be finite, got {nu}")
    if not 0.0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    if 1.0 + epsilon == 1.0:
        raise ValueError(f"epsilon {epsilon} too small: 1 + epsilon rounds to 1")
    # For small epsilon the rounded roots stay equal over long runs of n,
    # so bracket the closed form and bisect until n passes and n - 1 fails.
    lo, n = 0, max(1, math.ceil(math.log(nu) / math.log1p(epsilon)))
    while nu ** (1.0 / n) > 1.0 + epsilon:
        lo, n = n, 2 * n
    while n - lo > 1:
        mid = (lo + n) // 2
        if nu ** (1.0 / mid) <= 1.0 + epsilon:
            n = mid
        else:
            lo = mid
    if r is None:
        return StepPlan(n=n, products_required=None, fits_budget=None)
    if r < 1:
        raise ValueError("r must be a positive integer")
    _require_budget("max_words", max_words)
    exceeds, required = _budget_count(r, n, max_words)
    return StepPlan(n=n, products_required=required, fits_budget=not exceeds)


# ---------------------------------------------------------------------------
# Subspace-escape estimate (Euclidean geometry, d <= 3)


def _line_escape(stack: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """max_i dist(A_i u, span u) for each unit direction u.

    Given the transposed members it is the plane escape: sup over unit x
    in the plane with unit normal w of max_i dist(A_i x, plane) has the
    closed form max_i || proj_(w-perp) (A_i^T w) ||.
    """
    imgs = np.einsum("rab,sb->sra", stack, dirs)
    comp = np.einsum("sra,sa->sr", imgs, dirs)
    resid = imgs - comp[:, :, None] * dirs[:, None, :]
    return np.max(np.linalg.norm(resid, axis=2), axis=1)


def protasov_gamma(
    mset: MatrixSet,
    rho_upper: float | None = None,
    samples: int = 2000,
) -> GammaEstimate:
    """Netted lower estimate of the irreducibility constant (d <= 3).

    The denominator uses 2 * ||set|| unless a tighter upper bound of the
    radius is supplied.  In the plane the netted infimum over lines is
    made rigorous by a Lipschitz subtraction; in 3-d both the line and
    plane nets are reported as-is, hence heuristic.  Gamma is scale-free:
    it is evaluated on the set / 2^e and the escape values scaled back.
    """
    d = mset.dim
    if d < 2 or d > 3:
        raise UnsupportedDimensionError(
            f"the subspace-escape estimate supports d in {{2, 3}}, got d={d}"
        )
    if samples < 8:
        raise ValueError("samples must be at least 8")
    if rho_upper is not None and not 0.0 <= rho_upper < math.inf:
        raise ValueError(
            f"rho_upper must be non-negative and finite, got {rho_upper}")
    _net_size(samples, f"gamma with {samples} samples")
    e, mats = _binary_scale(mset)
    set_norm = float(np.max(operator_norms(mats, _EUCLID)))
    denominator = (2.0 * set_norm if rho_upper is None
                   else math.ldexp(rho_upper, -e) + set_norm)
    if denominator <= 0.0:
        raise NoCertificateError("the set norm must be positive")
    if d == 2:
        step = np.pi / samples
        angles = np.arange(samples) * step
        dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        net_min = float(np.min(_line_escape(mats, dirs)))
        # The escape value is Lipschitz in the direction with constant
        # at most 3 * max ||A_i||; subtracting the slack certifies it.
        p1 = max(0.0, net_min - 3.0 * set_norm * step)
        p_values = (p1,)
        heuristic = False
    else:
        verts = _sphere_for_samples(samples)
        p1 = float(np.min(_line_escape(mats, verts)))
        p2 = float(np.min(_line_escape(np.swapaxes(mats, 1, 2), verts)))
        p_values = (p1, p2)
        heuristic = True
    gamma = float(np.prod(p_values)) / denominator ** (d - 1)
    return GammaEstimate(
        gamma_lower=max(0.0, gamma),
        p_values=tuple(math.ldexp(v, e) for v in p_values),
        heuristic=heuristic,
    )


def _sphere_for_samples(samples: int) -> np.ndarray:
    """The coarsest icosphere with at least ``samples`` vertices, read-only.

    Level k has 10 * 4^k + 2 vertices and a covering radius between
    0.652 / 2^k and 0.764 / 2^k, so mesh 1.2 / 2^k gives level k, the net
    chi_measure reads at that level (``geometry._net``).
    """
    k = 0
    while 10 * 4 ** k + 2 < samples:
        k += 1
    return _net(3, NormKind.L2, 1.2 / 2 ** k).points

"""End-to-end acceptance suite: one test per shipping criterion.

Each test accumulates its checks, prints a single

    criterion NN (<slug>): PASS|FAIL

line (shown by ``pytest -v`` via captured output on failure, or with
``-s``), and only then asserts.  Tolerances are pinned here on purpose;
loosening them is a library bug, not a test bug.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time

import numpy as np

from jsrbound import (
    MatrixSet,
    NormKind,
    brute_force_interval,
    burnside_irreducible,
    certified_interval,
    chi_measure,
    indecomposable,
    kronecker_bounds,
    nu_p,
    plan_steps,
    row_sign_flip_bound,
    row_sign_flip_family,
    sandwich,
    sphere_profile,
    zero_radius_test,
)

GOLDEN_PAIR = MatrixSet.from_arrays(
    [np.array([[1.0, 1.0], [0.0, 1.0]]), np.array([[1.0, 0.0], [1.0, 1.0]])]
)
QUARTER_TURN = MatrixSet.from_arrays([np.array([[0.0, -1.0], [1.0, 0.0]])])
SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])
ROT_Z = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
ROT_X = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])

ALL_KINDS = (NormKind.L1, NormKind.L2, NormKind.LINF)


def _verdict(num: int, slug: str, failures: list[str]) -> None:
    status = "FAIL" if failures else "PASS"
    print(f"criterion {num:02d} ({slug}): {status}")
    assert not failures, "; ".join(failures[:10])


def _random_set(rng: np.random.Generator, dim: int, r: int,
                low: float = -1.0, high: float = 1.0) -> MatrixSet:
    return MatrixSet.from_arrays(
        [rng.uniform(low, high, (dim, dim)) for _ in range(r)]
    )


def test_criterion_01_sandwich_soundness():
    # Every spectral lower bound must sit below every norm upper bound,
    # across all step counts up to 6 and all three operator norms.
    rng = np.random.default_rng(101)
    failures: list[str] = []
    start = time.time()
    combos = [(d, r) for d in (2, 3) for r in (2, 3)]
    for idx in range(50):
        dim, r = combos[idx % len(combos)]
        mset = _random_set(rng, dim, r)
        for kind in ALL_KINDS:
            reports = sandwich(mset, 6, kind)
            worst_lower = max(rep.lower for rep in reports)
            best_upper = min(rep.upper for rep in reports)
            if worst_lower > best_upper + 1e-9:
                failures.append(
                    f"set {idx} {kind.value}: lower {worst_lower} "
                    f"exceeds upper {best_upper}"
                )
    elapsed = time.time() - start
    if elapsed >= 120.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds the 2 minute budget")
    _verdict(1, "sandwich soundness", failures)


def test_criterion_02_golden_pair_reference():
    failures: list[str] = []
    reports = sandwich(GOLDEN_PAIR, 8, NormKind.L2)
    best_lower = reports[-1].best_lower
    best_upper = reports[-1].best_upper
    if abs(best_lower - 1.6180339887) > 1e-6:
        failures.append(f"best_lower {best_lower!r} misses the golden ratio")
    if best_upper - best_lower >= 0.25:
        failures.append(f"gap {best_upper - best_lower} not below 0.25")
    _verdict(2, "golden pair reference", failures)


def test_criterion_03_certified_enclosure_regression():
    # For sets with a certified positive measure the certificate interval
    # must enclose the brute-force interval for every n up to 8, and its
    # width ratio must equal nu^(1/n) exactly up to float rounding.
    failures: list[str] = []
    doubled_turn = MatrixSet.from_arrays([2.0 * QUARTER_TURN.members[0]])
    rotations_3d = MatrixSet.from_arrays([ROT_Z, ROT_X])
    swap_family = row_sign_flip_family(SWAP)

    cases = []
    for name, mset, p, kind, mesh in [
        ("quarter turn", QUARTER_TURN, 1, NormKind.L2, 0.005),
        ("doubled turn", doubled_turn, 1, NormKind.L2, 0.005),
        ("golden pair", GOLDEN_PAIR, 1, NormKind.L2, 0.01),
        ("3d rotations", rotations_3d, 2, NormKind.L2, 0.02),
    ]:
        est = chi_measure(mset, p, kind, mesh)
        cases.append((name, mset, p, kind, est.certified_lower))
    # Closed-form certificate instead of a sphere sweep for the structured
    # family; the bound is rigorous for these members.
    cases.append(("swap family", swap_family, 2, NormKind.L1,
                  row_sign_flip_bound(SWAP).chi_lower))

    for name, mset, p, kind, chi_lower in cases:
        if chi_lower <= 0.0:
            failures.append(f"{name}: no certified positive measure")
            continue
        oracle = brute_force_interval(mset, 8, kind)
        nu = nu_p(mset, p, kind, chi_lower)
        for n in range(1, 9):
            ci = certified_interval(mset, n, p, kind, chi_lower)
            if ci.lower > oracle.upper + 1e-9:
                failures.append(
                    f"{name} n={n}: certified lower {ci.lower} exceeds "
                    f"oracle upper {oracle.upper}"
                )
            if oracle.lower > ci.upper + 1e-9:
                failures.append(
                    f"{name} n={n}: oracle lower {oracle.lower} exceeds "
                    f"certified upper {ci.upper}"
                )
            expected_ratio = nu ** (1.0 / n)
            if abs(ci.ratio - expected_ratio) > 1e-12 * expected_ratio:
                failures.append(f"{name} n={n}: ratio {ci.ratio} is off")
    _verdict(3, "certified enclosure regression", failures)


def test_criterion_04_rotation_reference_values():
    # The quarter-turn hull is a fixed square, so the radius profile is
    # constant and the sampled infimum equals the true measure; the
    # reference constants below follow in closed form.
    failures: list[str] = []
    _, values = sphere_profile(QUARTER_TURN, 1, NormKind.L2, 0.01)
    off = np.max(np.abs(values - math.sqrt(2.0) / 2.0))
    if off > 1e-6:
        failures.append(f"profile deviates by {off}")
    est = chi_measure(QUARTER_TURN, 1, NormKind.L2, 0.01)
    nu = nu_p(QUARTER_TURN, 1, NormKind.L2, est.sampled_inf)
    if abs(nu - math.sqrt(2.0)) > 1e-6:
        failures.append(f"nu_1 {nu!r} is not sqrt(2)")
    ci = certified_interval(QUARTER_TURN, 4, 1, NormKind.L2, est.sampled_inf)
    if abs(ci.lower - 2.0 ** (-1.0 / 8.0)) > 1e-6:
        failures.append(f"interval lower {ci.lower!r} is not 2^(-1/8)")
    if abs(ci.upper - 1.0) > 1e-6:
        failures.append(f"interval upper {ci.upper!r} is not 1")
    _verdict(4, "rotation reference values", failures)


def test_criterion_05_irreducibility_crosscheck_suite():
    # 20 sets, known ground truth, p = d - 1 at mesh 0.005.  Reducible
    # sets must sample an (almost) zero measure; Burnside-certified
    # irreducible sets must mostly certify a positive one, and any that
    # do not must at least sample a clearly positive value.
    rng = np.random.default_rng(20240229)
    failures: list[str] = []

    def reducible_pair(dim: int) -> MatrixSet:
        # Shared invariant flag hidden by a moderate similarity.
        s = np.eye(dim) + 0.3 * rng.uniform(-1, 1, (dim, dim))
        sinv = np.linalg.inv(s)
        return MatrixSet.from_arrays(
            [s @ np.triu(rng.uniform(-1, 1, (dim, dim))) @ sinv
             for _ in range(2)]
        )

    reducible = [reducible_pair(2) for _ in range(8)]
    reducible += [reducible_pair(3) for _ in range(2)]
    for i, mset in enumerate(reducible):
        est = chi_measure(mset, mset.dim - 1, NormKind.L2, 0.005)
        if est.sampled_inf > 1e-6:
            failures.append(
                f"reducible {i} d={mset.dim}: sampled {est.sampled_inf}"
            )

    irreducible: list[MatrixSet] = []
    while len(irreducible) < 8:
        mset = _random_set(rng, 2, 2)
        if burnside_irreducible(mset):
            irreducible.append(mset)
    for base in (1.0, 0.8):
        mset = MatrixSet.from_arrays([base * ROT_Z, base * ROT_X])
        if not burnside_irreducible(mset):
            failures.append(f"rotation pair scale {base} not Burnside flagged")
        irreducible.append(mset)
    certified = 0
    for i, mset in enumerate(irreducible):
        est = chi_measure(mset, mset.dim - 1, NormKind.L2, 0.005)
        if est.certified_lower > 0.0:
            certified += 1
        elif est.sampled_inf <= 1e-6:
            # Sampling near zero on a certified-irreducible set would
            # contradict the dichotomy; a coarse mesh may only be
            # inconclusive, never inconsistent.
            failures.append(
                f"irreducible {i}: sampled {est.sampled_inf} contradicts "
                "the Burnside certificate"
            )
    if certified < 8:
        failures.append(f"only {certified}/10 irreducible sets certified")
    _verdict(5, "irreducibility crosscheck suite", failures)


def test_criterion_06_kronecker_enclosure():
    rng = np.random.default_rng(606)
    failures: list[str] = []
    for idx in range(20):
        mset = _random_set(rng, 2, 2, low=0.0, high=1.0)
        oracle = brute_force_interval(mset, 5, NormKind.L2)
        for n in (1, 2, 3):
            lower, upper = kronecker_bounds(mset, n)
            if lower > oracle.upper + 1e-9:
                failures.append(
                    f"set {idx} n={n}: kron lower {lower} exceeds oracle "
                    f"upper {oracle.upper}"
                )
            if oracle.lower > upper + 1e-9:
                failures.append(
                    f"set {idx} n={n}: oracle lower {oracle.lower} exceeds "
                    f"kron upper {upper}"
                )
            expected = 2.0 ** (1.0 / n)
            if abs(upper / lower - expected) > 1e-12 * expected:
                failures.append(f"set {idx} n={n}: ratio {upper / lower}")
    _verdict(6, "kronecker enclosure", failures)


def test_criterion_07_zero_radius_equivalence():
    # The zero test must agree with the oracle producing the exact
    # interval [0, 0] at n = d, in both directions.
    rng = np.random.default_rng(707)
    failures: list[str] = []
    cases: list[tuple[str, MatrixSet, bool]] = []
    for i in range(10):
        dim = 2 + i % 2
        r = 2 + i % 2
        members = [np.triu(rng.uniform(-1, 1, (dim, dim)), 1)
                   for _ in range(r)]
        cases.append((f"triangular {i}", MatrixSet.from_arrays(members), True))
    for i in range(10):
        dim = 2 + i % 2
        cases.append((f"random {i}", _random_set(rng, dim, 2), False))
    for name, mset, expected in cases:
        flagged = zero_radius_test(mset)
        oracle = brute_force_interval(mset, mset.dim, NormKind.L2)
        pinched = oracle.lower == 0.0 and oracle.upper == 0.0
        if flagged != expected:
            failures.append(f"{name}: zero test returned {flagged}")
        if pinched != expected:
            failures.append(
                f"{name}: oracle interval [{oracle.lower}, {oracle.upper}]"
            )
    _verdict(7, "zero radius equivalence", failures)


def test_criterion_08_family_closed_forms():
    # The sign-flip family of the swap matrix has measure bound exactly
    # one half; random indecomposable invertible seeds must keep the
    # closed form below the swept measure.  Entries stay in [-1, 1],
    # where the degree-d closed form is known to hold.
    failures: list[str] = []
    swap_bound = row_sign_flip_bound(SWAP)
    if swap_bound.chi_lower != 0.5:
        failures.append(f"swap closed form {swap_bound.chi_lower!r} != 0.5")
    rng = np.random.default_rng(808)
    accepted = 0
    while accepted < 10:
        seed = rng.uniform(-1, 1, (2, 2))
        if not indecomposable(seed) or abs(np.linalg.det(seed)) < 1e-12:
            continue
        accepted += 1
        bound = row_sign_flip_bound(seed)
        if bound.chi_lower <= 0.0:
            failures.append(f"seed {accepted}: closed form not positive")
            continue
        est = chi_measure(row_sign_flip_family(seed), 2, NormKind.L1, 0.02)
        if est.sampled_inf < bound.chi_lower - 1e-6:
            failures.append(
                f"seed {accepted}: sampled {est.sampled_inf} below closed "
                f"form {bound.chi_lower}"
            )
    _verdict(8, "family closed forms", failures)


def test_criterion_09_step_plan_minimality():
    rng = np.random.default_rng(909)
    failures: list[str] = []
    for _ in range(1000):
        nu = 1.0 + 10.0 ** rng.uniform(-9.0, 6.0)
        epsilon = 10.0 ** rng.uniform(-9.0, 1.0)
        plan = plan_steps(nu, epsilon)
        n = plan.n
        if n < 1:
            failures.append(f"nu={nu} eps={epsilon}: n={n}")
        elif nu ** (1.0 / n) > 1.0 + epsilon:
            failures.append(f"nu={nu} eps={epsilon}: n={n} misses target")
        elif n > 1 and nu ** (1.0 / (n - 1)) <= 1.0 + epsilon:
            failures.append(f"nu={nu} eps={epsilon}: n={n} not minimal")
    _verdict(9, "step plan minimality", failures)


def test_criterion_10_cli_determinism(tmp_path):
    failures: list[str] = []
    path = tmp_path / "golden.json"
    path.write_text(json.dumps({
        "dim": 2,
        "matrices": [[[1, 1], [0, 1]], [[1, 0], [1, 1]]],
    }))
    commands = [
        ["bound", "--input", str(path), "--n-max", "6"],
        ["chi", "--input", str(path), "--mesh", "0.01"],
        ["certify", "--input", str(path), "--n", "4", "--mesh", "0.01"],
    ]
    for argv in commands:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "jsrbound.cli", *argv],
                capture_output=True,
            )
            for _ in range(2)
        ]
        for run in runs:
            if run.returncode != 0:
                failures.append(f"{argv[0]}: exit {run.returncode}")
        if runs[0].stdout != runs[1].stdout:
            failures.append(f"{argv[0]}: output differs between runs")
    _verdict(10, "cli determinism", failures)

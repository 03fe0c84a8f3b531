"""Seeded task lists for the three benchmark workloads.

A task is one CLI call: a subcommand, its extra arguments and the matrix
set written to its ``--input`` file.  Every input is built from the seed
by construction; jsrbound is never asked which sets to use.

Sets that drive enumeration, sphere sweeps or the quality metrics are
fixed base sets (uniform[-1,1] draws from the fixed ``BASE_STREAM``,
never selected by their results, or fixed rotations) presented under a
seeded change of basis Q A Q^T and a seeded member order.  Q is an
isometry of the task's norm that maps jsrbound's sphere net onto itself,
so norms, spectral radii, the measure and the work of a sweep do not
change with the seed while the program still gets different numbers.
Without this, refinement work and the quality metrics of random sets
vary by tens of percent from seed to seed.  Sets whose work does not
depend on their values (gamma, example, zero-test, kronecker) are drawn
from the seed directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

BASE_STREAM = 20260101

WORKLOADS = ("enum", "chi", "calls")

# One `calls` pass is CALLS_ROUNDS rounds of 14 calls each: at least 200
# calls, so that at least 10 lie beyond the 95th percentile.
CALLS_ROUNDS = 15
SMOKE_CALLS_ROUNDS = 1


@dataclass(frozen=True)
class Task:
    """One CLI call.  ``expect`` holds facts known from the construction."""

    command: str
    args: tuple[str, ...] = ()
    matrices: np.ndarray | None = None
    expect: dict = field(default_factory=dict)

    def argv(self, input_path: str | None, output_path: str) -> list[str]:
        out = [self.command, *self.args]
        if input_path is not None:
            out += ["--input", input_path]
        return out + ["--output", output_path]

    def arg(self, name: str, default=None):
        """The value following ``name`` in the argument list."""
        if name in self.args:
            return self.args[self.args.index(name) + 1]
        return default


def input_doc(matrices: np.ndarray) -> dict:
    return {"dim": int(matrices.shape[-1]),
            "matrices": [m.tolist() for m in matrices]}


# ---------------------------------------------------------------------------
# Building blocks


def _base_uniform(tag, d: int, r: int) -> np.ndarray:
    return np.random.default_rng([BASE_STREAM, *tag]).uniform(
        -1.0, 1.0, (r, d, d))


def _net_isometry(rng: np.random.Generator, d: int, norm: str) -> np.ndarray:
    """A seeded isometry of ``norm`` that maps the sphere net onto itself.

    The l1 and linf nets (polytope faces walked on a grid) are invariant
    under every signed permutation; the icosphere under sign changes and
    cyclic shifts of the axes; the circle net (angles 2 pi k / count)
    only under y -> -y.  Signed permutations preserve all three norms,
    so they also serve dimensions without a net.
    """
    signs = rng.choice([-1.0, 1.0], d)
    if norm == "l2" and d == 2:
        return np.diag([1.0, signs[1]])
    if norm == "l2" and d == 3:
        return signs[:, None] * np.roll(np.eye(3), rng.integers(3), axis=0)
    return signs[:, None] * np.eye(d)[rng.permutation(d)]


def _present(rng: np.random.Generator, mats: np.ndarray,
             norm: str) -> np.ndarray:
    """Q A_i Q^T for a seeded net isometry Q, in a seeded member order."""
    q = _net_isometry(rng, mats.shape[-1], norm)
    out = np.einsum("ab,rbc,dc->rad", q, mats, q)
    return out[rng.permutation(mats.shape[0])]


def _uniform(rng: np.random.Generator, d: int, r: int) -> np.ndarray:
    return rng.uniform(-1.0, 1.0, (r, d, d))


def _rotation(axis, angle: float) -> np.ndarray:
    a = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
    k = np.array([[0.0, -a[2], a[1]], [a[2], 0.0, -a[0]],
                  [-a[1], a[0], 0.0]])
    return np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)


# Rotations about two skew axes, neither by a multiple of pi, share no
# invariant subspace; planar rotations by 1.0 and 2.2 rad share no real
# invariant line.  Both pairs are irreducible by construction.
ROTATION_PAIR_3D = np.stack([_rotation([0.0, 0.0, 1.0], 1.23),
                             _rotation([1.0, 0.0, 0.0], 1.01)])
ROTATION_PAIR_2D = np.array([[[math.cos(t), -math.sin(t)],
                              [math.sin(t), math.cos(t)]] for t in (1.0, 2.2)])


def _hidden_reducible_pair(tag) -> np.ndarray:
    """An upper-triangular pair under a well-conditioned similarity S."""
    rng = np.random.default_rng([BASE_STREAM, *tag])
    tri = np.triu(rng.uniform(-1.0, 1.0, (2, 2, 2)))
    s = np.eye(2) + 0.5 * rng.uniform(-1.0, 1.0, (2, 2))
    return np.einsum("ab,rbc,cd->rad", s, tri, np.linalg.inv(s))


def _nilpotent_set(rng: np.random.Generator, d: int, r: int) -> np.ndarray:
    """Strictly upper-triangular members: every length-d product is 0."""
    return np.triu(rng.uniform(-1.0, 1.0, (r, d, d)), k=1)


def _nonnegative(rng: np.random.Generator, d: int, r: int) -> np.ndarray:
    return rng.uniform(0.0, 1.0, (r, d, d))


# ---------------------------------------------------------------------------
# Workloads


def enum_tasks(seed: int) -> list[Task]:
    """`bound` on four sets across the materialization switch.

    The first three stay within 2^22 product floats.  The final level of
    the last one (2^17 words of 6x6, 2^17 * 36 floats) runs on the
    streamed generator.  A 3x3 pair would stream only from 2^19 words,
    about 10 s for that level alone, too long for several passes per run.
    """
    specs = [(2, 2, 19, "l2"), (3, 3, 11, "l1"), (2, 4, 10, "linf"),
             (6, 2, 17, "l2")]
    rng = np.random.default_rng([seed, 1])
    tasks = [
        Task("bound", ("--n-max", str(n), "--norm", norm),
             _present(rng, _base_uniform((1, k), d, r), norm))
        for k, (d, r, n, norm) in enumerate(specs)
    ]
    # Feeds cert_log_ratio: 2^19 enumerated words and a 315-point circle.
    tasks.append(Task("certify", ("--p", "1", "--norm", "l2", "--mesh",
                                  "0.02", "--n", "19"),
                      _present(rng, ROTATION_PAIR_2D, "l2")))
    return tasks


def chi_tasks(seed: int) -> list[Task]:
    """One certify, two polyhedral chi nets and three crosschecks."""
    rng = np.random.default_rng([seed, 2])
    return [
        Task("certify", ("--p", "2", "--norm", "l2", "--mesh", "0.01",
                         "--n", "6"), _present(rng, ROTATION_PAIR_3D, "l2")),
        Task("chi", ("--norm", "l1", "--mesh", "0.04"),
             _present(rng, _base_uniform((2, 1), 3, 2), "l1")),
        Task("chi", ("--norm", "linf", "--mesh", "0.04"),
             _present(rng, _base_uniform((2, 2), 3, 2), "linf")),
        # About 40 reach products: a dense pair sweep.
        Task("irreducible", ("--p", "3", "--norm", "l2", "--mesh", "0.005"),
             _present(rng, _base_uniform((2, 3), 2, 3), "l2")),
        # Refinement evaluates several times the 642-point net.
        Task("irreducible", ("--p", "2", "--norm", "l2", "--mesh", "0.1"),
             _present(rng, _base_uniform((2, 4), 3, 3), "l2")),
        Task("irreducible", ("--norm", "l2", "--mesh", "0.005"),
             _present(rng, _hidden_reducible_pair((2, 5)), "l2"),
             {"reducible": True}),
        # Feeds bound_gap: 126 words, no geometry.
        Task("bound", ("--n-max", "6", "--norm", "l2"),
             _present(rng, _base_uniform((2, 6), 3, 2), "l2")),
    ]


def _calls_round(rng: np.random.Generator, k: int) -> list[Task]:
    """Every subcommand once or twice on small sets; round k of a pass."""
    d = 2 + k % 2
    small = _present(rng, _base_uniform((3, 1, k), d, d), "l2")
    n_max = "6" if d == 2 else "4"
    pair = {"pair": k}
    nu = float(rng.uniform(2.0, 50.0))
    return [
        Task("bound", ("--n-max", n_max, "--norm", "l2"), small, pair),
        Task("oracle", ("--n-max", n_max, "--norm", "l2"), small, pair),
        Task("chi", ("--norm", "l2", "--mesh", "0.02"),
             _present(rng, _base_uniform((3, 2, k), 2, 3), "l2")),
        Task("chi", ("--norm", "linf", "--mesh", "0.2"),
             _present(rng, _base_uniform((3, 3, k), 3, 2), "linf")),
        Task("irreducible", ("--norm", "l1", "--mesh", "0.02"),
             _present(rng, _base_uniform((3, 4, k), 2, 2), "l1")),
        Task("irreducible", ("--norm", "l2", "--mesh", "0.02"),
             _present(rng, _hidden_reducible_pair((3, 5, k)), "l2"),
             {"reducible": True}),
        Task("certify", ("--p", "1", "--norm", "l2", "--mesh", "0.02",
                         "--n", "6"), _present(rng, ROTATION_PAIR_2D, "l2")),
        Task("plan", ("--nu", repr(nu), "--epsilon", "0.05", "--r", "2")),
        Task("gamma", ("--samples", "400"), _uniform(rng, d, 2)),
        Task("example", ("p",), _uniform(rng, 3, 1)),
        Task("example", ("v",), _uniform(rng, 3, 1)),
        Task("zero-test", (), _nilpotent_set(rng, 3, 2),
             {"zero_radius": True}),
        Task("zero-test", (), _uniform(rng, 3, 2), {"zero_radius": False}),
        Task("kronecker", ("--n", "3"), _nonnegative(rng, 2, 2)),
    ]


def calls_tasks(seed: int, rounds: int = CALLS_ROUNDS) -> list[Task]:
    rng = np.random.default_rng([seed, 3])
    return [t for k in range(rounds) for t in _calls_round(rng, k)]


def tasks_for(workload: str, seed: int, smoke: bool = False) -> list[Task]:
    if workload == "enum":
        tasks = enum_tasks(seed)
    elif workload == "chi":
        tasks = chi_tasks(seed)
    elif workload == "calls":
        tasks = calls_tasks(seed, SMOKE_CALLS_ROUNDS if smoke else CALLS_ROUNDS)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [shrink(t) for t in tasks] if smoke else tasks


# ---------------------------------------------------------------------------
# Reduced sizes for warm-up calls and smoke runs

# Smoke runs: small enough for the self-tests, large enough that every
# construction fact in ``expect`` still holds.
_SMOKE = {"--n-max": lambda v, d: min(int(v), 3),
          "--n": lambda v, d: min(int(v), 3),
          "--p": lambda v, d: min(int(v), d - 1),
          "--mesh": lambda v, d: max(float(v), 0.1),
          "--samples": lambda v, d: min(int(v), 100)}

# Warm-up calls: the smallest sizes that still take each subcommand's
# whole path, so that set-up time is import and first-call set-up, not
# geometry.  certify needs p >= d - 1 and a mesh that still certifies
# the rotation pairs (0.2); every other sweep takes mesh 0.5.
_WARMUP = {"--n-max": lambda v, d: 1,
           "--n": lambda v, d: 1,
           "--p": lambda v, d: min(int(v), d - 1),
           "--mesh": lambda v, d: 0.5,
           "--samples": lambda v, d: 10}
_WARMUP_CERTIFY = {**_WARMUP, "--mesh": lambda v, d: 0.2}


def shrink(task: Task, sizes: dict = _SMOKE) -> Task:
    """The same call at a small size: at most two members and the
    argument values that ``sizes`` maps them to."""
    if task.matrices is None:
        return task
    mats = task.matrices[:2]
    d = mats.shape[-1]
    args = list(task.args)
    for i in range(len(args) - 1):
        if args[i] in sizes:
            args[i + 1] = str(sizes[args[i]](args[i + 1], d))
    return replace(task, args=tuple(args), matrices=mats)


def warmup_tasks(tasks: list[Task]) -> list[Task]:
    """The first task of each subcommand at its smallest size."""
    seen: dict[str, Task] = {}
    for t in tasks:
        seen.setdefault(t.command, t)
    return [shrink(t, _WARMUP_CERTIFY if t.command == "certify" else _WARMUP)
            for t in seen.values()]

"""Machine-speed samples taken next to and during every timed call.

The benchmark runs on a shared machine whose CPU speed swings by tens of
percent over seconds to minutes, as other tenants come and go.  Runs of
the same work then differ by 20-30%, more than any bound a regression
check can use.  The swings differ from CPU to CPU: a sampler process on
the other CPU did not follow them.  So the samples are taken in the
benchmark process itself, which run.py pins to one CPU.

So every timed call is bracketed by runs of a fixed reference kernel
(plain Python and numpy, no jsrbound code), and a call that lasts longer
than ``INTERVAL_S`` is interrupted every ``INTERVAL_S`` by a timer signal
whose handler runs the kernel once more.  The handler's own time is
taken out of the call's time.  A call's speed factor is the mean kernel
time of those samples over ``REFERENCE_S``, and its normalized time is
its measured time divided by that factor: the time the call would take
on this machine when the kernel takes ``REFERENCE_S``.  A change to
jsrbound moves the normalized time as it moves the measured one, while
a swing of the machine moves the kernel too and cancels.

Python runs signal handlers between bytecodes, so a sample due during a
long numpy call is taken when that call returns.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# Seconds between samples inside a call.
INTERVAL_S = 0.05

# Kernel time that defines normalized seconds: about the median kernel
# time on a 2-vCPU Intel Xeon virtual machine (Python 3.11, numpy 2.4,
# one OpenBLAS thread).
REFERENCE_S = 1.7e-3

_rng = np.random.default_rng(20260101)
_PAIR = _rng.uniform(-1.0, 1.0, (2, 3, 3))
_STACK = _rng.uniform(-1.0, 1.0, (300, 3, 3))
_POINTS = _rng.uniform(-1.0, 1.0, (150, 12, 3))


def kernel() -> None:
    """Fixed work in the proportions the program runs it: an interpreted
    loop, a batched product and eigenvalue step as in enumeration, and a
    support sweep as in the sphere profiles."""
    acc = 0
    for i in range(1500):
        acc += i * i % 7
    stack = np.einsum("tab,jbc->jtac", _PAIR, _STACK).reshape(-1, 3, 3)
    np.linalg.eigvalsh(np.einsum("...ba,...bc->...ac", stack, stack))
    support = np.zeros(_POINTS.shape[:2])
    for i in range(_POINTS.shape[1]):
        np.maximum(support, np.abs(np.einsum("sca,sa->sc", _POINTS,
                                             _POINTS[:, i, :])),
                   out=support)


def timed_kernel() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class SpeedSampler:
    """Kernel samples around and inside timed calls.

    ``around(fn)`` runs ``fn()`` between two kernel samples, with the
    timer armed while it runs, and returns ``(result, measured_s,
    factor)``: ``measured_s`` excludes the time spent in the handler,
    and ``factor`` is the mean kernel time over ``REFERENCE_S``.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._inside: list[tuple[float, float, float]] = []

    def _on_timer(self, signum, frame) -> None:
        t0 = time.perf_counter()
        kernel_s = timed_kernel()
        self._inside.append((kernel_s, t0, time.perf_counter()))

    def around(self, fn):
        before = timed_kernel()
        self._inside = []
        previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            t1 = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        # A handler that ran while the clock was read counts only for
        # the part of it inside [t0, t1].
        handler_s = sum(max(0.0, min(h1, t1) - max(h0, t0))
                        for _, h0, h1 in self._inside)
        after = timed_kernel()
        taken = [before, *(k for k, _, _ in self._inside), after]
        self.samples.extend(taken)
        factor = statistics.fmean(taken) / REFERENCE_S
        return result, t1 - t0 - handler_s, factor

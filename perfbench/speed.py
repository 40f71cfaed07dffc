"""Timing scaled to a reference machine speed.

The benchmark was built on a shared machine whose speed drops by a factor
of 1.5-1.75 for stretches of several seconds (in CPU time as well, so this
is not waiting for the processor).  A run of 25 s can fall wholly inside
one such stretch, so no statistic over repeats inside a run removes it.
``timed`` therefore runs a small fixed kernel before, during (on a timer
signal) and after the timed call, and scales the call's time by the
kernel's reference time over its median time: a call that took 1.5 s while
the kernel ran 1.5x slower than its reference reads 1.0 s.  The kernel's
own time is taken out of the call's time.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import Any, Callable

import numpy as np

# the reference speed: the kernel takes 1 ms (on the machine above it takes
# 0.7-0.8 ms in fast stretches and 1.3-1.4 ms in slow ones)
REFERENCE_S = 0.001
INTERVAL_S = 0.1

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((16, 16)) + 0j
_V = _rng.standard_normal(16) + 0j


def kernel() -> float:
    """A fixed mix of interpreter work and small numpy calls; its seconds."""
    start = time.perf_counter()
    x = _V
    for _ in range(200):
        x = _A @ x
        x = x / np.linalg.norm(x)
    return time.perf_counter() - start


def timed(fn: Callable[[], Any]) -> tuple[Any, float, float]:
    """Run fn; return (its result, its seconds, its seconds at reference speed).

    An exception from fn propagates after the timer is stopped.
    """
    samples = [kernel()]

    def tick(_signum, _frame):
        samples.append(kernel())

    previous = signal.signal(signal.SIGALRM, tick)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    start = time.perf_counter()
    try:
        out = fn()
    finally:
        end = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    seconds = end - start - sum(samples[1:])
    samples.append(kernel())
    return out, seconds, seconds * REFERENCE_S / statistics.median(samples)

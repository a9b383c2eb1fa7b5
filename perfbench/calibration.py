"""Machine-speed calibration for the benchmark's timings.

The benchmark runs on shared machines whose speed drifts by a quarter or
more, both from one tenth of a second to the next and over minutes, which
would swamp the changes it exists to measure. So a fixed piece of
pure-Python work in the program's style (exact rationals in dicts, built
from builtins only, so that timing it imports nothing the program imports)
is timed before a call, every SAMPLE_EVERY_S seconds during it (from a
SIGALRM handler, whose time is taken off the call's) and after it. A call
that took `t` seconds while the kernel took `k` seconds on average is
reported as `t * REFERENCE_S / k` reference seconds: the time it would take
on a machine that runs the kernel in REFERENCE_S. Callers record the wall
time beside it.
"""

from __future__ import annotations

import gc
import signal
import time
from math import gcd

# About the median kernel time on a 2-vCPU Intel Xeon VM (2.1 GHz) with
# Python 3.11, so reference seconds read close to wall seconds there.
REFERENCE_S = 0.00035
SAMPLE_EVERY_S = 0.02


def _kernel() -> dict:
    acc: dict = {}
    for i in range(600):
        key = (i % 7, i % 11)
        num, den = acc.get(key, (0, 1))
        num, den = 3 * num + (i % 5 - 2) * den, 3 * den
        g = gcd(num, den)
        acc[key] = (num // g, den // g)
    return acc


def kernel_seconds() -> float:
    """Time one kernel run, with the collector off so the heap size of
    whatever ran before cannot change the reading."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def timed_call(fn) -> tuple[float, float]:
    """Run `fn()` and return its (wall seconds, reference seconds).

    Both exclude the time spent sampling the kernel during the call.
    """
    samples = [kernel_seconds() for _ in range(3)]
    sampling_s = 0.0

    def sample(signum, frame):
        nonlocal sampling_s
        start = time.perf_counter()
        samples.append(kernel_seconds())
        sampling_s += time.perf_counter() - start

    previous = signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    start = time.perf_counter()
    try:
        fn()
    finally:
        wall = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, previous)
    wall -= sampling_s
    samples += [kernel_seconds() for _ in range(3)]
    return wall, wall * REFERENCE_S * len(samples) / sum(samples)

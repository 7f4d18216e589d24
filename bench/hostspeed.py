"""Host speed: a fixed reference kernel timed next to every solve.

The CPU the benchmark gets on a shared host changes speed by up to 1.8x in
phases of seconds to minutes; process CPU time changes with it, so it is the
CPU that slows, not the scheduler. A fixed kernel slows by the same factor:
on one 2-core host, the 5 s medians of repeated deploy solves varied by a
factor of 1.7 within 90 s, while their ratio to each part of this kernel,
timed next to them, stayed within 0.95-1.08 of its median.

HostClock times the kernel before and after every solve and, while a long
solve runs, every INTERVAL_S from a SIGALRM handler. A solve's wall seconds
less the handler's time, scaled by REFERENCE_S times the mean kernel speed
within WINDOW_S of the solve, give the solve's seconds at reference speed:
the wall seconds on a host where the kernel takes REFERENCE_S.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from typing import List, Tuple

import numpy as np

REFERENCE_S = 0.015  # kernel seconds at the reference speed
INTERVAL_S = 0.5  # sampling period inside a solve
WINDOW_S = 1.0  # samples this close to a solve set its speed

_POINTS = np.linspace(0.0, 1.0, 300).reshape(100, 3)


def reference_kernel() -> float:
    """Fixed mix of the work uavirs does: small-array numpy calls, numpy
    scalar math and plain Python float math, in about equal shares."""
    points = _POINTS.copy()
    total = 0.0
    for _ in range(300):
        lengths = np.linalg.norm(np.diff(points, axis=0), axis=1)
        total += float(lengths.max())
        points[1:-1] *= 0.9999
    x = np.float64(1.5)
    for i in range(3000):
        total += float(np.sqrt(x * i + 1.0)) + abs(np.cos(x))
    for i in range(20000):
        total += math.sqrt(i) * 1e-6 + math.log1p(i)
    return total


class HostClock:
    """Times the reference kernel; converts wall seconds to reference seconds."""

    def __init__(self, timer: bool):
        self.timer = timer  # sample inside solves too
        self.samples: List[Tuple[float, float]] = []  # (start, kernel seconds)
        reference_kernel()  # warm up numpy's first calls

    def sample(self) -> None:
        start = time.perf_counter()
        reference_kernel()
        self.samples.append((start, time.perf_counter() - start))

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def timed(self, call):
        """Run call(); returns (its result, start, end, seconds the handler took)."""
        self.sample()
        first = len(self.samples)
        if self.timer:
            previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            start = time.perf_counter()
            result = call()
            end = time.perf_counter()
        finally:
            if self.timer:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                signal.signal(signal.SIGALRM, previous)
        paused = sum(s for t, s in self.samples[first:] if t < end)
        self.sample()
        return result, start, end, paused

    def speed_factor(self, start: float, end: float) -> float:
        """REFERENCE_S times the mean kernel speed within WINDOW_S of [start, end].

        Samples inside a solve are evenly spaced in time, so the mean of their
        speeds, 1 / kernel seconds, is the mean speed over the solve.
        """
        near = [s for t, s in self.samples if start - WINDOW_S <= t <= end + WINDOW_S]
        return REFERENCE_S / statistics.harmonic_mean(near)

    def reference_seconds(self, start: float, end: float, paused: float) -> float:
        return (end - start - paused) * self.speed_factor(start, end)

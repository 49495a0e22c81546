"""Timings corrected for the host's momentary speed.

The benchmark host is shared: a fixed pure-Python loop timed in 2 s buckets
over one minute read 0.88-1.51 times its median, and whole runs were up to
1.8 times slower than others a minute apart.  Such slowdowns hit the
interpreter as a whole, so the clock below times a small fixed kernel from
a timer signal every ``PERIOD_S`` while the program runs, subtracts the
time the kernel took, and scales each interval by how much slower than
``KERNEL_REF_S`` the kernel ran around it.  The result reads as seconds on
the host at its reference speed.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from dataclasses import dataclass
from fractions import Fraction

PERIOD_S = 0.05
# Slowdowns last seconds, so an interval is corrected with the samples
# within half a second of it: about 20 kernel times, enough to average out
# the kernel's own jitter.
WINDOW_S = 0.5
# The kernel's typical time on the defining host (Python 3.11.7, 2.1 GHz
# Xeon) when it was quiet.  It only sets the unit of the corrected times.
KERNEL_REF_S = 0.0009


def kernel() -> int:
    """A fixed mix of the work the solvers do: rationals, tuples, dicts."""
    acc = Fraction(0)
    seen: dict[tuple, int] = {}
    for k in range(1, 200):
        acc += Fraction(k % 7 - 3, k % 11 + 1)
        key = (k % 13, k % 17, acc > 0)
        seen[key] = seen.get(key, 0) + 1
    return len(seen)


@dataclass(frozen=True)
class Interval:
    start: float
    end: float
    raw_s: float  # wall time minus the time spent in the kernel


class SpeedClock:
    """Context manager that samples the kernel while it is open.

    With ``sample=False`` it only measures wall time and ``corrected``
    returns the raw time.
    """

    def __init__(self, sample: bool = True) -> None:
        self.sample = sample
        self._times: list[float] = []
        self._kernel_s: list[float] = []
        self._spent = 0.0
        self._previous = None

    def __enter__(self) -> "SpeedClock":
        if self.sample:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.sample:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self._times.append(start)
        self._kernel_s.append(end - start)
        self._spent += time.perf_counter() - start

    def mark(self) -> tuple[float, float]:
        return time.perf_counter(), self._spent

    def since(self, mark: tuple[float, float]) -> Interval:
        start, spent = mark
        end = time.perf_counter()
        return Interval(start, end, end - start - (self._spent - spent))

    def corrected(self, interval: Interval) -> float:
        """``interval`` in reference seconds, from the kernel times around it.

        Call it once the clock is closed, so samples after the interval exist.
        """
        lo = bisect.bisect_left(self._times, interval.start - WINDOW_S)
        hi = bisect.bisect_right(self._times, interval.end + WINDOW_S)
        near = self._kernel_s[lo:hi]
        if not near:
            return interval.raw_s
        return interval.raw_s * KERNEL_REF_S / statistics.fmean(near)

"""Express measured durations in units of a fixed reference loop.

The CPU speed of a shared host changes by up to half within seconds, as
other tenants come and go, and it changes every timing of a pass by the same
factor.  A ``Pace`` runs a fixed reference loop from a ``SIGALRM`` timer
every ``PERIOD_S`` seconds while the pass runs (in the main thread, between
bytecodes; no thread is started) and records when each probe ran and how
long it took.  ``ref(a, b)`` then divides every stretch of ``[a, b]``
between two probes by the reference loop's duration around that stretch, so
a slow stretch counts as slow and the result is the interval's length in
reference-loop units.  The duration around a stretch is the median of the
nearest ``WINDOW`` probes, so one probe that ran unusually fast or slow does
not skew the cases next to it.  ``raw(a, b)`` is the plain duration.  Both
exclude the probes' own time.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.05
WINDOW = 5
# Set-up time is reported in seconds at the speed where one reference loop
# takes this long, so that it can be compared across changes of host speed.
NOMINAL_S = 0.001


def reference_loop() -> int:
    """Fixed dict, tuple and ``Fraction`` work, like the package's own kernels."""
    acc: dict = {}
    for i in range(300):
        key = (i % 17, (i * 7) % 13)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i, 3)
    return len(acc)


class Pace:
    def __init__(self):
        self.starts: list = []
        self.ends: list = []
        self._units: list = []
        self._previous = None

    def probe(self, *_):
        a = time.perf_counter()
        reference_loop()
        self.starts.append(a)
        self.ends.append(time.perf_counter())

    def __enter__(self):
        self.probe()
        self._previous = signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.probe()
        self.smooth()
        return False

    def smooth(self):
        """Set each probe's unit to the median duration of the nearest probes."""
        n = len(self.starts)
        d = [e - s for s, e in zip(self.starts, self.ends)]
        first = [max(0, min(j - WINDOW // 2, n - WINDOW)) for j in range(n)]
        self._units = [statistics.median(d[f:f + WINDOW]) for f in first]

    def _unit(self, i: int) -> float:
        return self._units[min(max(i, 0), len(self._units) - 1)]

    def raw(self, a: float, b: float) -> float:
        """Seconds in ``[a, b]`` not spent in probes."""
        lo = bisect.bisect_left(self.starts, a)
        hi = bisect.bisect_left(self.starts, b)
        return (b - a) - sum(self.ends[i] - self.starts[i] for i in range(lo, hi))

    def ref(self, a: float, b: float) -> float:
        """Reference-loop units in ``[a, b]``, probes excluded.

        Each stretch between consecutive probes is divided by the mean of
        the smoothed durations of the probes on either side of it.
        """
        lo = bisect.bisect_left(self.starts, a)
        hi = bisect.bisect_left(self.starts, b)
        total, x = 0.0, a
        for i in range(lo, hi + 1):
            y = self.starts[i] if i < hi else b
            total += (y - x) / ((self._unit(i - 1) + self._unit(i)) / 2)
            if i < hi:
                x = self.ends[i]
        return total

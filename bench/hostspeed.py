"""Host-speed calibration for the end-to-end times.

The benchmark runs on shared machines whose CPU speed, seen from one
process, drifts by up to a factor of two over minutes and by tens of
percent within one operation of a few seconds; a 30 s run cannot average
that out.  So while a run measures, a timer signal interrupts it every
PERIOD_S to run a short slice of fixed interpreter-bound work (a tiny
tree-walking evaluator, the kind of code parasym spends its time in), about
1% of the run.  A measured time minus the slices inside it, multiplied by
`factor(...)` (the nominal slice time over the mean of the slices measured
during it), is the time at the nominal host speed.  The slices never call
parasym, so a change to parasym cannot move them.
"""

from __future__ import annotations

import bisect
import math
import signal
from time import perf_counter

# Mean slice time on a 2.1 GHz Xeon (2-vCPU VM), Python 3.11.
NOMINAL_SLICE_S = 0.0004
PERIOD_S = 0.05
WINDOW_S = 0.25           # slices this close to an interval describe it

_TREE = ("add", ("mul", ("x",), ("x",)), ("exp", ("neg", ("x",))))


def _ev(e, x):
    k = e[0]
    if k == "x":
        return x
    if k == "add":
        return _ev(e[1], x) + _ev(e[2], x)
    if k == "mul":
        return _ev(e[1], x) * _ev(e[2], x)
    if k == "neg":
        return -_ev(e[1], x)
    return math.exp(_ev(e[1], x))


class HostSpeed:
    """Context manager that samples the host speed while it is active."""

    def __init__(self):
        self.ends = []            # perf_counter() at the end of each slice
        self.sums = [0.0]         # prefix sums of slice durations
        self._previous = None

    def _slice(self, _signum=None, _frame=None):
        start = perf_counter()
        for i in range(500):
            _ev(_TREE, i * 1e-3)
        end = perf_counter()
        self.ends.append(end)
        self.sums.append(self.sums[-1] + end - start)

    def __enter__(self):
        self._slice()
        self._previous = signal.signal(signal.SIGALRM, self._slice)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._slice()

    def _range(self, start, end, margin):
        return (bisect.bisect_left(self.ends, start - margin),
                bisect.bisect_right(self.ends, end + margin))

    def busy(self, start, end):
        """Time spent in slices that ended within [start, end]."""
        lo, hi = self._range(start, end, 0.0)
        return self.sums[hi] - self.sums[lo]

    def factor(self, start=None, end=None):
        """Nominal over measured slice time, from the slices within WINDOW_S
        of [start, end], or from all slices."""
        lo, hi = 0, len(self.ends)
        if start is not None:
            lo, hi = self._range(start, end, WINDOW_S)
        return NOMINAL_SLICE_S * (hi - lo) / (self.sums[hi] - self.sums[lo])

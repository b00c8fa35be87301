"""A clock that corrects wall time for the host's momentary CPU speed.

On a shared virtual machine the same pure-Python work can take up to
about 1.8x longer while other tenants load the host.  The speed changes
within milliseconds and its average drifts over minutes, longer than one
benchmark run, so averaging within a run cannot remove it.  The
benchmark measures the host's speed alongside the work instead: while a
`SpeedClock` runs, a timer signal every INTERVAL_S runs a small fixed
pure-Python kernel and records how long it took.  `corrected(t0, t1)`
returns the wall time of [t0, t1] minus the kernel runs inside it, times
the mean of KERNEL_REF_S / (kernel time) over the samples taken inside
the interval (the two on each side when it holds fewer than two).  The
result is in reference seconds: the time the work would take on a host
where the kernel runs in exactly KERNEL_REF_S.  A change to the library
moves it like wall time; a change of host speed does not.
"""

from __future__ import annotations

import bisect
import signal
import time

INTERVAL_S = 0.005
KERNEL_STEPS = 300
KERNEL_REF_S = 0.00015


def kernel() -> int:
    """Fixed pure-Python work: tuple shuffling, modular ints, dict traffic."""
    acc = 0
    table: dict[int, int] = {}
    v = (1, 2, 3)
    for i in range(KERNEL_STEPS):
        v = (v[1], v[2], (v[0] * 31 + i) % 65521)
        table[v[2] & 127] = acc
        acc += table.get(i & 127, 0) & 7
    return acc


class SpeedClock:
    def __init__(self):
        self.starts: list[float] = []  # start of each kernel run
        self.ends: list[float] = []
        self._old = None

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        kernel()
        self.starts.append(t0)
        self.ends.append(time.perf_counter())

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._sample(None, None)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)

    def busy(self, t0: float, t1: float) -> float:
        """Wall seconds of [t0, t1] minus the kernel runs inside it."""
        starts, ends = self.starts, self.ends
        busy = t1 - t0
        for j in range(bisect.bisect_left(ends, t0), len(starts)):
            if starts[j] >= t1:
                break
            busy -= min(ends[j], t1) - max(starts[j], t0)
        return busy

    def corrected(self, t0: float, t1: float) -> float:
        """Reference seconds of the work done in the wall interval [t0, t1]."""
        starts, ends = self.starts, self.ends
        lo = bisect.bisect_left(starts, t0)
        hi = bisect.bisect_right(starts, t1)
        if hi - lo < 2:  # a short interval: use the samples around it
            lo, hi = max(0, lo - 2), min(len(starts), hi + 2)
        speed = sum(KERNEL_REF_S / (ends[j] - starts[j]) for j in range(lo, hi)) / (hi - lo)
        return self.busy(t0, t1) * speed

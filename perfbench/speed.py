"""Scaling measured times to a reference CPU speed.

The CPU speed of a shared machine can swing by up to a factor of two within
a minute, as other tenants load the host.  Raw wall times then spread far
wider than any useful regression bound.  So every benchmark process runs
pinned to one CPU (children inherit the pinning) and times a fixed
pure-Python kernel while it works: on a timer while items run (in the pass
process, or inside each CLI process), and between items in traced passes,
whose spans must not contain samples.  An item's time is scaled to the
reference speed, at which one kernel run takes REFERENCE_S, using the
samples taken during the item (and, for short items, the nearest ones
before and after it).

The kernel is the independent checker's own mod-p elimination on a fixed
matrix: interpreter work of the same kind as the library's, and code that no
change to perfbase can touch, so up to measurement noise the scaled times
move only when the library's cost moves.  Raw times are still reported
beside the scaled ones.
"""

import bisect
import os
import random
import signal
import time

import checker

REFERENCE_S = 0.00025  # kernel time (one elimination) at the reference speed
PERIOD_S = 0.02        # sampling period, on the timer or between items
NEAREST = 4            # fewest samples an item's scaling uses

_rng = random.Random(0)
_MATRIX = [[_rng.randrange(13) for _ in range(12)] for _ in range(12)]


def sample():
    """Seconds one kernel run (one elimination) takes now."""
    t0 = time.perf_counter()
    checker.rank(_MATRIX, 13)
    return time.perf_counter() - t0


def scale(seconds, *samples):
    """seconds spent while the kernel took the given times, at reference speed.

    The work done at a speed is proportional to time over kernel time, so
    equal-length stretches are weighted by the reciprocal of their sample.
    """
    return seconds * REFERENCE_S * sum(1 / k for k in samples) / len(samples)


class Meter:
    """Speed samples over one pass, and the scaling of the items' times.

    With on_timer, a timer signal takes a sample every PERIOD_S while
    items run, and `paused` accumulates the time samples take so it can be
    left out of the items' times.  Without it, samples are taken between
    items only, at most every PERIOD_S: that is the mode for work done in
    child processes, which a sample in this process would compete with for
    the CPU, and for traced passes, whose spans must not contain samples.
    """

    def __init__(self, on_timer):
        self.on_timer = on_timer
        self.samples = []  # (taken at, seconds per kernel run)
        self.paused = 0.0

    def _take(self):
        """Take a sample; return the time it took."""
        t0 = time.perf_counter()
        k = sample()
        t1 = time.perf_counter()
        self.samples.append((t1, k))
        return t1 - t0

    def _tick(self, signum, frame):
        self.paused += self._take()

    def __enter__(self):
        self.paused += self._take()
        if self.on_timer:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        if self.on_timer:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.paused += self._take()

    def between_items(self):
        if not self.on_timer and time.perf_counter() - self.samples[-1][0] >= PERIOD_S:
            self._take()

    def scaled(self, start, end, seconds, during=()):
        """An item's time at reference speed, from the samples taken during it
        (here, or by a child process: `during`).  An item with fewer than
        NEAREST samples also uses the NEAREST // 2 samples on each side."""
        times = [t for t, _ in self.samples]
        lo = bisect.bisect_right(times, start)
        hi = bisect.bisect_right(times, end)
        inside = [k for _, k in self.samples[lo:hi]] + list(during)
        if len(inside) < NEAREST:
            half = NEAREST // 2
            inside += [k for _, k in self.samples[max(0, lo - half):lo]]
            inside += [k for _, k in self.samples[hi:hi + half]]
        return scale(seconds, *inside)


def pin_to_one_cpu():
    """Pin this process (and so its future children) to one CPU; return it or None."""
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu

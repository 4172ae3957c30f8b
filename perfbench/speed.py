"""How fast this machine runs Python right now, and times rescaled to a fixed speed.

On a shared virtual machine the speed of pure-Python code drifts by tens of
percent within seconds, whatever runs, and CPU time drifts with wall time,
so neither can tell a slower program from a busier host.  ``SpeedProbe``
runs a fixed reference task ten times a second from a ``SIGALRM`` handler,
inside the measuring process, and records how long each run took.  An
operation's time, less the probe runs inside it, multiplied by
``REFERENCE_S`` and divided by the median probe run during the operation, is
its time at reference speed: the speed at which the reference task takes
``REFERENCE_S``.  The task imitates the program's inner loops (dicts keyed
by exponent tuples, ``Fraction`` and big-integer coefficients) and uses none
of its code, so a change to the program cannot change the yardstick.
"""
from __future__ import annotations

import gc
import signal
import statistics
from array import array
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter

INTERVAL_S = 0.1
# The middle of the reference task's times (0.7-1.3 ms) on a shared two-vCPU
# Xeon VM with Python 3.11, so that times at reference speed read close to
# seconds there.
REFERENCE_S = 0.001

_LEFT = {(i % 7, i % 5, i % 3, i % 11): Fraction(i, 7) for i in range(14)}
_RIGHT = {(i % 5, i % 7, i % 2, i % 3): i * 10**12 + 1 for i in range(14)}


def reference_task():
    """A fixed sparse-polynomial product; about 200 term pairs."""
    out = {}
    for ea, ca in _LEFT.items():
        for eb, cb in _RIGHT.items():
            key = tuple(a + b for a, b in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return out


def reference_time(runs=7):
    """Median time of a few back-to-back runs of the reference task."""
    times = []
    for _ in range(runs):
        start = perf_counter()
        reference_task()
        times.append(perf_counter() - start)
    return statistics.median(times)


class SpeedProbe:
    """Samples the reference task's time while the process does other work."""

    def __init__(self):
        self.at = array("d")  # when each sample started
        self.took = array("d")  # the timed run of the task
        self.spent = array("d")  # the whole sample, warm-up run included

    def _sample(self, signum=None, frame=None):
        # The interrupted program's heap must not show in the sample: with the
        # collector on, the task's allocations can set off a collection of
        # that heap, and its first run would pay for the caches it refills.
        gc.disable()
        try:
            start = perf_counter()
            reference_task()
            warm = perf_counter()
            reference_task()
            end = perf_counter()
        finally:
            gc.enable()
        self.at.append(start)
        self.took.append(end - warm)
        self.spent.append(end - start)

    def start(self):
        self._sample()  # so that even the first operation has a sample before it
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def rescale(self, start, end):
        """(seconds of [start, end] outside the probe, the same at reference speed).

        The speed is the median of the samples taken inside the interval, or
        the last sample before it when the interval is shorter than one period.
        """
        i = bisect_left(self.at, start)
        j = bisect_right(self.at, end)
        inside = self.took[i:j]
        own = end - start - sum(self.spent[i:j])
        speed = statistics.median(inside) if inside else self.took[max(i - 1, 0)]
        return own, own * REFERENCE_S / speed

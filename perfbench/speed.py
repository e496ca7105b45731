"""The machine's speed, sampled while a workload runs.

The reference machine is a few cores of a shared host, and its speed drifts
by up to 2x over seconds to minutes, in process CPU time as much as in wall
time.  Nothing in a process can tell that drift from a slower program, so
the benchmark samples the machine's speed all through a timed phase, with a
fixed slice of pure-Python work that shares no code with `qdg`, and scales
each timing by it (`Meter.scale`).

A slice builds and thins a small dict with tuple keys and int values, the
kind of work `qcoeff` and `boxtilde` do.  It takes about REF_SLICE_S on the
reference machine in a fast phase, so a scaled timing reads in seconds of
that machine at that speed.  Slices take about a tenth of a timed phase and
are left out of every timing.
"""

from __future__ import annotations

import contextlib
import signal
import time

PERIOD_S = 0.02
# median slice time on the reference machine (2 CPUs, Python 3.11.7) in a
# fast phase; a constant, so that scaled timings read in seconds
REF_SLICE_S = 1.2e-3


def _work():
    d = {}
    for i in range(400):
        k = (i % 17, i % 5)
        d[k] = d.get(k, 0) + i * 3
        if not d[k] % 7:
            del d[k]
    return sum(d.values())


def slice_s() -> float:
    """Run one slice; the CPU time of this thread that it took.  Under the
    GIL a slice can wait for other threads mid-way; that wait is not in its
    CPU time, while the machine's drift is."""
    clock = time.thread_time
    start = clock()
    for _ in range(10):
        _work()
    return clock() - start


class Meter:
    """Slices of reference work, one every PERIOD_S.

    `tick()` runs a slice when one is due; a loop that calls it between its
    operations interleaves slices with them.  Within `with meter.timer():`
    a SIGALRM handler runs a slice every PERIOD_S instead, for a command
    that cannot be split.  The handler runs in the main thread, so a
    command on one thread sees no thread switches, and under the GIL the
    threads of a command on several threads stop while a slice runs.
    `spent` is the time the slices took, to be left out of the timings they
    ran within."""

    def __init__(self):
        self.slices = []
        self.spent = 0.0
        self._due = 0.0

    def _slice(self, *_):
        took = slice_s()
        self.spent += took
        self.slices.append(took)
        self._due = time.perf_counter() + PERIOD_S

    def tick(self):
        if time.perf_counter() >= self._due:
            self._slice()

    @contextlib.contextmanager
    def timer(self):
        handler = signal.signal(signal.SIGALRM, self._slice)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, handler)

    def mark(self) -> int:
        return len(self.slices)

    def scale(self, since: int = 0, until: int = None) -> float:
        """REF_SLICE_S over the mean slice time since a mark: the factor that
        turns a time measured over those slices into reference seconds."""
        window = self.slices[since:until]
        return REF_SLICE_S * len(window) / sum(window)

"""The host's speed, sampled with a fixed reference routine while operations run.

On a shared VM the same Python code runs up to half again as fast in one
period as in another, and process CPU time drifts with wall time, so neither
is steady enough to compare two commits measured minutes apart.  While the
timed operations run, a ``SIGPROF`` timer interrupts the process every
``PERIOD_S`` of its CPU time and runs ``_reference``, a short loop of
dictionary, heap, integer and string work, twice.  The first run brings the
routine back into the caches the operation evicted; only the second is
timed, because cache refills track the host's speed much worse than the
work itself does.  The median duration of recent samples, against
``REFERENCE_S``, gives the host's speed at that moment, and ``scale``
converts a time measured then to a time at the speed the host had when
``REFERENCE_S`` was measured.

``clock`` is ``time.perf_counter`` minus the time spent in samples, so the
samples do not count as work of the operation they interrupt.
"""

from __future__ import annotations

import heapq
import signal
import statistics
import time

PERIOD_S = 0.01  # process CPU time between two samples
WINDOW = 25  # fewest samples a scale is taken from
# Median duration of one sample on the 2-core Xeon VM of the README's
# baseline; a scale of 1.0 means that speed.
REFERENCE_S = 135e-6

_TABLE_SIZE = 1 << 10


def _reference(table: list[tuple[int, float, str]], j: int) -> float:
    """A fixed amount of interpreter work.

    Dictionary stores, heap pushes and pops, integer arithmetic and float
    formatting: the kinds of work that tracked the simulation workloads' speed
    best among the routines tried (see README.md).  It makes only a few
    allocations the garbage collector tracks, so it seldom triggers a
    collection whose cost belongs to the operation it interrupts.
    """
    acc = 0.0
    seen = {}
    heap = []
    for k in range(100):
        i, x, key = table[(j * 7919 + k * 104729) & (_TABLE_SIZE - 1)]
        seen[key] = x * 1.0001
        heapq.heappush(heap, x + i)
    while heap:
        acc -= heapq.heappop(heap)
    n = 0
    for k in range(300):
        n += (k * j) % 7
    text = ",".join(f"{k * 0.37:.6f}" for k in range(40))
    return acc + n + len(text)


class HostSpeed:
    """Reference samples taken on a CPU-time timer, and the scale they give."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        self._table: list[tuple[int, float, str]] = []  # built after set-up is timed

    def _build_table(self) -> None:
        if not self._table:
            self._table = [(i, i * 0.5, str(i)) for i in range(_TABLE_SIZE)]

    def _sample(self, *_args) -> None:
        start = time.perf_counter()
        _reference(self._table, len(self.samples))
        warm = time.perf_counter()
        _reference(self._table, len(self.samples) + 1)
        end = time.perf_counter()
        self.samples.append(end - warm)
        self.spent += end - start

    def clock(self) -> float:
        """Seconds, like ``time.perf_counter``, without the time spent sampling."""
        return time.perf_counter() - self.spent

    def start(self) -> None:
        self._build_table()
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        """Stop the timer; a signal still on its way is then ignored, not fatal."""
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_IGN)

    def mark(self) -> int:
        return len(self.samples)

    def calibrate(self, n: int = 2 * WINDOW) -> float:
        """The scale from n samples taken back to back, outside any operation."""
        self._build_table()
        for _ in range(n):
            self._sample()
        return REFERENCE_S / statistics.median(self.samples[-n:])

    def scale(self, since: int = 0) -> float:
        """Reference speed over the host's speed since ``mark()`` returned ``since``.

        The samples taken since then are used, or the last ``WINDOW`` samples
        if there are fewer.  A time measured in that period, multiplied by the
        scale, is the time it would take at the reference speed.  If the timer
        has not fired yet, one sample is taken now.
        """
        if not self.samples:
            self._build_table()
            self._sample()
        window = self.samples[max(0, min(since, len(self.samples) - WINDOW)):]
        return REFERENCE_S / statistics.median(window)

"""Durations scaled to a nominal host speed.

The measuring host is a shared VM whose speed drifts within seconds: the
same operation runs up to twice as long in a loaded stretch, with CPU time
rising along with wall time.  A fixed pure-Python loop that runs no capnet
code slows down with it, so the benchmark times short chunks of that loop
next to and during every operation and scales the operation's duration by
the ratio of the chunk's nominal time to its median measured time:

- a few chunks right before and right after the operation, and
- one chunk on every tick of an interval timer while it runs, so that an
  operation of several seconds is scaled by the speed the host had during
  it, not only at its ends.  The time spent in these chunks is taken out of
  the operation's duration.

A program change moves the operation's time and leaves the loop's alone, so
the scaled duration follows the program and not the host.
"""

from __future__ import annotations

import signal
import statistics
import time

#: iterations of one calibration chunk, about 3 ms on the measuring host
CHUNK_LOOPS = 30_000
#: chunk time that durations are scaled to [s]
CHUNK_NOMINAL_S = 0.003
#: interval between chunks while an operation runs [s]
SAMPLE_PERIOD_S = 0.1
#: chunks timed right before and right after an operation
EDGE_CHUNKS = 3


def chunk_s() -> float:
    """Time of one calibration chunk."""
    start = time.perf_counter()
    acc = 0
    for i in range(CHUNK_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - start


def edge_chunks() -> list:
    return [chunk_s() for _ in range(EDGE_CHUNKS)]


def scale(elapsed: float, chunks: list) -> float:
    """``elapsed`` at the nominal host speed, judged by the chunk times."""
    return elapsed * CHUNK_NOMINAL_S / statistics.median(chunks)


class Sampler:
    """Times ``fn()`` with calibration chunks around and during it."""

    def __init__(self):
        self._inside: list = []
        self._busy = False

    def _on_alarm(self, signum, frame):
        if self._busy:  # a tick that lands inside a chunk is dropped
            return
        self._busy = True
        start = time.perf_counter()
        self._inside.append((start, chunk_s()))
        self._busy = False

    def time(self, fn):
        """``(result, scaled_s)`` of one call; the time of the chunks timed
        during the call is left out before scaling."""
        before = edge_chunks()
        self._inside = []
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            end = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
        inside = [d for s, d in self._inside if s < end]
        elapsed = end - start - sum(inside)
        return result, scale(elapsed, before + inside + edge_chunks())

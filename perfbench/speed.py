"""The machine's speed, sampled while a workload runs, so that the end-to-end
times can be given at one fixed speed.

On a shared virtual machine the processor's speed changes in spells of a few
seconds: a fixed pure-Python loop takes up to 1.8 times as long in a slow
spell as in a fast one, and the workloads slow down with it.  Medians over a
run do not remove that, because a spell can cover much of a run.  So a
:class:`SpeedProbe` thread wakes every ``INTERVAL_S`` and times :func:`loop`
in its own CPU time, which leaves out the wait for the interpreter lock.  A
time measured by the workload is then scaled by ``REFERENCE_LOOP_S`` over the
loop's time around it: it becomes the time the same work takes when the loop
takes ``REFERENCE_LOOP_S``.  The loop uses no part of ``divisor_series`` or
mpmath, so a change to the program does not move it.

While the probe runs its loop it holds the interpreter lock and the
workload's thread waits; :meth:`SpeedProbe.adjust` takes that time out.
"""

from __future__ import annotations

import bisect
import statistics
import threading
import time

INTERVAL_S = 0.05
LOOP_STEPS = 3000
#: the loop's median CPU time, while a workload runs, on the 2-vCPU virtual
#: machine (Intel Xeon, Python 3.11) where the benchmark was written
REFERENCE_LOOP_S = 0.0018
_MASK = (1 << 128) - 1


def loop(steps: int = LOOP_STEPS) -> int:
    """Fixed work of the kinds the pure-Python big-float arithmetic does:
    128-bit integer products and shifts, tuples and a dict.  About 2 ms,
    inside the interpreter's 5 ms switch interval."""
    x = 0x9E3779B97F4A7C15F39CC0605CEDC835
    acc = 0
    table = {}
    for i in range(steps):
        y = (x * (i | 1)) >> 61
        table[i & 255] = (y & 0xFFFF, i)
        acc = (acc + table[i & 255][0] * y) & _MASK
    return acc


class SpeedProbe:
    """Context manager: a daemon thread samples the loop until exit.  Each
    sample is ``(wall start, wall end, loop CPU seconds)``."""

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []
        self._starts: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def __enter__(self) -> SpeedProbe:
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._starts = [a for a, _, _ in self.samples]

    def _sample(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            start, cpu = time.perf_counter(), time.thread_time()
            loop()
            cpu = time.thread_time() - cpu
            self.samples.append((start, time.perf_counter(), cpu))

    def _near(self, start: float, end: float) -> list[tuple[float, float, float]]:
        """Samples from one interval before `start` to one after `end`."""
        lo = bisect.bisect_left(self._starts, start - 2 * INTERVAL_S)
        hi = bisect.bisect_right(self._starts, end + INTERVAL_S)
        return self.samples[lo:hi]

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_LOOP_S over the mean loop time around [start, end]
        (the mean of the rates, which is what integrates over the spells)."""
        near = self._near(start, end)
        if not near:
            raise RuntimeError("no speed samples: the probe did not run")
        return REFERENCE_LOOP_S * statistics.fmean(1 / cpu for _, _, cpu in near)

    def adjust(self, start: float, end: float) -> float:
        """Seconds of the workload's thread in [start, end], less the probe's
        CPU time inside it, at the reference speed."""
        held = 0.0
        for a, b, cpu in self._near(start, end):
            overlap = min(b, end) - max(a, start)
            if overlap > 0:
                held += cpu * overlap / (b - a)
        return (end - start - held) * self.scale(start, end)

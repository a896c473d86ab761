"""Machine-speed probe, so that timings taken on a shared machine compare.

On a shared virtual machine two things move every timing.  Other tenants
take the core away for a while, which wall time counts and CPU time does
not; and the core itself runs slower or faster by up to 2x within seconds
(shared caches, frequency), which CPU time counts too.  So the benchmark
times CPU time (``time.process_time``, every thread of the process), and
the loop times a fixed probe, in CPU time as well, every ``PROBE_EVERY_S``
seconds: plain Python plus small numpy arrays, the same kind of work as the
package's per-sample code but independent of it, so no change to the
package moves the probe.  Each reported time is the measured CPU time
scaled by ``REFERENCE_S`` over the mean probe time within ``WINDOW_S`` of
it.  When the machine runs at its reference speed the scaled time equals
the CPU time.

The core flips between a fast and a slow state every few seconds, and an
operation of a second or more spans several flips.  A mean over a window
of probes grows in proportion to the share of slow time in it, as the
operation's CPU time does; a median jumps from one state to the other
when that share crosses one half.  On a shared 2 vCPU Xeon VM, across
ten seeds of adaptive_linf, the mean over +-1 s gave a throughput
quartile spread of 0.07, against 0.13 for the median over +-0.5 s.

``speed_check.py`` measures how well the scaled time follows a pure-Python
and a numpy-heavy operation while competing processes load the machine.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time

import numpy as np

# the probe's CPU time on the machine the baseline was recorded on (2 vCPU
# Xeon VM, Python 3.11.7, numpy 2.4.6) in its fast, uncontended state
REFERENCE_S = 1.0e-3
PROBE_EVERY_S = 0.1
WINDOW_S = 1.0  # probes this close to a timed interval describe it


def probe() -> float:
    """CPU seconds taken by a fixed piece of Python and numpy work."""
    acc = np.zeros(2)
    total = 0
    started = time.process_time()
    for k in range(400):
        t = k * 1e-3
        acc = acc + 2.0 * np.array([math.cos(t), math.sin(t)])
        for j in range(20):
            total += j * j
    return time.process_time() - started


class SpeedLog:
    """Probe results in time order, and the scale they give an interval."""

    def __init__(self) -> None:
        self.times: list[float] = []  # perf_counter at each probe's middle
        self.durations: list[float] = []

    def take(self) -> None:
        duration = probe()
        self.times.append(time.perf_counter() - duration / 2)
        self.durations.append(duration)

    def maybe_take(self, now: float) -> None:
        if not self.times or now - self.times[-1] >= PROBE_EVERY_S:
            self.take()

    def scale(self, start: float, end: float) -> float:
        """Factor that takes a CPU time measured over the perf_counter
        interval [start, end] to the reference speed."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        window = self.durations[lo:hi]
        if len(window) < 2:
            mid = bisect.bisect_left(self.times, 0.5 * (start + end))
            window = self.durations[max(0, mid - 1):mid + 1]
        return REFERENCE_S / statistics.fmean(window)

    def scaled(self, span: tuple[float, float, float]) -> float:
        """The CPU time of a ``(start, end, cpu)`` span at reference speed."""
        start, end, cpu = span
        return cpu * self.scale(start, end)

    def median_ms(self) -> float:
        return statistics.median(self.durations) * 1e3


def timed(func, *args):
    """``func(*args)`` and its ``(start, end, cpu)`` span: perf_counter at
    both ends and the CPU seconds in between."""
    start, cpu = time.perf_counter(), time.process_time()
    result = func(*args)
    return result, (start, time.perf_counter(), time.process_time() - cpu)

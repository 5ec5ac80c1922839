"""Machine-speed probe, so that op times can be reported at a fixed speed.

The machine the benchmark was defined on shares its cores with other
tenants: the same `minimize_description` call took 4.4 s to 6.5 s of CPU
time from one minute to the next. A probe times a short, fixed loop of
Fraction arithmetic (the program's staple) between ops and, if asked, from
a SIGALRM handler every INTERVAL_S seconds during them. An op's reference
time is its own time, less the probe loops that ran inside it, scaled by
REFERENCE_LOOP_S over the mean loop time measured across the op.

The mean, not the median: the machine switches between a fast and a slow
speed many times within one op, and the op's time follows the share of
time spent in each, which the mean estimates and the median does not (on
eight `enumerate` passes the quartile spread of the pass time was 0.03 with
the mean and 0.10 with the median). The loop runs with the garbage
collector off and SIGALRM blocked, so that neither a collection of the
program's heap nor a second, nested loop enters a sample and makes it an
outlier.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.05
# Median loop time on the 2-core machine the benchmark was defined on; the
# speed at which the loop takes this long is the reference speed.
REFERENCE_LOOP_S = 0.0014


def loop_seconds() -> float:
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
    collecting = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        s = Fraction(0)
        for i in range(1, 200):
            s += Fraction(1, i % 97 + 1) * Fraction(i % 13 + 1, 7)
        return time.perf_counter() - t0
    finally:
        if collecting:
            gc.enable()
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})


class SpeedProbe:
    """Context manager that samples the loop time while it is entered.

    With `during_ops=False` it samples only when `sample()` is called, so
    that no probe loop runs inside a traced function.
    """

    def __init__(self, during_ops: bool = True):
        self.during_ops = during_ops
        self.samples: list[tuple[float, float]] = []  # (start, loop seconds)

    def sample(self) -> None:
        start = time.perf_counter()
        self.samples.append((start, loop_seconds()))

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def __enter__(self) -> "SpeedProbe":
        if self.during_ops:
            self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.during_ops:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)

    def across(self, start: float, end: float) -> tuple[float, float]:
        """Probe seconds spent inside [start, end), and the speed factor
        REFERENCE_LOOP_S / mean loop time, from the samples inside the
        interval and the two taken just outside it."""
        inside = [d for s, d in self.samples if start <= s < end]
        near = [d for s, d in self.samples if start - 0.01 <= s < end + 0.01]
        return sum(inside), REFERENCE_LOOP_S / statistics.fmean(near)

    def median_loop_s(self) -> float:
        return statistics.median(d for _, d in self.samples)

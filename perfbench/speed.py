"""Machine speed, sampled between items, to report times at a fixed speed.

On a shared host the speed of one CPU drifts by tens of percent within
seconds, the same for any pure-Python code.  The benchmark therefore times
a fixed piece of pure-Python work (a sample, ~8 ms) before every item and
after the last, and rescales each item's wall time by REF_S over the
speed measured around it.  The result is the item's time on a machine
where a sample takes REF_S.  Raw wall times are printed next to the
rescaled ones.

On a 2-vCPU virtual machine on a shared host, ten runs of the wide
workload had an interquartile spread of 15% in raw pass time and 6% after
rescaling; eight in-process corpus passes, 12% raw and 5% rescaled.  A
sample that allocates and sorts small objects tracked the package worse
than this plain loop.
"""

from __future__ import annotations

import time

LOOPS = 100_000
REF_S = 0.008
WINDOW = 2


def sample() -> float:
    """Seconds this process takes for the fixed work right now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(LOOPS):
        acc += i * i % 7
    return time.perf_counter() - t0


def rescale(times: list[float], samples: list[float]) -> list[float]:
    """Times at reference speed.  samples[k] and samples[k + 1] were taken
    just before and just after times[k]; the speed for item k is the median
    of those two and WINDOW more on either side, which keeps a stray slow
    sample from rescaling a short item."""
    return [
        t * REF_S / _median(samples[max(0, k - WINDOW): k + 2 + WINDOW])
        for k, t in enumerate(times)
    ]


def _median(xs: list[float]) -> float:
    # not statistics.median: this module loads before the timed import of
    # the package, and must not load modules the package would import
    s = sorted(xs)
    return (s[(len(s) - 1) // 2] + s[len(s) // 2]) / 2


class ItemClock:
    """Times items one after another, sampling speed between them.  With
    calibrate off (in the traced pass) it only times."""

    def __init__(self, calibrate: bool):
        self.calibrate = calibrate
        self.times: list[float] = []
        self.samples: list[float] = []
        self.start = 0.0

    def begin(self) -> None:
        if self.calibrate:
            self.samples.append(sample())
        self.start = time.perf_counter()

    def end(self) -> None:
        self.times.append(time.perf_counter() - self.start)

    def finish(self) -> None:
        if self.calibrate:
            self.samples.append(sample())

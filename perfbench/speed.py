"""Host speed probe: a fixed reference kernel timed between ops.

On a shared 2-vCPU host the same op can take up to 1.8x longer from one
second to the next, because other tenants load the same cores.  The drift
moves every timing of a run together, so it shows as run-to-run spread that
no amount of repetition inside one run removes.

The probe runs a fixed pure-Python kernel (exact rationals, bit strings,
tuples and dict counts, like the lab's hot loops, but no randlab code) at
least every PROBE_EVERY_S seconds of the run.  Each op's time is then scaled
by REFERENCE_KERNEL_S over the mean kernel time measured around it, which
gives the time the op would take on a host running the kernel in exactly
REFERENCE_KERNEL_S.  "Around it" is the op's own interval, widened to at
least WINDOW_S: the host flips between fast and slow phases faster than the
probe samples, so a short op is scaled by the phase mix of the half second
it ran in rather than by the one sample that happens to be nearest.

A change to randlab cannot change the kernel, so it moves the scaled times
exactly as it moves the raw ones.  Raw times are printed beside the scaled
ones and kept in the run record.
"""

from __future__ import annotations

import bisect
import time
from fractions import Fraction

PROBE_EVERY_S = 0.1
WINDOW_S = 0.5
# a round figure near the kernel's time on the 2-vCPU x86 host the benchmark
# was built on; it fixes the unit only
REFERENCE_KERNEL_S = 0.002
KERNEL_REPEATS = 3


def reference_kernel() -> int:
    acc = Fraction(0)
    tally: dict = {}
    for i in range(1, 160):
        acc += Fraction(i % 7 + 1, i % 13 + 2) * Fraction(3, 4) ** (i % 5)
        key = format(i * 2654435761 % 4096, "012b")
        bits = tuple(int(c) for c in key)
        tally[bits[:6]] = tally.get(bits[:6], 0) + acc.denominator % 3
    return len(tally) + acc.numerator % 5


class SpeedProbe:
    def __init__(self):
        self.times: list[float] = []
        self.kernel: list[float] = []
        self.sample()

    def sample(self) -> None:
        best = None
        start = time.perf_counter()
        for _ in range(KERNEL_REPEATS):
            t0 = time.perf_counter()
            reference_kernel()
            elapsed = time.perf_counter() - t0
            best = elapsed if best is None else min(best, elapsed)
        self.times.append(start)
        self.kernel.append(best)

    def maybe_sample(self) -> None:
        if time.perf_counter() - self.times[-1] >= PROBE_EVERY_S:
            self.sample()

    def factor(self, t0: float, t1: float) -> float:
        """REFERENCE_KERNEL_S over the mean kernel time of the samples taken
        in [t0, t1] widened to WINDOW_S, plus the nearest one on each side."""
        pad = max(0.0, (WINDOW_S - (t1 - t0)) / 2)
        lo = max(0, bisect.bisect_left(self.times, t0 - pad) - 1)
        hi = bisect.bisect_right(self.times, t1 + pad) + 1
        window = self.kernel[lo:hi]
        return REFERENCE_KERNEL_S * len(window) / sum(window)

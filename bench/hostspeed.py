"""Host speed, measured with a fixed reference loop between ops.

On a shared 2-vCPU Xeon virtual machine the host's speed switches between
states 1.5-2x apart, for seconds to minutes at a time, and CPU time tracks
wall time, so raw timings of identical work spread by 20-50% from run to run:
more than a 0.25 regression bound.  ``HostSpeed`` times a short loop that does
not touch tsvar (scalar float arithmetic in Python and small numpy array
updates) at each pass's ends and at op boundaries, and ``scale`` turns an
interval measured during a pass into seconds on a host that runs the loop in
``NOMINAL_S``.  A change to tsvar cannot change the loop, so a slower program
still reads slower.  On that machine, over ten runs of each workload, this
cut the spread of wall_s and op_s.p50 from up to 0.57 to at most 0.12.
"""

from __future__ import annotations

import math
import time
from statistics import median

import numpy as np

perf = time.perf_counter

NOMINAL_S = 0.002  # the loop's time on that machine in its faster state
# tsvar's code slows less than the loop when the host slows: over 80 runs the
# log-log slope of run time against loop time was 0.80-0.87 on var_mesh,
# ctl_qgrid and sweep_small and 0.44 on ctl_mesh, whose dense algebra waits
# on memory more than the loop does.  Scaling by the full ratio over-corrects.
SENSITIVITY = 0.8
INTERVAL_S = 0.1  # least time between two samples taken at op boundaries
WINDOW_S = 0.05  # samples taken this close to an interval's ends count for it


def reference_loop() -> float:
    s = 0.0
    for i in range(4000):
        x = i * 1e-4
        s += math.sqrt(1.0 + x * x) + (x - 1.0) ** 2
    a = np.arange(64.0)
    for _ in range(400):
        a = a * 0.999 + 0.001
        s += float(np.dot(a, a))
    return s


class HostSpeed:
    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (midpoint, seconds)
        self.spent = 0.0  # seconds spent in the loop, to take out of pass walls
        self.last = -math.inf

    def sample(self) -> None:
        t0 = perf()
        reference_loop()
        t1 = perf()
        self.samples.append((0.5 * (t0 + t1), t1 - t0))
        self.spent += t1 - t0
        self.last = t1

    def maybe_sample(self) -> None:
        if perf() - self.last >= INTERVAL_S:
            self.sample()

    def scale(self, t0: float, t1: float) -> float:
        """Factor from seconds measured over ``[t0, t1]`` to nominal-host seconds:
        the median of the samples taken in that interval, or next to its ends."""
        near = [d for t, d in self.samples if t0 - WINDOW_S <= t <= t1 + WINDOW_S]
        return (NOMINAL_S / median(near)) ** SENSITIVITY

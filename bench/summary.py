"""Order statistics for op latencies."""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np

# Candidate tail percentiles, lowest first.  The reported tail is the highest
# one that still has MIN_BEYOND samples above it, so a short run reports a
# lower percentile instead of an unsupported one.  The rungs are far apart so
# that each workload's op count, which moves with the host's speed, stays in
# one band (p75 needs 38 ops, p95 182): ctl_mesh reports p50, var_mesh and
# ctl_qgrid p75, sweep_small p95.  The ladder stops at p95: a run holds at most
# about 3000 ops, so a p99 would rest on some 20 of them, and one host stall of
# a few hundred milliseconds covers that many sweep rows (sweep_small's p99
# spread 0.65 over five seeds; its p95 0.05).
TAIL_LADDER = (50.0, 75.0, 95.0)
MIN_BEYOND = 10


def samples_beyond(n: int, p: float) -> int:
    """Samples strictly above the interpolation position of percentile ``p``."""
    return n - 1 - math.floor((n - 1) * p / 100.0)


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least ``MIN_BEYOND`` samples beyond it.

    Falls back to the median when even the median has fewer; the caller
    reports the percentile and the sample count next to the value.
    """
    chosen = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if samples_beyond(n, p) >= MIN_BEYOND:
            chosen = p
    return chosen


def tail(passes: Sequence[Sequence[float]]) -> tuple[float, float]:
    """``(percentile, value)`` of the tail of the latencies of a run's passes.

    The percentile follows the rule above on all the latencies.  Consecutive
    passes are then grouped into chunks that each have ``MIN_BEYOND`` samples
    beyond that percentile on their own, and the value is the median over the
    chunks: a
    host stall inside one pass moves one chunk, not the result.  A run too
    short for two chunks pools all its latencies.
    """
    p = tail_percentile(sum(len(ps) for ps in passes))
    need = next(n for n in itertools.count(1) if samples_beyond(n, p) >= MIN_BEYOND)
    chunks, cur = [], []
    for ps in passes:
        cur.extend(ps)
        if len(cur) >= need:
            chunks.append(cur)
            cur = []
    if chunks:
        chunks[-1].extend(cur)
    else:
        chunks.append(cur)
    return p, median([np.percentile(c, p) for c in chunks])


def median(values: Sequence[float]) -> float:
    return float(np.median(values))

"""Machine-speed reference for the timed runs.

A machine shared with other work drifts in speed: on a shared 2-vCPU x86_64
VM a fixed numpy loop ran between 53 and 108 iterations per second within
half a minute with no steal time reported, and identical passes of
catalog_narrow took 5.3 s and 7.7 s within one run.  So between ops, at
most every INTERVAL_S, the run times a fixed numpy kernel that touches
nothing in nda (the fastest of REPEATS back-to-back runs, so that caches and
allocator state left by the previous op do not count), and each op's wall
time is rescaled by REFERENCE_S over the mean kernel time just before and
just after the op.  The rescaled times are seconds at the
speed at which the kernel takes REFERENCE_S; a change to nda moves them as
it moves the wall time, while drift of the machine's speed cancels.
"""

from __future__ import annotations

import bisect
import time
from typing import List

import numpy as np

REFERENCE_S = 0.012        # kernel time at the reference speed
INTERVAL_S = 0.5
REPEATS = 3


class SpeedProbe:
    """Kernel timings taken during one run."""

    def __init__(self):
        rng = np.random.default_rng(12345)
        self._small = rng.standard_normal((8, 12))
        self._large = rng.standard_normal((1024, 12))
        self.starts: List[float] = []
        self.seconds: List[float] = []

    def _kernel(self) -> float:
        # per-call overhead on 8 rows and per-row work on 1024 rows, the two
        # regimes of the workloads
        acc = 0.0
        for x, reps in ((self._small, 400), (self._large, 40)):
            for _ in range(reps):
                r = np.linalg.norm(x.reshape(len(x), 4, 3), axis=2)
                v = np.exp(-r.sum(axis=1)) * x[:, 0]
                acc += float(np.where(v > 0, v, -v).sum())
        return acc

    def sample(self) -> None:
        start = time.perf_counter()
        best = float("inf")
        for _ in range(REPEATS):
            t = time.perf_counter()
            self._kernel()
            best = min(best, time.perf_counter() - t)
        self.starts.append(start)
        self.seconds.append(best)

    def sample_if_due(self) -> None:
        if not self.starts or time.perf_counter() - self.starts[-1] >= INTERVAL_S:
            self.sample()

    def rescale(self, start: float, wall: float) -> float:
        """wall, taken from start, in seconds at the reference speed."""
        before = bisect.bisect_right(self.starts, start) - 1
        after = bisect.bisect_left(self.starts, start + wall)
        near = [self.seconds[k] for k in (before, after)
                if 0 <= k < len(self.seconds)]
        return wall * REFERENCE_S * len(near) / sum(near)

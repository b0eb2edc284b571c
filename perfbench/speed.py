"""Calibrated timing for a machine whose speed drifts under other tenants.

On a shared host the same single-threaded work can take 1.5x longer for
seconds or minutes at a time, most likely while a neighbour loads the
core's other hardware thread. That swamps the changes the benchmark must
resolve. So
every timed interval is bracketed by a fixed probe (interpreter, numpy,
BLAS, memory and qhull work, independent of partmotion), and the interval
is scaled by the probe's reference time over the mean of the two probes
around it:

    calibrated = measured * REFERENCE_S / mean(probe before, probe after)

On a quiet machine of the kind the reference was taken on, the factor is
about 1, so calibrated times read as CPU seconds. The correction is not
exact, since no probe slows exactly as much as every op: over ten runs on
a 2-vCPU VM it cut the interquartile spread of the median op latency from
20-26% (raw) to 6-8%.
"""
from __future__ import annotations

import time

import numpy as np
from scipy.spatial import ConvexHull

CLOCK = time.process_time

# the probe's CPU time on an idle 2-vCPU Xeon VM (5th percentile of 1500)
REFERENCE_S = 0.00218

_A = np.random.default_rng(0).normal(size=(64, 64))
_B = _A[:, :32].copy()
_V = _A[0].copy()
_BIG = np.random.default_rng(1).normal(size=1 << 19)              # 4 MB
_GATHER = np.random.default_rng(2).integers(0, _BIG.size, size=1 << 15)
_HULL = np.random.default_rng(3).normal(size=(2048, 3))


def _unit() -> float:
    """CPU seconds of one fixed unit of reference work.

    Half of it is small-array work that stays in cache (interpreter, numpy
    call overhead, a small BLAS product), like a training step; half walks
    megabytes and builds a convex hull, like dataset generation, because
    a neighbour that contends for the shared cache slows that kind more.
    """
    start = CLOCK()
    acc = 0.0
    table: dict[int, float] = {}
    for i in range(60):
        y = _A @ _B
        acc += float(np.maximum(_V * 1.5, 0.0).sum())
        for j in range(20):
            table[j] = table.get(j, 0.0) + y[0, j]
    for k in range(2):
        acc += float(_BIG[_GATHER].sum()) + float(_BIG[k::4].sum())
    ConvexHull(_HULL)
    return CLOCK() - start


def probe() -> float:
    """Best of two units: the first mostly refills caches the op evicted."""
    return min(_unit(), _unit())


class Calibrator:
    """Scale factors for consecutive timed intervals."""

    def __init__(self) -> None:
        self.last = probe()
        self.factors: list[float] = []

    def factor(self) -> float:
        """Factor for the interval that just ended; probes once."""
        before, self.last = self.last, probe()
        f = REFERENCE_S / ((before + self.last) / 2.0)
        self.factors.append(f)
        return f

    def skip(self) -> None:
        """Start a new interval without scaling the one that just ended."""
        self.last = probe()

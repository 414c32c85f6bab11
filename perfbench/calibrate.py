"""A fixed reference computation, timed between operations of a run.

The shared machine's effective CPU speed drifts by 15-40 % over seconds
(measured on a 2-vCPU VM: the same pure-Python loop took 13-20 ms
depending on when it ran), which is more than the regressions the
benchmark must catch.  So the gated latency and throughput figures are
expressed in units of this computation's time measured around them:
drift that slows both cancels out.  The computation mixes what riskbounds
spends its time on (interpreted Python, frozen-dataclass construction with
validation, small numpy calls and a scipy.special call) and never touches
riskbounds itself, so no change to riskbounds can move it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

ROUNDS = 500
#: Median reference time on the machine the benchmark was written on (a
#: 2-vCPU Intel Xeon VM) when it ran at its faster speed; set-up times are
#: reported in seconds at that speed.
NOMINAL_S = 0.0035


@dataclass(frozen=True)
class _Record:
    index: int
    value: float

    def __post_init__(self):
        if not math.isfinite(self.value) or self.index < 0:
            raise ValueError("bad record")


def reference_work() -> float:
    """About 5 ms of mixed interpreter, numpy and scipy.special work."""
    rng = np.random.default_rng(20150314)
    total = 0.0
    records = []
    for i in range(ROUNDS):
        draws = rng.random(16)
        total += float(np.sum(draws * draws)) + float(gammaln(i + 1.5))
        total += sum(math.log1p(x) for x in draws.tolist())
        records.append(_Record(i, total))
    return total + len(records)


def time_reference() -> float:
    """Wall seconds of one reference computation."""
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


def reference_time(samples: int = 5) -> float:
    """Median of several reference timings taken back to back."""
    return sorted(time_reference() for _ in range(samples))[samples // 2]

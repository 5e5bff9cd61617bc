"""Timing comparison: chain-formula inversion versus matrix-solve inversion.

Both contenders run in exact rational arithmetic on identical seeded
batches, so the comparison isolates the algorithms.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from statistics import mean, median

from .blades import Signature
from .inversion import compose_inverse, default_chain
from .multivector import Multivector
from .oracle import oracle_inverse


@dataclass
class LaneTiming:
    name: str
    seconds: list[float]

    @property
    def mean_s(self) -> float:
        return mean(self.seconds)

    @property
    def median_s(self) -> float:
        return median(self.seconds)

    @property
    def total_s(self) -> float:
        return sum(self.seconds)


@dataclass
class BenchReport:
    sig: Signature
    samples: int
    seed: int
    bound: int
    lanes: list[LaneTiming]

    def lane(self, name: str) -> LaneTiming:
        return next(t for t in self.lanes if t.name == name)

    @property
    def speedup(self) -> float:
        """matrix mean time over formula mean time."""
        return self.lane("matrix").mean_s / self.lane("formula").mean_s


def run_bench(sig: Signature, samples: int, seed: int, bound: int = 10) -> BenchReport:
    """Time both inversion routes on one identical seeded batch.

    Each route first runs once untimed on the batch's first element, so
    the timings leave out its lazy set-up in this process: the chain's
    plan, the oracle's block tables.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    batch = [Multivector.random(sig, seed + i, bound) for i in range(samples)]
    chain = default_chain(sig.n)
    compose_inverse(batch[0], chain)
    oracle_inverse(batch[0])

    lanes = []
    for name, invert in (("formula", lambda a: compose_inverse(a, chain)), ("matrix", oracle_inverse)):
        seconds = []
        for a in batch:
            t0 = time.perf_counter()
            invert(a)
            seconds.append(time.perf_counter() - t0)
        lanes.append(LaneTiming(name, seconds))
    return BenchReport(sig, samples, seed, bound, lanes)

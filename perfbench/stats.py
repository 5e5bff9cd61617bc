"""Percentiles for latency reports.

A tail percentile is only reported where at least ten samples lie beyond
it, so a run with fewer samples falls back to a lower percentile and says
which one it reports.  The tail stops at p90: the samples are the pool's
inputs (see `quiet_times`), and no workload's pool is large enough for p99.

Each input's latency is its quiet time, the fastest of its repeats over
the run, as `timeit` takes the best of its repeats: the op's work is fixed
by its input, so the host can only add to its time.  On a
shared virtual machine the same op runs up to 1.8x slower for stretches of
a fraction of a second to tens of seconds while another tenant loads the
core; a percentile of every op counts how much of the run fell into such
stretches, where the quiet time of an input, repeated all through the run,
sets them aside.
"""

from __future__ import annotations

import math
from typing import Sequence

TAIL_CANDIDATES = (90.0, 75.0, 50.0)
MIN_BEYOND = 10


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with pct% of samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < pct <= 100:
        raise ValueError(f"percentile {pct} outside (0, 100]")
    ordered = sorted(values)
    rank = math.ceil(pct / 100 * len(ordered))
    return ordered[max(rank, 1) - 1]


def samples_beyond(count: int, pct: float) -> int:
    """How many of `count` samples rank strictly above the nearest-rank pct percentile."""
    return count - math.ceil(pct / 100 * count)


def tail_percentile(count: int) -> float:
    """Highest candidate percentile with at least ten samples beyond it.

    Falls back to the median (50) when even that has fewer than ten beyond.
    """
    for pct in TAIL_CANDIDATES:
        if samples_beyond(count, pct) >= MIN_BEYOND:
            return pct
    return 50.0


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def quiet_times(keys: Sequence[int], lat: Sequence[int], size: int, batch: int = 1) -> list[int]:
    """Quiet latency of each pool input, or of each batch of `batch` consecutive inputs.

    `keys` holds each op's pool index (0 .. size-1), `lat` its latency.  An
    input's quiet time is the fastest of its repeats; a batch's is the sum
    over its inputs.  Inputs the run never reached, and
    batches holding one, are left out.
    """
    repeats: list[list[int]] = [[] for _ in range(size)]
    for k, ns in zip(keys, lat):
        repeats[k].append(ns)
    quiet = [min(r) if r else None for r in repeats]
    groups = (quiet[i:i + batch] for i in range(0, size - batch + 1, batch))
    return [sum(g) for g in groups if None not in g]

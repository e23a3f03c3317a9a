"""Reference-normalised timing and quiet-pool estimators over identical blocks.

Why a plain stopwatch does not repeat here.  On this kind of shared box the
core itself runs slower for seconds at a time: ``process_time / wall`` stays
0.99 (the process is not descheduled, so CPU-time accounting does not help),
yet 400 identical blocks of hot queries took 223–486 ms each, and over 12 s
windows the quiet-half mean moved 32 % (quartile spread over median) — three
times any bound a regression gate could use.  Two devices bring that down to
2–8 %:

* **Reference kernel.**  A fixed pure-Python kernel (:func:`reference_kernel`,
  stdlib only, nothing of the program) is timed right before every operation
  and after the last one of a block (service: by the idle main thread around
  the block, see ``regimes.service_block``).  The block's *speed factor* is
  the median of those slices over :data:`REFERENCE_SECONDS`, the kernel's time
  on the reference box when quiet; every time of the block is divided by it.
  Reported times are therefore *milliseconds at reference speed*.  The
  wall-clock values and the factor itself are reported as per-layer metrics
  (``*_raw``, ``bench.speed_factor``), so nothing is hidden.

  The factor must not depend on the program, or a change would cancel part of
  its own gain.  Measured: a kernel run straight after a query is slower than
  one straight after another kernel run, by 4 % after a hot ``xmark_warm``
  query and by 21 % after a cold rewriting search (the query evicted the
  kernel's cache lines).  So every slice runs the kernel twice and times the
  second run: that one is within 0.2 % / 1.4 % of the kernel's steady state,
  whatever ran before it.
* **Quiet pool.**  A run is cut into identical blocks and every statistic is
  computed over the samples of the half of the blocks with the smallest
  (normalised) time, which drops blocks in which the speed changed between two
  slices.  The all-blocks values and the share of time the noisy half added
  are per-layer metrics too (``*_all``, ``bench.noise_share``).
"""

from __future__ import annotations

import dataclasses
import gc
import resource
import statistics
import time
from typing import Sequence

REFERENCE_SECONDS = 1.2e-3
"""One primed :func:`reference_kernel` call on the reference box (2 shared cores,
CPython 3.11) when it is quiet.  Only a scale: on another box every reported
time is stretched by the same constant."""


def reference_kernel() -> int:
    """Tuples, a sort, dict grouping, attribute-free loops: the program's mix."""
    rows = [(i * 7919 % 1009, i) for i in range(3000)]
    rows.sort()
    groups: dict[int, list[int]] = {}
    for key, value in rows:
        groups.setdefault(key, []).append(value)
    total = 0
    for key in sorted(groups):
        total += len(groups[key]) + key
    return total


def reference_slice() -> float:
    """Seconds of one kernel run that follows an untimed one (see above)."""
    reference_kernel()
    started = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - started


def speed_factor(slices: Sequence[float]) -> float:
    """How many times slower than the quiet reference box the box ran."""
    return statistics.median(slices) / REFERENCE_SECONDS


def timed(call) -> tuple[object, float, float]:
    """``call()`` between two reference slices → (result, seconds, speed factor).

    ``seconds / speed factor`` is the call's time at reference speed.  The
    cyclic collector is off meanwhile, as inside a block (see
    ``regimes.in_process_block``), so a probe and a block time the same thing.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        before = reference_slice()
        started = time.perf_counter()
        result = call()
        elapsed = time.perf_counter() - started
        return result, elapsed, speed_factor((before, reference_slice()))
    finally:
        if was_enabled:
            gc.enable()


def peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclasses.dataclass
class Block:
    """One pass over a workload's fixed operation list."""

    raw_wall: float
    """Stopwatch seconds one caller spent inside operations (the sum of their
    times; with several service clients, that sum divided by their number)."""
    speed: float
    samples: list  # (kind, name, stopwatch seconds, rows); kind "query" | "update" | "gc"
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def wall(self) -> float:
        return self.raw_wall / self.speed


def quiet_pool(blocks: Sequence[Block]) -> list[Block]:
    """The half (rounded up) of the blocks with the smallest normalised time."""
    ordered = sorted(blocks, key=lambda block: block.wall)
    return ordered[: (len(ordered) + 1) // 2]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: no interpolation across a class boundary."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def seconds_of(blocks: Sequence[Block], kind: str, raw: bool = False) -> list[float]:
    return [
        sample[2] / (1.0 if raw else block.speed)
        for block in blocks for sample in block.samples if sample[0] == kind
    ]


def query_metrics(blocks: Sequence[Block], suffix: str = "", raw: bool = False) -> dict:
    """p50 / p90 latency and throughput of the query samples of ``blocks``."""
    latencies = seconds_of(blocks, "query", raw)
    wall = sum(block.raw_wall if raw else block.wall for block in blocks)
    return {
        f"query_p50_ms{suffix}": percentile(latencies, 0.50) * 1e3,
        f"query_p90_ms{suffix}": percentile(latencies, 0.90) * 1e3,
        f"queries_per_s{suffix}": len(latencies) / wall,
    }


def noise_share(blocks: Sequence[Block]) -> float:
    """How much longer the median block ran than the mean quiet-pool block."""
    quiet = statistics.fmean(block.wall for block in quiet_pool(blocks))
    return (statistics.median(block.wall for block in blocks) - quiet) / quiet


def class_median_ms(per_class: dict) -> float:
    """Median over the classes of each class's median, in milliseconds.

    With seven classes this is the 4th class's typical time — directly
    comparable with ``query_p50_ms``, whose rank falls inside that class.
    """
    return statistics.median(statistics.median(times) for times in per_class.values()) * 1e3

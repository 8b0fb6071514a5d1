"""Cycle-level timing model.

The paper reports wall-clock SpMV times from real hardware; this repo's
substitute derives a simulated time from the quantities the simulator
produces.  The model is deliberately simple — a traversal is memory
bound, so time is dominated by edges streamed plus penalties for L3 and
DTLB misses, inflated by scheduler idle time — and is used only for the
*relative* comparisons the paper's tables make.

The latencies are loosely calibrated to the paper's Xeon 6130.
``CYCLES_PER_EDGE`` covers the streamed topology work and the L1/L2 hits
of random accesses; ``CYCLES_PER_L3_MISS`` is the extra memory latency
of an access that leaves the cache hierarchy (amortized over the
memory-level parallelism of the traversal).
"""

from __future__ import annotations

from repro.errors import SimulationError

__all__ = ["traversal_time_ms"]

CYCLES_PER_EDGE = 1.5
CYCLES_PER_L3_MISS = 40.0
CYCLES_PER_TLB_MISS = 30.0
CLOCK_GHZ = 2.1


def traversal_time_ms(
    num_edges: int,
    l3_misses: int,
    tlb_misses: int,
    idle_percent: float,
    num_threads: int,
) -> float:
    """Simulated SpMV traversal time in milliseconds on ``num_threads``."""
    if min(num_edges, l3_misses, tlb_misses) < 0:
        raise SimulationError("negative event counts")
    if not 0.0 <= idle_percent < 100.0:
        raise SimulationError(f"idle_percent must be in [0, 100), got {idle_percent}")
    cycles = (
        num_edges * CYCLES_PER_EDGE
        + l3_misses * CYCLES_PER_L3_MISS
        + tlb_misses * CYCLES_PER_TLB_MISS
    )
    parallel_cycles = cycles / num_threads
    effective = parallel_cycles / (1.0 - idle_percent / 100.0)
    return effective / (CLOCK_GHZ * 1e9) * 1e3

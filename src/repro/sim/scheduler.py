"""Work-stealing execution model for idle-time estimation.

Table IV of the paper reports per-thread idle percentages and observes
that "improving locality of a graph dataset by a RA may increase the
idle time" because RAs change locality unevenly across the vertex
ranges that become thread partitions.  This module reproduces that
effect with a deterministic discrete-event model: each thread owns the
chunks of its partition, chunk costs come from the cache simulation
(edges processed plus miss penalties), and idle threads steal from the
most-loaded victim.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError

__all__ = [
    "ScheduleResult",
    "simulate_work_stealing",
    "cost_balanced_chunks",
]

# Work units per thread, matching the fine-grained edge-balanced
# partitioning of the paper's runtime (Section III-B).
WORK_UNITS_PER_THREAD = 64


@dataclass(frozen=True)
class ScheduleResult:
    """Outcome of one work-stealing schedule."""

    makespan: float
    busy_time: np.ndarray  # per thread
    finish_time: np.ndarray  # per thread
    num_steals: int

    @property
    def num_threads(self) -> int:
        return self.busy_time.shape[0]

    @property
    def idle_percent(self) -> float:
        """Average percentage of the makespan each thread sits idle."""
        if self.makespan <= 0:
            return 0.0
        idle = (self.makespan - self.busy_time) / self.makespan
        return float(idle.mean() * 100.0)


def cost_balanced_chunks(
    per_vertex_cost: np.ndarray, boundaries: np.ndarray
) -> list[np.ndarray]:
    """Cut partitions into chunks of roughly equal *cost*.

    Fixed vertex-count chunks make a hub-dense partition collapse into a
    couple of enormous work units; real runtimes split work by edges.
    Each chunk greedily accumulates consecutive vertices until it reaches
    ``total_cost / (num_threads * WORK_UNITS_PER_THREAD)`` — a single vertex
    may still exceed the cap (vertices are atomic work).
    """
    per_vertex_cost = np.asarray(per_vertex_cost, dtype=np.float64)
    num_threads = boundaries.shape[0] - 1
    total = per_vertex_cost.sum()
    cap = max(total / max(1, num_threads * WORK_UNITS_PER_THREAD), 1e-12)
    costs: list[np.ndarray] = []
    for p in range(num_threads):
        lo, hi = int(boundaries[p]), int(boundaries[p + 1])
        part = per_vertex_cost[lo:hi]
        chunks: list[float] = []
        current = 0.0
        for cost in part.tolist():
            current += cost
            if current >= cap:
                chunks.append(current)
                current = 0.0
        if current > 0.0 or not chunks:
            chunks.append(current)
        costs.append(np.asarray(chunks, dtype=np.float64))
    return costs


def simulate_work_stealing(
    thread_chunks: list[np.ndarray], *, steal_cost: float = 0.0
) -> ScheduleResult:
    """Deterministic work-stealing schedule over per-thread chunk queues.

    Threads execute their own chunks front-to-back.  A thread with an
    empty queue steals the back half of the queue of the victim with the
    most remaining cost; when nothing is left to steal it finishes.
    ``steal_cost`` adds a fixed overhead per successful steal.
    """
    num_threads = len(thread_chunks)
    if num_threads == 0:
        raise SimulationError("need at least one thread")
    queues: list[list[float]] = [list(map(float, chunks)) for chunks in thread_chunks]
    remaining = [sum(q) for q in queues]
    current = np.zeros(num_threads, dtype=np.float64)
    busy = np.zeros(num_threads, dtype=np.float64)
    finish = np.full(num_threads, -1.0, dtype=np.float64)
    active = set(range(num_threads))
    steals = 0

    while active:
        # Advance the active thread that is earliest in simulated time.
        t = min(active, key=lambda idx: (current[idx], idx))
        if queues[t]:
            cost = queues[t].pop(0)
            remaining[t] -= cost
            current[t] += cost
            busy[t] += cost
            continue
        # Steal from the victim with the most remaining work.
        victim = max(range(num_threads), key=lambda idx: (remaining[idx], -idx))
        if remaining[victim] <= 0 or len(queues[victim]) == 0:
            finish[t] = current[t]
            active.discard(t)
            continue
        half = max(1, len(queues[victim]) // 2)
        stolen = queues[victim][-half:]
        del queues[victim][-half:]
        stolen_cost = sum(stolen)
        remaining[victim] -= stolen_cost
        remaining[t] += stolen_cost
        queues[t].extend(stolen)
        current[t] += steal_cost
        steals += 1
        # The thief immediately executes one stolen chunk.  Without this
        # two otherwise-idle threads can livelock, re-stealing the last
        # chunk from each other forever; a real work-stealing deque pops
        # the stolen item before anyone can steal it back.
        cost = queues[t].pop(0)
        remaining[t] -= cost
        current[t] += cost
        busy[t] += cost

    makespan = float(finish.max()) if num_threads else 0.0
    return ScheduleResult(
        makespan=makespan, busy_time=busy, finish_time=finish, num_steals=steals
    )

"""Parallel traversal modelling: partitioning and trace interleaving.

The paper's environment processes edge-balanced graph partitions with
work stealing (Section III-B), and its parallel cache simulation logs
accesses per thread and then "divides execution duration between
threads where for each interval a thread simulates all logged accesses
by parallel threads in a round robin way" (Section V-B).  This module
implements both halves: contiguous edge-balanced vertex partitions, and
round-robin interval interleaving of per-thread traces into the single
stream the shared-cache simulator consumes.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.errors import SimulationError
from repro.graph.graph import Graph
from repro.obs import span
from repro.sim.trace import MemoryTrace

__all__ = [
    "edge_balanced_partitions",
    "interleave_stream",
    "partition_edge_counts",
]


def edge_balanced_partitions(graph: Graph, num_parts: int, *, direction: str = "pull") -> np.ndarray:
    """Contiguous vertex ranges with roughly equal edge counts.

    Returns ``num_parts + 1`` boundaries; partition ``p`` is the vertex
    range ``[boundaries[p], boundaries[p + 1])``.  Balancing follows the
    edge-balanced partitioning of GraphGrind cited by the paper.
    """
    if num_parts <= 0:
        raise SimulationError(f"num_parts must be positive, got {num_parts}")
    adj = graph.in_adj if direction == "pull" else graph.out_adj
    if direction not in ("pull", "push"):
        raise SimulationError(f"direction must be 'pull' or 'push', got {direction!r}")
    total_edges = adj.num_edges
    targets = np.arange(1, num_parts, dtype=np.float64) * total_edges / num_parts
    cuts = np.searchsorted(adj.offsets, targets, side="left")
    boundaries = np.empty(num_parts + 1, dtype=np.int64)
    boundaries[0] = 0
    boundaries[1:-1] = np.minimum(cuts, graph.num_vertices)
    boundaries[-1] = graph.num_vertices
    return np.maximum.accumulate(boundaries)


def partition_edge_counts(graph: Graph, boundaries: np.ndarray, *, direction: str = "pull") -> np.ndarray:
    """Edges per partition for the given boundaries."""
    adj = graph.in_adj if direction == "pull" else graph.out_adj
    return np.diff(adj.offsets[boundaries])


def interleave_stream(
    sources: "list[Iterable[MemoryTrace]]",
    interval: int,
    *,
    batch_accesses: int = 1 << 20,
) -> Iterator[tuple[MemoryTrace, np.ndarray]]:
    """Merge per-thread *chunk streams* round-robin in blocks of ``interval``.

    Thread 0 contributes its first ``interval`` accesses, then thread 1,
    ... wrapping around until every stream is drained (threads that run
    out simply stop contributing, like a thread that finished early).
    Each source is an iterable of :class:`MemoryTrace` blocks (typically
    :func:`repro.sim.trace.spmv_trace_chunks` over one thread partition).
    Yields ``(merged_chunk, thread_ids)`` pairs whose concatenation is
    the merge of the fully materialized per-thread traces, while only
    ever buffering ~``batch_accesses`` accesses.

    Correctness hinges on emitting only *complete rounds*: a batch
    contains every access with round index below ``r_safe`` — the
    minimum of ``(consumed + buffered) // interval`` over threads whose
    stream may still produce more accesses.  Threads that finished early
    also emit at most up to ``r_safe`` rounds, because their remaining
    accesses belong to later rounds that slower threads must fill first.
    Within a batch the merge key (``round * num_threads + thread``,
    stable sort, thread-order concatenation) matches the reference
    exactly, so each batch is a contiguous slice of the reference output.
    """
    if not sources:
        raise SimulationError("need at least one trace stream to interleave")
    if interval <= 0:
        raise SimulationError(f"interval must be positive, got {interval}")
    if batch_accesses <= 0:
        raise SimulationError(f"batch_accesses must be positive, got {batch_accesses}")
    num_threads = len(sources)
    streams = [iter(s) for s in sources]
    alive = [True] * num_threads
    # Per-thread buffer of (lines, kinds, read_vertex, proc_vertex) blocks.
    bufs: list[list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]] = [
        [] for _ in range(num_threads)
    ]
    buffered = [0] * num_threads
    consumed = [0] * num_threads
    space = None

    def _pull(t: int) -> None:
        nonlocal space
        try:
            chunk = next(streams[t])
        except StopIteration:
            alive[t] = False
            return
        if space is None:
            space = chunk.space
        if len(chunk):
            bufs[t].append((chunk.lines, chunk.kinds, chunk.read_vertex, chunk.proc_vertex))
            buffered[t] += len(chunk)

    def _take(t: int, want: int) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        taken: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
        left = want
        while left > 0:
            block = bufs[t][0]
            size = block[0].shape[0]
            if size <= left:
                taken.append(bufs[t].pop(0))
                left -= size
            else:
                taken.append(tuple(arr[:left] for arr in block))  # type: ignore[arg-type]
                bufs[t][0] = tuple(arr[left:] for arr in block)  # type: ignore[assignment]
                left = 0
        buffered[t] -= want
        return taken

    # Each alive thread is topped up to >= one interval past the current
    # round frontier, so r_safe strictly advances every iteration and the
    # loop terminates once all streams drain.
    target = max(interval, batch_accesses // num_threads)
    while True:
        for t in range(num_threads):
            while alive[t] and buffered[t] < target:
                _pull(t)
        if any(alive):
            r_safe = min(
                (consumed[t] + buffered[t]) // interval
                for t in range(num_threads)
                if alive[t]
            )
            counts = [
                min(buffered[t], max(0, r_safe * interval - consumed[t]))
                for t in range(num_threads)
            ]
        else:
            counts = list(buffered)
        total = sum(counts)
        if total == 0:
            if not any(alive):
                return
            continue

        with span("sim.interleave"):
            part_arrays: list[list[np.ndarray]] = [[], [], [], []]
            rounds_parts: list[np.ndarray] = []
            threads_parts: list[np.ndarray] = []
            for t in range(num_threads):
                k = counts[t]
                if not k:
                    continue
                local = consumed[t] + np.arange(k, dtype=np.int64)
                rounds_parts.append(local // interval)
                threads_parts.append(np.full(k, t, dtype=np.int64))
                for blk in _take(t, k):
                    for slot, arr in zip(part_arrays, blk):
                        slot.append(arr)
                consumed[t] += k
            rounds = np.concatenate(rounds_parts)
            threads = np.concatenate(threads_parts)
            # Sort key (round, thread); the stable sort keeps each
            # thread's program order within a round.
            order = np.argsort(rounds * num_threads + threads, kind="stable")
            assert space is not None
            merged = MemoryTrace(
                lines=np.concatenate(part_arrays[0])[order],
                kinds=np.concatenate(part_arrays[1])[order],
                read_vertex=np.concatenate(part_arrays[2])[order],
                proc_vertex=np.concatenate(part_arrays[3])[order],
                space=space,
            )
        yield merged, threads[order]
        if not any(alive) and not any(buffered):
            return

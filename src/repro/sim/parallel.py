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
from repro.sim.address_space import AddressSpace
from repro.sim.trace import MemoryTrace

__all__ = ["edge_balanced_partitions", "interleave_stream"]

# Accesses each thread contributes per turn of the Section V-B
# round-robin interleave.
ROUND_ROBIN_INTERVAL = 64


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
    ever buffering ~``batch_accesses`` accesses.  Thread ids are the
    narrowest signed dtype that holds every id and ``-1``.

    Correctness hinges on emitting only *complete rounds*: a batch
    contains every access with round index below ``r_safe`` — the
    minimum of ``(consumed + buffered) // interval`` over threads whose
    stream may still produce more accesses.  Threads that finished early
    also emit at most up to ``r_safe`` rounds, because their remaining
    accesses belong to later rounds that slower threads must fill first.
    Within a batch the order is (round, thread, program order), so each
    batch is a contiguous slice of the reference output.
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
    bufs: list[list[tuple[np.ndarray, ...]]] = [[] for _ in range(num_threads)]
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

    def _take(t: int, want: int) -> list[tuple[np.ndarray, ...]]:
        taken: list[tuple[np.ndarray, ...]] = []
        left = want
        while left > 0:
            block = bufs[t][0]
            size = block[0].shape[0]
            if size <= left:
                taken.append(bufs[t].pop(0))
                left -= size
            else:
                taken.append(tuple(arr[:left] for arr in block))
                bufs[t][0] = tuple(arr[left:] for arr in block)
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
        if sum(counts) == 0:
            if not any(alive):
                return
            continue

        assert space is not None
        firsts = list(consumed)
        for t in range(num_threads):
            consumed[t] += counts[t]
        # Built and yielded in one expression, so this frame holds no
        # reference to a batch while the consumer works on it.
        yield _merge_rounds(
            [_take(t, counts[t]) for t in range(num_threads)],
            firsts,
            interval,
            space,
        )
        if not any(alive) and not any(buffered):
            return


def _merge_rounds(
    blocks: list[list[tuple[np.ndarray, ...]]],
    firsts: list[int],
    interval: int,
    space: AddressSpace,
) -> tuple[MemoryTrace, np.ndarray]:
    """Scatter each thread's accesses to their round-robin slots.

    ``blocks[t]`` are thread ``t``'s next accesses in program order, the
    first of them at thread-local index ``firsts[t]``.  The output is
    ordered by (round, thread, program order), so each (round, thread)
    cell is one contiguous run; its offset comes from a prefix sum over
    the small rounds x threads table of cell sizes.  No sort and no
    per-access round or thread key is needed.
    """
    with span("sim.interleave"):
        num_threads = len(blocks)
        first = np.array(firsts, dtype=np.int64)
        count = np.array(
            [sum(block[0].shape[0] for block in taken) for taken in blocks],
            dtype=np.int64,
        )
        busy = count > 0
        r_lo = int((first[busy] // interval).min())
        r_hi = int(((first + count - 1)[busy] // interval).max()) + 1
        round_start = np.arange(r_lo, r_hi, dtype=np.int64)[:, None] * interval
        lo = np.maximum(round_start, first)
        size = np.minimum(round_start + interval, first + count) - lo
        np.maximum(size, 0, out=size)
        # Output offset of each (round, thread) cell, round-major.
        offset = (np.cumsum(size, axis=None) - size.ravel()).reshape(size.shape)
        # Slot of thread-local index g in round r: offset[r, t] + g - lo[r, t].
        shift = offset - lo

        dtypes = [
            np.result_type(*{arr.dtype for arr in field})
            for field in zip(*(block for taken in blocks for block in taken))
        ]
        total = int(count.sum())
        out = [np.empty(total, dtype=dtype) for dtype in dtypes]
        thread_ids = np.empty(total, dtype=np.min_scalar_type(-num_threads))
        for t, taken in enumerate(blocks):
            if not count[t]:
                continue
            slots = np.repeat(shift[:, t], size[:, t])
            slots += np.arange(first[t], first[t] + count[t], dtype=np.int64)
            thread_ids[slots] = t
            done = 0
            for block in taken:
                where = slots[done : done + block[0].shape[0]]
                for dst, src in zip(out, block):
                    dst[where] = src
                done += where.shape[0]
            taken.clear()
        return MemoryTrace(*out, space=space), thread_ids

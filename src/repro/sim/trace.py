"""SpMV memory-access trace generation.

Reproduces the paper's instrumentation of Algorithm 1 "at source code
level to call the simulator for every load/store" (Section V-B), but
generates the access stream as numpy arrays, in bounded chunks, so the
cache simulator can consume it in tight loops.

Per processed vertex ``v`` the pull traversal emits, in program order:

1. a read of ``offsets[v]`` / ``offsets[v+1]`` (sequential),
2. per incoming edge: a read of the ``edges`` element (sequential
   stream) followed by the **random read** of the neighbour's data
   ``Di[u]``,
3. the write of ``Di+1[v]`` (sequential).

Sequential streams are emitted at cache-line granularity: intra-line
re-reads are guaranteed hits and are not replayed individually; instead
each newly-entered ``edges`` line is emitted twice (access + one
promotion) so recency-based policies observe the stream's short burst of
reuse.  Random reads are emitted one per edge — they are the accesses
every metric in the paper attributes and bins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from repro.errors import SimulationError
from repro.graph.graph import Graph

from repro.sim.address_space import AddressSpace, Region

__all__ = ["MemoryTrace", "spmv_trace", "spmv_trace_chunks", "concatenate_traces"]


def _vertex_dtype(num_vertices: int) -> type:
    """Narrowest dtype of a trace's vertex fields: every ID and ``-1``."""
    return np.int32 if num_vertices <= np.iinfo(np.int32).max else np.int64


@dataclass
class MemoryTrace:
    """A flat access stream plus per-access attribution.

    Attributes
    ----------
    lines:
        Cache-line ID of each access, in program order.
    kinds:
        Region code of each access (:class:`~repro.sim.address_space.Region`).
    read_vertex:
        For random vertex-data accesses, the vertex whose data is
        touched (``u`` in Algorithm 1); ``-1`` elsewhere.
    proc_vertex:
        The vertex being processed (``v``) when the access was issued.
        Generated traces store both vertex fields as int32 (int64 past
        2**31 - 1 vertices).
    space:
        The address space the line IDs refer to.
    """

    lines: np.ndarray
    kinds: np.ndarray
    read_vertex: np.ndarray
    proc_vertex: np.ndarray
    space: AddressSpace

    def __post_init__(self) -> None:
        n = self.lines.shape[0]
        for arr in (self.kinds, self.read_vertex, self.proc_vertex):
            if arr.shape[0] != n:
                raise SimulationError("trace arrays must have equal length")

    def __len__(self) -> int:
        return self.lines.shape[0]

    @property
    def num_random_accesses(self) -> int:
        return int((self.kinds == Region.VERTEX_DATA).sum())

    def random_mask(self) -> np.ndarray:
        """Boolean mask of the random vertex-data accesses."""
        return self.kinds == Region.VERTEX_DATA


def _resolve_direction(graph: Graph, direction: str) -> tuple:
    """``(adjacency, random_region)`` for a traversal direction."""
    if direction == "pull":
        return graph.in_adj, Region.VERTEX_DATA
    if direction == "push":
        return graph.out_adj, Region.VERTEX_OUT
    raise SimulationError(f"direction must be 'pull' or 'push', got {direction!r}")


@dataclass
class _DedupCarry:
    """Last raw line of each sequential part stream, carried across chunks.

    The sequential dedup rule keeps element ``i`` iff its line differs
    from element ``i-1``'s — over the *whole* vertex range, so a chunked
    generation must remember the previous chunk's last raw (pre-dedup)
    line per stream.  ``-1`` (no previous element) keeps the first one.
    """

    off_line: int = -1
    edge_line: int = -1
    own_line: int = -1


def _range_parts(
    graph: Graph,
    space: AddressSpace,
    direction: str,
    start: int,
    end: int,
    carry: _DedupCarry,
) -> tuple[list[np.ndarray], list[np.ndarray], list[np.ndarray], list[np.ndarray], list[np.ndarray]]:
    """Unsorted trace parts (+ sort positions) for vertices ``[start, end)``.

    Mutates ``carry`` to the last raw line of each sequential stream so a
    following call continues the dedup exactly where this one stopped.
    Part order is significant: the stable position sort breaks ties by
    part order, and ties only ever occur *within* one access kind (the
    mod-10 position residues are distinct per kind), where part-internal
    index order is already correct.
    """
    adj, random_region = _resolve_direction(graph, direction)
    offsets = adj.offsets
    vdtype = _vertex_dtype(graph.num_vertices)
    vertices = np.arange(start, end, dtype=np.int64)
    vertex_ids = vertices.astype(vdtype)
    edge_lo, edge_hi = int(offsets[start]), int(offsets[end])
    edge_indices = np.arange(edge_lo, edge_hi, dtype=np.int64)
    neighbour = adj.targets[edge_lo:edge_hi]
    degrees = np.diff(offsets[start : end + 1])
    processed = np.repeat(vertex_ids, degrees)

    parts_lines: list[np.ndarray] = []
    parts_kinds: list[np.ndarray] = []
    parts_read: list[np.ndarray] = []
    parts_proc: list[np.ndarray] = []
    parts_pos: list[np.ndarray] = []

    def _add(
        lines: np.ndarray,
        kind: int,
        read_v: np.ndarray,
        proc_v: np.ndarray,
        pos: np.ndarray,
    ) -> None:
        parts_lines.append(lines)
        parts_kinds.append(np.full(lines.shape[0], kind, dtype=np.uint8))
        parts_read.append(read_v)
        parts_proc.append(proc_v)
        parts_pos.append(pos)

    minus_one = lambda k: np.full(k, -1, dtype=vdtype)  # noqa: E731

    # Offsets reads: one access per newly-entered offsets line, ordered
    # just before the vertex's first edge.
    if vertices.size:
        off_lines = space.offsets_lines(vertices)
        keep = np.ones(vertices.size, dtype=bool)
        keep[0] = int(off_lines[0]) != carry.off_line
        keep[1:] = off_lines[1:] != off_lines[:-1]
        carry.off_line = int(off_lines[-1])
        pos = offsets[vertices] * 10
        _add(off_lines[keep], Region.OFFSETS, minus_one(int(keep.sum())),
             vertex_ids[keep], pos[keep])

    # Edge-array stream: emit on line transitions, each twice (access +
    # promotion).
    if edge_indices.size:
        e_lines = space.edges_lines(edge_indices)
        keep = np.ones(edge_indices.size, dtype=bool)
        keep[0] = int(e_lines[0]) != carry.edge_line
        keep[1:] = e_lines[1:] != e_lines[:-1]
        carry.edge_line = int(e_lines[-1])
        kept_lines = e_lines[keep]
        kept_proc = processed[keep]
        kept_pos = edge_indices[keep] * 10 + 1
        _add(kept_lines, Region.EDGES, minus_one(kept_lines.size), kept_proc, kept_pos)
        _add(kept_lines.copy(), Region.EDGES, minus_one(kept_lines.size),
             kept_proc.copy(), kept_pos + 1)

    # Random accesses to neighbour data: one per edge, always emitted.
    if edge_indices.size:
        if direction == "pull":
            d_lines = space.data_lines(neighbour)
        else:
            d_lines = space.out_lines(neighbour)
        _add(d_lines, random_region, neighbour.astype(vdtype), processed,
             edge_indices * 10 + 5)

    # Own-vertex data access: the Di+1[v] write in pull, the Di[v] read
    # in push; sequential either way, emitted on line transitions after
    # the vertex's last edge.
    if vertices.size:
        if direction == "pull":
            own_lines = space.out_lines(vertices)
            own_region = int(Region.VERTEX_OUT)
        else:
            own_lines = space.data_lines(vertices)
            own_region = int(Region.VERTEX_DATA)
        keep = np.ones(vertices.size, dtype=bool)
        keep[0] = int(own_lines[0]) != carry.own_line
        keep[1:] = own_lines[1:] != own_lines[:-1]
        carry.own_line = int(own_lines[-1])
        pos = offsets[vertices + 1] * 10 + 9
        _add(own_lines[keep], own_region, minus_one(int(keep.sum())),
             vertex_ids[keep], pos[keep])

    return parts_lines, parts_kinds, parts_read, parts_proc, parts_pos


def _resolve_range(
    graph: Graph, vertex_range: tuple[int, int] | None
) -> tuple[int, int]:
    n = graph.num_vertices
    if vertex_range is None:
        return 0, n
    start, end = vertex_range
    if not (0 <= start <= end <= n):
        raise SimulationError(f"vertex_range {vertex_range} outside [0, {n}]")
    return start, end


def _empty_trace(space: AddressSpace, num_vertices: int) -> MemoryTrace:
    empty = np.zeros(0, dtype=_vertex_dtype(num_vertices))
    return MemoryTrace(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.uint8),
                       empty, empty.copy(), space)


def spmv_trace(
    graph: Graph,
    space: AddressSpace | None = None,
    *,
    direction: str = "pull",
    vertex_range: tuple[int, int] | None = None,
) -> MemoryTrace:
    """Generate the SpMV access trace of one traversal (or a slice of it).

    Parameters
    ----------
    direction:
        ``"pull"`` — CSC traversal, random *reads* of in-neighbour data
        (Algorithm 1); ``"push"`` — CSR traversal, random *writes* of
        out-neighbour data.
    vertex_range:
        Half-open ``[start, end)`` slice of the processing order; used by
        the parallel simulation to emit one trace per thread partition.
    """
    if space is None:
        space = AddressSpace(graph.num_vertices, graph.num_edges)
    # A budget of ~3 accesses per edge and vertex makes the whole range
    # one chunk (see the budgets in spmv_trace_chunks).
    chunks = list(
        spmv_trace_chunks(
            graph,
            space,
            direction=direction,
            vertex_range=vertex_range,
            max_accesses=3 * (graph.num_edges + graph.num_vertices) + 3,
        )
    )
    if not chunks:
        return _empty_trace(space, graph.num_vertices)
    return concatenate_traces(chunks)


def spmv_trace_chunks(
    graph: Graph,
    space: AddressSpace | None = None,
    *,
    direction: str = "pull",
    vertex_range: tuple[int, int] | None = None,
    max_accesses: int = 1 << 20,
) -> Iterator[MemoryTrace]:
    """Stream the SpMV trace as bounded :class:`MemoryTrace` blocks.

    Concatenating the yielded blocks reproduces :func:`spmv_trace` for
    the same arguments **bit-exactly**, but peak memory is O(chunk)
    instead of O(edges): each block covers a contiguous vertex
    sub-range sized to roughly ``max_accesses`` accesses.

    Two mechanisms keep the chunk seams invisible:

    1. **Dedup carry** — the sequential-stream dedup masks compare each
       chunk's first line against the previous chunk's last raw line
       (:class:`_DedupCarry`), not against nothing.
    2. **Pending buffer** — a boundary vertex's trailing accesses (its
       own-vertex write at position ``offsets[b]*10+9``, and zero-degree
       offsets reads at ``offsets[b]*10``) sort *after* the next chunk's
       first accesses.  Such accesses (position >= the next chunk's
       ``offsets[b]*10`` cut) are held back and prepended as the first
       part of the next chunk before its stable sort; ties only occur
       within one access kind, where the held-back accesses have lower
       vertex indices and part order reproduces the global tie-break.
    """
    _resolve_direction(graph, direction)  # validate early
    if space is None:
        space = AddressSpace(graph.num_vertices, graph.num_edges)
    start, end = _resolve_range(graph, vertex_range)
    if max_accesses <= 0:
        raise SimulationError(f"max_accesses must be positive, got {max_accesses}")
    if start == end:
        return

    adj, _ = _resolve_direction(graph, direction)
    offsets = adj.offsets
    # ~3 accesses per edge (edge read + promotion + random) dominates; a
    # vertex budget bounds chunks over long zero-degree runs.
    edge_budget = max(1, max_accesses // 3)
    vertex_budget = max(1, max_accesses // 2)

    carry = _DedupCarry()
    vdtype = _vertex_dtype(graph.num_vertices)
    # Held-back accesses as (lines, kinds, read, proc, positions).
    pending: tuple[np.ndarray, ...] = (
        np.zeros(0, dtype=np.int64),
        np.zeros(0, dtype=np.uint8),
        np.zeros(0, dtype=vdtype),
        np.zeros(0, dtype=vdtype),
        np.zeros(0, dtype=np.int64),
    )

    a = start
    while a < end:
        b = int(
            np.searchsorted(offsets, int(offsets[a]) + edge_budget, side="right")
        ) - 1
        b = min(max(b, a + 1), end, a + vertex_budget)
        # Hold back the sorted suffix at positions >= the next chunk's
        # first possible position.
        cut = int(offsets[b]) * 10 if b < end else None
        chunk, pending = _sorted_chunk(
            _range_parts(graph, space, direction, a, b, carry),
            pending,
            cut,
            space,
        )
        a = b
        if chunk is not None:
            yield chunk


def _sorted_chunk(
    parts: tuple[list[np.ndarray], ...],
    pending: tuple[np.ndarray, ...],
    cut: int | None,
    space: AddressSpace,
) -> tuple[MemoryTrace | None, tuple[np.ndarray, ...]]:
    """Sort one chunk's parts by position; split off the new pending tail.

    ``parts`` are :func:`_range_parts`'s five lists, ``pending`` the
    previous chunk's held-back accesses.  Returns the accesses before
    ``cut`` (all of them when ``cut`` is None; None if there are none)
    and the held-back rest.  The parts, the sort order and the sorted
    positions die with this call, and the rest is copied, so a
    suspended generator pins nothing but the chunk it yielded.
    """
    # The pending part goes *first* so the stable sort puts held-back
    # accesses ahead of this chunk's on position ties (lower indices).
    for field, held in zip(parts, pending):
        field.insert(0, held)
    positions = np.concatenate(parts[4])
    parts[4].clear()
    order = np.argsort(positions, kind="stable")
    positions = positions[order]
    emit = positions.shape[0]
    if cut is not None:
        emit = int(np.searchsorted(positions, cut, side="left"))
    fields: list[np.ndarray] = []
    for field in parts[:4]:
        fields.append(np.concatenate(field)[order])
        field.clear()
    fields.append(positions)
    tail = tuple(arr[emit:].copy() for arr in fields)
    if not emit:
        return None, tail
    return MemoryTrace(*(arr[:emit] for arr in fields[:4]), space=space), tail


def concatenate_traces(traces: "Iterable[MemoryTrace]") -> MemoryTrace:
    """Join traces back-to-back (they must share an address space)."""
    materialized = list(traces)
    if not materialized:
        raise SimulationError("cannot concatenate zero traces")
    space = materialized[0].space
    if any(t.space is not space and t.space != space for t in materialized):
        raise SimulationError("traces use different address spaces")
    return MemoryTrace(
        lines=np.concatenate([t.lines for t in materialized]),
        kinds=np.concatenate([t.kinds for t in materialized]),
        read_vertex=np.concatenate([t.read_vertex for t in materialized]),
        proc_vertex=np.concatenate([t.proc_vertex for t in materialized]),
        space=space,
    )

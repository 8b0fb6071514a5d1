"""End-to-end graph-specific cache simulation (Section V-B of the paper).

:func:`simulate_spmv` performs the paper's two-phase parallel
simulation: (1) log memory accesses per thread partition, (2) interleave
the per-thread logs round-robin per interval and replay them through a
simulated shared L3 (and optionally a DTLB).  Both phases stream: trace
chunks -> round-robin merge -> one-cache replay, each holding
O(``chunk_accesses``) accesses at a time.  Everything the
paper's metrics read off the per-access outcome is folded in chunk by
chunk, so the returned :class:`SimulationResult` is O(V + scans):
per-region counters, per-vertex access and miss counts under both
attributions, the per-region count of resident lines at each Effective
Cache Size scan and TLB misses.
:func:`simulate_spmv_group` gives the same results for many cells of
one cache config, their L3 replays run together in lockstep.
:func:`count_locality_types` classifies the same merged stream's reuses
into locality types I–V without replaying any cache: the types depend
on who last touched a line, never on whether the access hit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator

import numpy as np

from repro.errors import SimulationError
from repro.graph.graph import Graph
from repro.obs import enabled as obs_enabled
from repro.obs import metrics as obs_metrics
from repro.obs import span

from repro.sim.address_space import AddressSpace, Region
from repro.sim.cache import CacheConfig, Replay, SetAssociativeCache, replay_group
from repro.sim.parallel import (
    ROUND_ROBIN_INTERVAL,
    edge_balanced_partitions,
    interleave_stream,
)
from repro.sim.scheduler import (
    ScheduleResult,
    cost_balanced_chunks,
    simulate_work_stealing,
)
from repro.sim.stats import (
    LocalityTypeClassifier,
    LocalityTypeCounts,
    VertexAccessStats,
    vertex_counts,
)
from repro.sim.timing import CYCLES_PER_EDGE, CYCLES_PER_L3_MISS, traversal_time_ms
from repro.sim.tlb import TLBConfig, lines_to_pages, tlb_cache
from repro.sim.trace import MemoryTrace, spmv_trace_chunks

__all__ = [
    "SimulationConfig",
    "SimulationResult",
    "count_locality_types",
    "simulate_spmv",
    "simulate_spmv_group",
    "simulate_spmv_streamed",
]


#: Accesses per merged trace chunk, unless a caller picks its own.
_CHUNK_ACCESSES = 1 << 20


@dataclass(frozen=True)
class SimulationConfig:
    """Everything that parameterizes one SpMV simulation.

    Each field has a second caller or an oracle that sets it; the rest
    of the model is module constants (DESIGN.md §6).
    """

    cache: CacheConfig
    tlb: TLBConfig | None = None
    num_threads: int = 8
    scan_interval: int = 0
    direction: str = "pull"

    def __post_init__(self) -> None:
        if self.num_threads <= 0:
            raise SimulationError("num_threads must be positive")
        if self.scan_interval < 0:
            raise SimulationError("scan_interval must be >= 0 (0 takes no scans)")
        if self.direction not in ("pull", "push"):
            raise SimulationError(
                f"direction must be 'pull' or 'push', got {self.direction!r}"
            )

    @classmethod
    def scaled_for(
        cls,
        graph: "Graph | AddressSpace",
        *,
        pressure: float = 0.08,
        scan_interval: int = 0,
        direction: str = "pull",
        policy: str = "drrip",
    ) -> "SimulationConfig":
        """Config whose cache/TLB are scaled to the graph's vertex count
        (DESIGN.md §2), which a stored run's address space also gives."""
        return cls(
            cache=CacheConfig.scaled_for(
                graph.num_vertices, pressure=pressure, policy=policy
            ),
            tlb=TLBConfig.scaled_for(graph.num_vertices),
            scan_interval=scan_interval,
            direction=direction,
        )


@dataclass
class SimulationResult:
    """Outcome of one simulated parallel SpMV traversal, O(V + scans).

    ``in_degrees``/``out_degrees`` are the simulated graph's, the only
    part of it the timing model and the per-degree metrics read.
    ``region_accesses``/``region_hits`` count accesses and hits per
    :class:`~repro.sim.address_space.Region`; ``read_stats`` and
    ``proc_stats`` attribute the random accesses and their misses per
    vertex (see :mod:`repro.sim.stats`).  ``scan_region_counts`` is an
    int64 ``(scans, Region.COUNT)`` matrix: row ``i`` counts the lines
    resident at the ``i``-th ECS scan per region, the one thing the
    Effective Cache Size reads of them.  Locality types are not part of
    it: :func:`count_locality_types` reads them off the trace alone.
    """

    in_degrees: np.ndarray
    out_degrees: np.ndarray
    config: SimulationConfig
    space: AddressSpace
    region_accesses: np.ndarray
    region_hits: np.ndarray
    read_stats: VertexAccessStats
    proc_stats: VertexAccessStats
    scan_region_counts: np.ndarray
    tlb_misses: int
    partition_boundaries: np.ndarray

    # -- headline counters --------------------------------------------------

    @property
    def num_edges(self) -> int:
        return self.space.num_edges

    @property
    def num_accesses(self) -> int:
        return int(self.region_accesses.sum())

    @property
    def num_hits(self) -> int:
        return int(self.region_hits.sum())

    @property
    def l3_misses(self) -> int:
        return self.num_accesses - self.num_hits

    @property
    def random_region(self) -> int:
        return _random_region(self.config)

    @property
    def random_accesses(self) -> int:
        return int(self.region_accesses[self.random_region])

    @property
    def random_misses(self) -> int:
        return self.random_accesses - int(self.region_hits[self.random_region])

    @property
    def random_miss_rate(self) -> float:
        accesses = self.random_accesses
        if accesses == 0:
            return 0.0
        return self.random_misses / accesses

    # -- attribution ---------------------------------------------------------

    def random_stats(self, by: str = "read") -> VertexAccessStats:
        """Per-vertex random-access stats (see :mod:`repro.sim.stats`)."""
        if by == "read":
            return self.read_stats
        if by == "proc":
            return self.proc_stats
        raise SimulationError(f"attribution must be 'read' or 'proc', got {by!r}")

    # -- effective cache size --------------------------------------------------

    def effective_cache_size_samples(self) -> np.ndarray:
        """Per-scan percentage of capacity holding random-access data."""
        capacity = self.config.cache.num_lines
        return self.scan_region_counts[:, self.random_region] / capacity * 100.0

    def effective_cache_size(self) -> float:
        """Average ECS percentage over all scans (Table V)."""
        samples = self.effective_cache_size_samples()
        if samples.size == 0:
            raise SimulationError(
                "no ECS scans recorded; run with scan_interval > 0 to measure ECS"
            )
        return float(samples.mean())

    # -- scheduling / timing --------------------------------------------------

    def per_vertex_cost(self) -> np.ndarray:
        """Simulated cycles each vertex's processing consumes."""
        degrees = self.in_degrees if self.config.direction == "pull" else self.out_degrees
        return (
            degrees.astype(np.float64) * CYCLES_PER_EDGE
            + self.proc_stats.misses.astype(np.float64) * CYCLES_PER_L3_MISS
        )

    def schedule(self) -> ScheduleResult:
        """Work-stealing schedule of this traversal (idle % of Table IV)
        over cost-balanced chunks (:func:`cost_balanced_chunks`)."""
        return simulate_work_stealing(
            cost_balanced_chunks(self.per_vertex_cost(), self.partition_boundaries)
        )

    def traversal_time_ms(self) -> float:
        """Simulated traversal time (Table IV "Time" substitute)."""
        return traversal_time_ms(
            self.num_edges,
            self.l3_misses,
            self.tlb_misses,
            self.schedule().idle_percent,
            self.config.num_threads,
        )


def _random_region(config: SimulationConfig) -> int:
    """The region a traversal in ``config.direction`` accesses at random."""
    return Region.VERTEX_DATA if config.direction == "pull" else Region.VERTEX_OUT


def _in_spans(name: str, chunks: Iterable[MemoryTrace]) -> Iterator[MemoryTrace]:
    """Re-yield ``chunks``, producing each one inside a span called ``name``."""
    iterator = iter(chunks)
    while True:
        with span(name):
            chunk = next(iterator, None)
        if chunk is None:
            return
        yield chunk


def _attribute(
    chunk: MemoryTrace,
    hits: np.ndarray,
    random_region: int,
    region_outcomes: np.ndarray,
    by_read: np.ndarray,
    by_proc: np.ndarray,
) -> None:
    """Add one batch's outcomes to the per-region and per-vertex counters.

    Both attributions share one random-region mask and one miss array.
    """
    outcome = chunk.kinds * np.uint8(2)
    outcome += hits
    region_outcomes += np.bincount(outcome, minlength=2 * Region.COUNT).reshape(
        Region.COUNT, 2
    )
    mask = chunk.kinds == random_region
    missed = hits[mask] == 0
    for totals, field in ((by_read, chunk.read_vertex), (by_proc, chunk.proc_vertex)):
        accesses, misses = vertex_counts(field[mask], missed, totals.shape[1])
        totals[0] += accesses
        totals[1] += misses


def _partition(graph: Graph, config: SimulationConfig) -> "tuple[AddressSpace, np.ndarray]":
    """The traversal's address space and its thread partition boundaries."""
    with span("sim.partition"):
        space = AddressSpace(
            graph.num_vertices, graph.num_edges, line_size=config.cache.line_size
        )
        boundaries = edge_balanced_partitions(
            graph, config.num_threads, direction=config.direction
        )
    return space, boundaries


def _merged_chunks(
    graph: Graph,
    config: SimulationConfig,
    space: AddressSpace,
    boundaries: np.ndarray,
    chunk_accesses: int,
) -> "Iterator[tuple[MemoryTrace, np.ndarray]]":
    """Trace chunks of every thread partition, merged round-robin into
    batches of ~``chunk_accesses`` accesses (with each access's thread)."""
    sources = [
        _in_spans(
            "sim.trace",
            spmv_trace_chunks(
                graph,
                space,
                direction=config.direction,
                vertex_range=(int(boundaries[t]), int(boundaries[t + 1])),
                max_accesses=max(1, chunk_accesses // config.num_threads),
            ),
        )
        for t in range(config.num_threads)
    ]
    return interleave_stream(
        sources, ROUND_ROBIN_INTERVAL, batch_accesses=chunk_accesses
    )


def _traversal(
    graph: Graph,
    config: SimulationConfig,
    space: AddressSpace,
    boundaries: np.ndarray,
    l3: Callable[[np.ndarray], np.ndarray],
    snapshots: Callable[[], "list[np.ndarray]"],
    *,
    chunk_accesses: int,
) -> SimulationResult:
    """Stream one traversal's merged chunks and fold in their outcomes.

    ``l3`` gives each chunk's L3 hit bits from its line ids, in stream
    order; ``snapshots`` gives, once the stream has ended, the lines
    resident at each ECS scan.  The TLB is replayed alongside.
    """
    num_vertices = graph.num_vertices
    random_region = _random_region(config)
    # Rows: regions; columns: misses, hits.
    region_outcomes = np.zeros((Region.COUNT, 2), dtype=np.int64)
    # Rows: accesses, misses.
    by_read = np.zeros((2, num_vertices), dtype=np.int64)
    by_proc = np.zeros((2, num_vertices), dtype=np.int64)
    tlb = tlb_cache(config.tlb) if config.tlb is not None else None
    tlb_misses = 0
    for chunk, thread_ids in _merged_chunks(
        graph, config, space, boundaries, chunk_accesses
    ):
        hits = l3(chunk.lines)
        if tlb is not None and config.tlb is not None:
            with span("sim.tlb"):
                tlb_misses += tlb.simulate(
                    lines_to_pages(
                        chunk.lines, config.cache.line_size, config.tlb.page_size
                    )
                ).num_misses
        with span("sim.attribute"):
            _attribute(chunk, hits, random_region, region_outcomes, by_read, by_proc)
        # Drop this batch before the stream builds the next one.
        del chunk, thread_ids, hits

    region_accesses = region_outcomes.sum(axis=1)
    region_hits = region_outcomes[:, 1].copy()
    scan_region_counts = space.region_counts_batch(snapshots())
    if obs_enabled():
        obs_metrics.registry.counter("sim.accesses").inc(int(region_accesses.sum()))
        obs_metrics.registry.counter("sim.l3_misses").inc(
            int(region_outcomes[:, 0].sum())
        )
        obs_metrics.registry.counter("sim.tlb_misses").inc(tlb_misses)
    return SimulationResult(
        in_degrees=graph.in_degrees(),
        out_degrees=graph.out_degrees(),
        config=config,
        space=space,
        region_accesses=region_accesses,
        region_hits=region_hits,
        read_stats=VertexAccessStats(accesses=by_read[0], misses=by_read[1]),
        proc_stats=VertexAccessStats(accesses=by_proc[0], misses=by_proc[1]),
        scan_region_counts=scan_region_counts,
        tlb_misses=tlb_misses,
        partition_boundaries=boundaries,
    )


def _spmv_span(graph: Graph, config: SimulationConfig) -> Any:
    return span(
        "sim.spmv",
        vertices=graph.num_vertices,
        edges=graph.num_edges,
        policy=config.cache.policy,
        threads=config.num_threads,
    )


def simulate_spmv(
    graph: Graph,
    config: SimulationConfig,
    *,
    chunk_accesses: int = _CHUNK_ACCESSES,
) -> SimulationResult:
    """Simulate one parallel SpMV traversal of ``graph`` under ``config``.

    The pipeline is trace chunks (:func:`spmv_trace_chunks`, one stream
    per thread partition) -> round-robin interleave
    (:func:`interleave_stream`) -> one shared L3
    (:class:`~repro.sim.cache.Replay`, which also cuts the ECS
    snapshots), with the TLB replayed alongside.  Each merged chunk of
    ~``chunk_accesses`` accesses is attributed and dropped before the
    next one is built.  At the end the snapshots' resident lines are
    classified by region in one pass, and only those counts are kept.
    Results are bit-identical for every ``chunk_accesses``
    (``tests/test_trace_stream.py``).
    """
    with _spmv_span(graph, config):
        space, boundaries = _partition(graph, config)
        replay = Replay(config.cache, scan_interval=config.scan_interval)

        def l3(lines: np.ndarray) -> np.ndarray:
            with span("sim.cache", accesses=lines.shape[0]):
                return replay.feed(lines)

        return _traversal(
            graph,
            config,
            space,
            boundaries,
            l3,
            lambda: [snap.resident_lines for snap in replay.snapshots],
            chunk_accesses=chunk_accesses,
        )


#: Most L3 accesses one :func:`simulate_spmv_group` holds between its
#: two passes over the traces: a group closes once its cells reach it.
#: At 2 B per access (the paper sweep's line ids fit 16 bits) that is
#: 8 MB of line ids.
GROUP_ACCESS_BUDGET = 1 << 22


@dataclass
class _HeldCell:
    """One cell of a group between its two passes: its L3 line ids, which
    the replay overwrites with their hit bits, and its scans."""

    graph: Graph
    config: SimulationConfig
    space: AddressSpace
    boundaries: np.ndarray
    lines: np.ndarray
    snapshots: "list[np.ndarray]"


def _held_lines(graph: Graph, config: SimulationConfig) -> _HeldCell:
    """First pass over one cell's trace: keep only its L3 line ids, in
    the narrowest dtype that holds every line of its address space."""
    space, boundaries = _partition(graph, config)
    dtype = np.min_scalar_type(space.end // space.line_size)
    parts = [
        chunk.lines.astype(dtype)
        for chunk, _ in _merged_chunks(
            graph, config, space, boundaries, _CHUNK_ACCESSES
        )
    ]
    lines = parts[0] if len(parts) == 1 else np.concatenate(parts, dtype=dtype)
    return _HeldCell(graph, config, space, boundaries, lines, [])


def _finisher(cell: _HeldCell) -> Callable[[], SimulationResult]:
    """Second pass over one replayed cell's trace: attribute its held hit
    bits chunk by chunk, as :func:`simulate_spmv` attributes its replay's."""

    def finish() -> SimulationResult:
        hits, position = cell.lines, 0

        def l3(lines: np.ndarray) -> np.ndarray:
            nonlocal position
            end = position + lines.shape[0]
            out = hits[position:end].astype(np.uint8)
            position = end
            return out

        with _spmv_span(cell.graph, cell.config):
            result = _traversal(
                cell.graph,
                cell.config,
                cell.space,
                cell.boundaries,
                l3,
                lambda: cell.snapshots,
                chunk_accesses=_CHUNK_ACCESSES,
            )
        if position != hits.shape[0]:
            raise SimulationError(
                "a re-streamed trace differs in length from its first pass"
            )
        return result

    return finish


def _replay_held(cells: "list[_HeldCell]") -> "Iterator[Callable[[], SimulationResult]]":
    """Replay the held cells' L3 streams together, then yield their finishers."""
    if not cells:
        return
    total = sum(cell.lines.shape[0] for cell in cells)
    with span("sim.spmv", policy=cells[0].config.cache.policy, cells=len(cells)):
        with span("sim.cache", accesses=total):
            snapshots = replay_group(
                [SetAssociativeCache(cell.config.cache) for cell in cells],
                [cell.lines for cell in cells],
                [cell.config.scan_interval for cell in cells],
            )
    for cell, snaps in zip(cells, snapshots):
        cell.snapshots = [snap.resident_lines for snap in snaps]
    for cell in cells:
        yield _finisher(cell)


def simulate_spmv_group(
    cells: "Iterable[tuple[Graph, SimulationConfig]]",
) -> "Iterator[Callable[[], SimulationResult]]":
    """:func:`simulate_spmv` of many ``(graph, config)`` cells, their L3
    replays run together.

    Every config must have one cache; scan intervals may differ.  Yields,
    in order, one function per cell that returns the cell's
    :func:`simulate_spmv` result, bit for bit; call it before asking for
    the next.  Cells are taken in groups.  A first pass over each cell's
    trace keeps only its L3 line ids, until the group holds
    :data:`GROUP_ACCESS_BUDGET` of them.  The group's caches then replay
    together (:func:`~repro.sim.cache.replay_group`): batch ``j`` of
    every cell is one lockstep kernel pass.  Each cell's function
    streams its trace a second time and attributes the held hit bits.
    Nothing of a group outlives its cells' functions.
    """
    held: "list[_HeldCell]" = []
    accesses = 0
    for graph, config in cells:
        with _spmv_span(graph, config):
            held.append(_held_lines(graph, config))
        accesses += held[-1].lines.shape[0]
        if accesses >= GROUP_ACCESS_BUDGET:
            yield from _replay_held(held)
            held, accesses = [], 0
    yield from _replay_held(held)


def count_locality_types(graph: Graph, config: SimulationConfig) -> LocalityTypeCounts:
    """Locality types I–V (Section IV-D) of one parallel SpMV traversal.

    A type is read off who last touched a line (thread, processed vertex,
    read vertex), never off whether the access hit.  So the partitions
    and round-robin batches :func:`simulate_spmv` replays go straight
    into one :class:`~repro.sim.stats.LocalityTypeClassifier`, and no
    cache or TLB is replayed.
    """
    space, boundaries = _partition(graph, config)
    classifier = LocalityTypeClassifier(space, _random_region(config))
    for chunk, thread_ids in _merged_chunks(
        graph, config, space, boundaries, _CHUNK_ACCESSES
    ):
        classifier.add(chunk, thread_ids)
    return classifier.counts()


def simulate_spmv_streamed(
    graph: Graph,
    config: SimulationConfig,
    *,
    num_shards: int = 1,
    shard_mode: str = "serial",
    **kwargs: Any,
) -> SimulationResult:
    """:func:`simulate_spmv` under its old name, with its old shard keywords.

    Exists only for the call sites in ``perfbench/replay_4x.py`` and is
    deleted when perfbench drops its shard cell (ROADMAP item 2).  The
    replay was bit-identical for every shard count and mode, so after
    checking the two keywords this is :func:`simulate_spmv` itself.
    """
    if num_shards < 1:
        raise SimulationError(f"num_shards must be positive, got {num_shards}")
    if shard_mode not in ("serial", "process"):
        raise SimulationError(
            f"shard_mode must be 'serial' or 'process', got {shard_mode!r}"
        )
    return simulate_spmv(graph, config, **kwargs)

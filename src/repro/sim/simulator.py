"""End-to-end graph-specific cache simulation (Section V-B of the paper).

:func:`simulate_spmv` performs the paper's two-phase parallel
simulation: (1) log memory accesses per thread partition, (2) interleave
the per-thread logs round-robin per interval and replay them through a
simulated shared L3 (and optionally a DTLB).  Both phases stream: trace
chunks -> round-robin merge -> one-cache replay, each holding
O(``chunk_accesses``) accesses at a time.  Everything the
paper's metrics read off the per-access outcome is folded in chunk by
chunk, so the returned :class:`SimulationResult` is O(V + snapshots):
per-region counters, per-vertex access and miss counts under both
attributions, resident-line snapshots for the Effective Cache Size, TLB
misses, and optionally the locality-type counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

import numpy as np

from repro.errors import SimulationError
from repro.graph.graph import Graph
from repro.obs import enabled as obs_enabled
from repro.obs import metrics as obs_metrics
from repro.obs import span

from repro.sim.address_space import AddressSpace, Region
from repro.sim.cache import CacheConfig, CacheSnapshot, Replay
from repro.sim.parallel import edge_balanced_partitions, interleave_stream
from repro.sim.scheduler import (
    ScheduleResult,
    cost_balanced_chunks,
    simulate_work_stealing,
)
from repro.sim.stats import (
    LocalityTypeClassifier,
    LocalityTypeCounts,
    VertexAccessStats,
    attribute_random_accesses,
)
from repro.sim.timing import TimingModel
from repro.sim.tlb import TLBConfig, lines_to_pages, tlb_cache
from repro.sim.trace import MemoryTrace, spmv_trace_chunks

__all__ = [
    "SimulationConfig",
    "SimulationResult",
    "simulate_spmv",
    "simulate_spmv_streamed",
]


@dataclass(frozen=True)
class SimulationConfig:
    """Everything that parameterizes one SpMV simulation."""

    cache: CacheConfig
    tlb: TLBConfig | None = None
    num_threads: int = 8
    interleave_interval: int = 64
    scan_interval: int = 0
    direction: str = "pull"
    promote_sequential: bool = True
    timing: TimingModel = field(default_factory=TimingModel)

    def __post_init__(self) -> None:
        if self.num_threads <= 0:
            raise SimulationError("num_threads must be positive")
        if self.direction not in ("pull", "push"):
            raise SimulationError(
                f"direction must be 'pull' or 'push', got {self.direction!r}"
            )

    @classmethod
    def scaled_for(
        cls,
        graph: Graph,
        *,
        pressure: float = 0.08,
        num_threads: int = 8,
        scan_interval: int = 0,
        direction: str = "pull",
        with_tlb: bool = True,
        policy: str = "drrip",
    ) -> "SimulationConfig":
        """Config whose cache/TLB are scaled to the graph (DESIGN.md §2)."""
        cache = CacheConfig.scaled_for(
            graph.num_vertices, pressure=pressure, policy=policy
        )
        tlb = TLBConfig.scaled_for(graph.num_vertices) if with_tlb else None
        return cls(
            cache=cache,
            tlb=tlb,
            num_threads=num_threads,
            scan_interval=scan_interval,
            direction=direction,
            timing=TimingModel(num_threads=num_threads),
        )


@dataclass
class SimulationResult:
    """Outcome of one simulated parallel SpMV traversal, O(V + snapshots).

    ``region_accesses``/``region_hits`` count accesses and hits per
    :class:`~repro.sim.address_space.Region`; ``read_stats`` and
    ``proc_stats`` attribute the random accesses and their misses per
    vertex (see :mod:`repro.sim.stats`).  ``locality_types`` is set when
    the run classified reuses (``classify_locality=True``).
    """

    graph: Graph
    config: SimulationConfig
    space: AddressSpace
    region_accesses: np.ndarray
    region_hits: np.ndarray
    read_stats: VertexAccessStats
    proc_stats: VertexAccessStats
    snapshots: list[CacheSnapshot]
    tlb_misses: int
    partition_boundaries: np.ndarray
    locality_types: LocalityTypeCounts | None = None

    # -- headline counters --------------------------------------------------

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
        return (
            Region.VERTEX_DATA if self.config.direction == "pull" else Region.VERTEX_OUT
        )

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
        """Per-snapshot percentage of capacity holding random-access data.

        Snapshots are classified in one batched pass (see
        :meth:`AddressSpace.region_counts_batch`) instead of one
        ``region_counts`` call per snapshot.
        """
        if not self.snapshots:
            return np.zeros(0, dtype=np.float64)
        capacity = self.config.cache.num_lines
        counts = self.space.region_counts_batch(
            [snap.resident_lines for snap in self.snapshots]
        )
        return counts[:, self.random_region] / capacity * 100.0

    def effective_cache_size(self) -> float:
        """Average ECS percentage over all snapshots (Table V)."""
        samples = self.effective_cache_size_samples()
        if samples.size == 0:
            raise SimulationError(
                "no snapshots recorded; run with scan_interval > 0 to measure ECS"
            )
        return float(samples.mean())

    # -- scheduling / timing --------------------------------------------------

    def per_vertex_cost(self) -> np.ndarray:
        """Simulated cycles each vertex's processing consumes."""
        timing = self.config.timing
        degrees = (
            self.graph.in_degrees()
            if self.config.direction == "pull"
            else self.graph.out_degrees()
        )
        return (
            degrees.astype(np.float64) * timing.cycles_per_edge
            + self.proc_stats.misses.astype(np.float64) * timing.cycles_per_l3_miss
        )

    def schedule(self, *, chunks_per_thread: int = 64) -> ScheduleResult:
        """Work-stealing schedule of this traversal (idle % of Table IV).

        Work units are cost-balanced chunks (~64 per thread), matching
        the fine-grained edge-balanced partitioning of the paper's
        runtime.
        """
        costs = cost_balanced_chunks(
            self.per_vertex_cost(),
            self.partition_boundaries,
            chunks_per_thread=chunks_per_thread,
        )
        return simulate_work_stealing(costs)

    def traversal_time_ms(self, *, chunks_per_thread: int = 64) -> float:
        """Simulated traversal time (Table IV "Time" substitute)."""
        idle = self.schedule(chunks_per_thread=chunks_per_thread).idle_percent
        return self.config.timing.traversal_time_ms(
            self.graph.num_edges, self.l3_misses, self.tlb_misses, idle
        )


def _in_spans(name: str, chunks: Iterable[MemoryTrace]) -> Iterator[MemoryTrace]:
    """Re-yield ``chunks``, producing each one inside a span called ``name``."""
    iterator = iter(chunks)
    while True:
        with span(name):
            chunk = next(iterator, None)
        if chunk is None:
            return
        yield chunk


def simulate_spmv(
    graph: Graph,
    config: SimulationConfig | None = None,
    *,
    chunk_accesses: int = 1 << 20,
    classify_locality: bool = False,
    **scaled_kwargs: Any,
) -> SimulationResult:
    """Simulate one parallel SpMV traversal of ``graph``.

    When ``config`` is omitted a scaled configuration is derived from the
    graph via :meth:`SimulationConfig.scaled_for`, forwarding any keyword
    arguments.

    The pipeline is trace chunks (:func:`spmv_trace_chunks`, one stream
    per thread partition) -> round-robin interleave
    (:func:`interleave_stream`) -> one shared L3
    (:class:`~repro.sim.cache.Replay`, which also cuts the ECS
    snapshots), with the TLB replayed alongside.  Each merged chunk of
    ~``chunk_accesses`` accesses is attributed and dropped before the
    next one is built.  Results are bit-identical for every
    ``chunk_accesses`` (``tests/test_trace_stream.py``).

    ``classify_locality=True`` also counts locality types I–V
    (:class:`~repro.sim.stats.LocalityTypeClassifier`), at the cost of
    one sort of each chunk's random accesses.
    """
    if config is None:
        config = SimulationConfig.scaled_for(graph, **scaled_kwargs)
    elif scaled_kwargs:
        raise SimulationError("pass either a config or scaling kwargs, not both")

    num_vertices = graph.num_vertices
    random_region = (
        Region.VERTEX_DATA if config.direction == "pull" else Region.VERTEX_OUT
    )
    with span(
        "sim.spmv",
        vertices=num_vertices,
        edges=graph.num_edges,
        policy=config.cache.policy,
        threads=config.num_threads,
    ):
        with span("sim.partition"):
            space = AddressSpace(
                num_vertices, graph.num_edges, line_size=config.cache.line_size
            )
            boundaries = edge_balanced_partitions(
                graph, config.num_threads, direction=config.direction
            )
        sources = [
            _in_spans(
                "sim.trace",
                spmv_trace_chunks(
                    graph,
                    space,
                    direction=config.direction,
                    vertex_range=(int(boundaries[t]), int(boundaries[t + 1])),
                    promote_sequential=config.promote_sequential,
                    max_accesses=max(1, chunk_accesses // config.num_threads),
                ),
            )
            for t in range(config.num_threads)
        ]
        stream = interleave_stream(
            sources, config.interleave_interval, batch_accesses=chunk_accesses
        )

        # Rows: regions; columns: misses, hits.
        region_outcomes = np.zeros((Region.COUNT, 2), dtype=np.int64)
        # Rows: accesses, misses.
        by_read = np.zeros((2, num_vertices), dtype=np.int64)
        by_proc = np.zeros((2, num_vertices), dtype=np.int64)
        classifier = (
            LocalityTypeClassifier(space, random_region) if classify_locality else None
        )
        tlb = tlb_cache(config.tlb) if config.tlb is not None else None
        tlb_misses = 0
        replay = Replay(config.cache, scan_interval=config.scan_interval)
        for chunk, thread_ids in stream:
            with span("sim.cache", accesses=len(chunk)):
                hits = replay.feed(chunk.lines)
            if tlb is not None and config.tlb is not None:
                with span("sim.tlb"):
                    pages = lines_to_pages(
                        chunk.lines, config.cache.line_size, config.tlb.page_size
                    )
                    tlb_misses += tlb.simulate(pages).num_misses
            with span("sim.attribute"):
                region_outcomes += np.bincount(
                    chunk.kinds.astype(np.int64) * 2 + hits,
                    minlength=2 * Region.COUNT,
                ).reshape(Region.COUNT, 2)
                for totals, by in ((by_read, "read"), (by_proc, "proc")):
                    stats = attribute_random_accesses(
                        chunk, hits, num_vertices, by=by, random_region=random_region
                    )
                    totals[0] += stats.accesses
                    totals[1] += stats.misses
                if classifier is not None:
                    classifier.add(chunk, thread_ids)

        region_accesses = region_outcomes.sum(axis=1)
        region_hits = region_outcomes[:, 1].copy()
        if obs_enabled():
            obs_metrics.registry.counter("sim.accesses").inc(int(region_accesses.sum()))
            obs_metrics.registry.counter("sim.l3_misses").inc(
                int(region_outcomes[:, 0].sum())
            )
            obs_metrics.registry.counter("sim.tlb_misses").inc(tlb_misses)

    return SimulationResult(
        graph=graph,
        config=config,
        space=space,
        region_accesses=region_accesses,
        region_hits=region_hits,
        read_stats=VertexAccessStats(accesses=by_read[0], misses=by_read[1]),
        proc_stats=VertexAccessStats(accesses=by_proc[0], misses=by_proc[1]),
        snapshots=replay.snapshots,
        tlb_misses=tlb_misses,
        partition_boundaries=boundaries,
        locality_types=classifier.counts() if classifier is not None else None,
    )


def simulate_spmv_streamed(
    graph: Graph,
    config: SimulationConfig | None = None,
    *,
    num_shards: int = 1,
    shard_mode: str = "serial",
    **kwargs: Any,
) -> SimulationResult:
    """:func:`simulate_spmv` under its old name, with its old shard keywords.

    Exists only for the call sites in ``perfbench/replay_4x.py`` and is
    deleted when perfbench drops its shard cell (ROADMAP item 1).  The
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

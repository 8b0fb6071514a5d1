"""Property tests: the streaming simulation pipeline is bit-exact.

The simulator never materializes a whole trace: :func:`spmv_trace_chunks`
generates it in bounded chunks, :func:`interleave_stream` merges the
per-thread streams round-robin, and :func:`simulate_spmv` replays and
attributes each merged chunk before building the next.  Their contract
is not "approximately the same": every array they produce must equal a
materializing reference bit for bit, for any chunk size, thread count,
interval and thread count.  The references here compute the same things
the direct way — whole traces, one stable-sort merge, one replay, then
attribution and a per-access locality-type loop over the retained
trace, which :func:`count_locality_types` must match without a replay.
The tests pin that equivalence across randomized RMAT graphs, both
traversal directions, chunk sizes down to 1 access, and the
chunk-boundary edge cases (zero-degree runs, a boundary inside one
vertex's access burst, finished-early threads).
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.bench.experiments.scale_curve import build_ladder_graph
from repro.errors import SimulationError
from repro.generate.rmat import rmat_edges
from repro.graph.build import build_graph
from repro.graph.graph import Graph
from repro.obs import metrics as obs_metrics
from repro.sim.address_space import AddressSpace, Region
from repro.sim.cache import CacheSnapshot, Replay, SetAssociativeCache
from repro.sim.parallel import (
    ROUND_ROBIN_INTERVAL,
    edge_balanced_partitions,
    interleave_stream,
)
from repro.sim.simulator import (
    SimulationConfig,
    count_locality_types,
    simulate_spmv,
    simulate_spmv_streamed,
)
from repro.sim.stats import (
    LocalityTypeClassifier,
    LocalityTypeCounts,
    VertexAccessStats,
    vertex_counts,
)
from repro.sim.tlb import simulate_tlb
from repro.sim.trace import (
    MemoryTrace,
    concatenate_traces,
    spmv_trace,
    spmv_trace_chunks,
)

_GRAPHS: dict = {}

#: Heap budget of a streamed run: O(V) counters plus O(chunk) in-flight
#: trace, interleave, replay and attribution buffers.  A run that held
#: the whole merged trace (``_TRACE_BYTES_PER_ACCESS``) cannot fit under
#: it.  Holding a batch three times over (a generator's sorted arrays,
#: the interleave's sort keys and int64 replay temporaries kept alive)
#: takes ~160 B per access of a 2^20 chunk, and fails it.
_PEAK_BYTES_PER_VERTEX = 128
_PEAK_BYTES_PER_CHUNK_ACCESS = 85
#: One merged-trace access: int64 line + uint8 region + two int32 vertices.
_TRACE_BYTES_PER_ACCESS = 17


def _rmat(seed: int, log_scale: int = 7, num_edges: int = 640) -> Graph:
    key = (seed, log_scale, num_edges)
    if key not in _GRAPHS:
        src, dst = rmat_edges(log_scale, num_edges, seed=seed)
        _GRAPHS[key] = build_graph(
            1 << log_scale, src, dst, name=f"rm{seed}"
        ).graph
    return _GRAPHS[key]


def _traced_peak(run):
    """``run()``'s result and its ``tracemalloc`` heap peak."""
    tracemalloc.start()
    try:
        result = run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def interleave_traces(traces: list, interval: int):
    """Round-robin merge of whole traces: one stable sort by (round, thread)."""
    lengths = [len(trace) for trace in traces]
    rounds = np.concatenate([np.arange(n, dtype=np.int64) // interval for n in lengths])
    threads = np.concatenate(
        [np.full(n, t, dtype=np.int64) for t, n in enumerate(lengths)]
    )
    order = np.argsort(rounds * len(traces) + threads, kind="stable")
    joined = concatenate_traces(traces)
    merged = MemoryTrace(
        lines=joined.lines[order],
        kinds=joined.kinds[order],
        read_vertex=joined.read_vertex[order],
        proc_vertex=joined.proc_vertex[order],
        space=joined.space,
    )
    return merged, threads[order]


def attribute_random_accesses(
    trace: MemoryTrace,
    hits: np.ndarray,
    num_vertices: int,
    *,
    by: str = "read",
    random_region: int = Region.VERTEX_DATA,
) -> VertexAccessStats:
    """Aggregate the trace's random accesses per vertex.

    Parameters
    ----------
    by:
        ``"read"`` attributes each random access to the vertex whose
        data is touched; ``"proc"`` to the vertex being processed.
    random_region:
        Region whose accesses count as random (``VERTEX_DATA`` for pull
        traces, ``VERTEX_OUT`` for push traces).
    """
    hits = np.asarray(hits)
    if hits.shape[0] != len(trace):
        raise SimulationError("hits array length must match the trace")
    if by == "read":
        field = trace.read_vertex
    elif by == "proc":
        field = trace.proc_vertex
    else:
        raise SimulationError(f"attribution must be 'read' or 'proc', got {by!r}")
    mask = trace.kinds == random_region
    accesses, misses = vertex_counts(field[mask], hits[mask] == 0, num_vertices)
    return VertexAccessStats(accesses=accesses, misses=misses)


def classify_by_loop(trace, thread_ids, random_region):
    """Locality types by a per-access walk with a last-accessor dict."""
    mask = trace.kinds == random_region
    counts = [0, 0, 0, 0, 0]
    cold = 0
    last = {}
    for line, u, v, t in zip(
        trace.lines[mask].tolist(),
        trace.read_vertex[mask].tolist(),
        trace.proc_vertex[mask].tolist(),
        np.asarray(thread_ids)[mask].tolist(),
    ):
        prev = last.get(line)
        last[line] = (t, v, u)
        if prev is None:
            cold += 1
        elif prev[0] != t:
            counts[3 if prev[2] == u else 4] += 1
        elif prev[1] == v:
            counts[0] += 1
        elif prev[2] == u:
            counts[1] += 1
        else:
            counts[2] += 1
    return LocalityTypeCounts(*counts, cold=cold)


def materialized_simulation(graph, config) -> dict:
    """Everything :func:`simulate_spmv` reports, from a retained trace."""
    space = AddressSpace(
        graph.num_vertices, graph.num_edges, line_size=config.cache.line_size
    )
    bounds = edge_balanced_partitions(
        graph, config.num_threads, direction=config.direction
    )
    traces = [
        spmv_trace(
            graph,
            space,
            direction=config.direction,
            vertex_range=(int(bounds[t]), int(bounds[t + 1])),
        )
        for t in range(config.num_threads)
    ]
    merged, threads = interleave_traces(traces, ROUND_ROBIN_INTERVAL)
    # One reference-loop cache fed in scan-aligned cuts, snapshotted
    # after every cut that ends on a scan multiple.
    cache = SetAssociativeCache(config.cache)
    n, scan = merged.lines.shape[0], config.scan_interval
    step = scan or max(1, n)
    hit_parts, snapshots = [], []
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        hit_parts.append(cache._simulate_reference(merged.lines[lo:hi]).hits)
        if scan and hi % scan == 0:
            snapshots.append(CacheSnapshot(hi, cache.resident_lines()))
    hits = np.concatenate(hit_parts)
    random_region = (
        Region.VERTEX_DATA if config.direction == "pull" else Region.VERTEX_OUT
    )
    stats = {
        by: attribute_random_accesses(
            merged, hits, graph.num_vertices, by=by, random_region=random_region
        )
        for by in ("read", "proc")
    }
    return {
        "region_accesses": np.bincount(merged.kinds, minlength=Region.COUNT),
        "region_hits": np.bincount(
            merged.kinds, weights=hits, minlength=Region.COUNT
        ).astype(np.int64),
        "stats": stats,
        "snapshots": snapshots,
        "tlb_misses": (
            simulate_tlb(merged.lines, config.cache.line_size, config.tlb).num_misses
            if config.tlb is not None
            else 0
        ),
        "locality_types": classify_by_loop(merged, threads, random_region),
        "partition_boundaries": bounds,
    }


def replayed_snapshots(
    graph: Graph, config: SimulationConfig, chunk_accesses: int = 1 << 20
):
    """The ECS snapshots of a :class:`Replay` fed the stream that
    ``simulate_spmv(graph, config, chunk_accesses=chunk_accesses)``
    replays: its partitions, trace chunks and round-robin batches."""
    space = AddressSpace(
        graph.num_vertices, graph.num_edges, line_size=config.cache.line_size
    )
    bounds = edge_balanced_partitions(
        graph, config.num_threads, direction=config.direction
    )
    sources = [
        spmv_trace_chunks(
            graph,
            space,
            direction=config.direction,
            vertex_range=(int(bounds[t]), int(bounds[t + 1])),
            max_accesses=max(1, chunk_accesses // config.num_threads),
        )
        for t in range(config.num_threads)
    ]
    replay = Replay(config.cache, scan_interval=config.scan_interval)
    for chunk, _ in interleave_stream(
        sources, ROUND_ROBIN_INTERVAL, batch_accesses=chunk_accesses
    ):
        replay.feed(chunk.lines)
    return replay.snapshots


def region_counts_of(space: AddressSpace, snapshots) -> np.ndarray:
    """``(scans, Region.COUNT)`` resident-line counts, one
    ``region_counts`` call per snapshot."""
    return np.array(
        [space.region_counts(snap.resident_lines) for snap in snapshots],
        dtype=np.int64,
    ).reshape(-1, Region.COUNT)


def _assert_traces_equal(actual: MemoryTrace, expected: MemoryTrace) -> None:
    np.testing.assert_array_equal(actual.lines, expected.lines)
    np.testing.assert_array_equal(actual.kinds, expected.kinds)
    np.testing.assert_array_equal(actual.read_vertex, expected.read_vertex)
    np.testing.assert_array_equal(actual.proc_vertex, expected.proc_vertex)


class TestTraceChunks:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 3),
        direction=st.sampled_from(["pull", "push"]),
        max_accesses=st.sampled_from([1, 7, 64, 509, 4096]),
    )
    def test_concatenation_is_bit_exact(self, seed, direction, max_accesses):
        graph = _rmat(seed)
        space = AddressSpace(graph.num_vertices, graph.num_edges)
        chunks = list(
            spmv_trace_chunks(
                graph,
                space,
                direction=direction,
                max_accesses=max_accesses,
            )
        )
        reference = spmv_trace(graph, space, direction=direction)
        _assert_traces_equal(concatenate_traces(chunks), reference)
        assert all(len(chunk) > 0 for chunk in chunks)
        if max_accesses * 4 < len(reference):
            assert len(chunks) > 1

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2),
        start=st.integers(0, 100),
        width=st.integers(0, 60),
        max_accesses=st.sampled_from([1, 19, 256]),
    )
    def test_vertex_range_matches_sliced_reference(
        self, seed, start, width, max_accesses
    ):
        graph = _rmat(seed)
        space = AddressSpace(graph.num_vertices, graph.num_edges)
        vertex_range = (start, min(graph.num_vertices, start + width))
        chunks = list(
            spmv_trace_chunks(
                graph, space, vertex_range=vertex_range, max_accesses=max_accesses
            )
        )
        reference = spmv_trace(graph, space, vertex_range=vertex_range)
        if not chunks:
            # An empty vertex range streams zero chunks.
            assert len(reference) == 0
        else:
            _assert_traces_equal(concatenate_traces(chunks), reference)

    def test_zero_degree_runs_span_chunk_boundaries(self):
        # Edges confined to the first and last 4 of 256 vertices: the
        # middle ~248 vertices are a long zero-in-degree run the chunker
        # must cross while re-holding the dedup carry.
        src = np.array([0, 1, 2, 3, 252, 253, 254, 255], dtype=np.int64)
        dst = np.array([1, 2, 3, 0, 253, 254, 255, 252], dtype=np.int64)
        graph = Graph.from_edges(256, src, dst, name="sparse-runs")
        space = AddressSpace(graph.num_vertices, graph.num_edges)
        for max_accesses in (1, 5, 37):
            chunks = list(
                spmv_trace_chunks(graph, space, max_accesses=max_accesses)
            )
            _assert_traces_equal(
                concatenate_traces(chunks), spmv_trace(graph, space)
            )

    def test_unknown_direction_rejected(self):
        graph = _rmat(0)
        with pytest.raises(SimulationError):
            next(iter(spmv_trace_chunks(graph, direction="sideways")))


class TestInterleaveStream:
    @settings(max_examples=25, deadline=None)
    @given(
        num_threads=st.integers(1, 8),
        interval=st.sampled_from([1, 3, 17, 64]),
        batch_accesses=st.sampled_from([1, 29, 256, 1 << 20]),
        seed=st.integers(0, 2),
    )
    def test_matches_materialized_interleave(
        self, num_threads, interval, batch_accesses, seed
    ):
        graph = _rmat(seed, log_scale=8, num_edges=1600)
        space = AddressSpace(graph.num_vertices, graph.num_edges)
        bounds = edge_balanced_partitions(graph, num_threads)
        ranges = [
            (int(bounds[i]), int(bounds[i + 1])) for i in range(num_threads)
        ]
        materialized = [
            spmv_trace(graph, space, vertex_range=r) for r in ranges
        ]
        reference, reference_tids = interleave_traces(materialized, interval)

        sources = [
            spmv_trace_chunks(graph, space, vertex_range=r, max_accesses=97)
            for r in ranges
        ]
        batches = list(
            interleave_stream(sources, interval, batch_accesses=batch_accesses)
        )
        merged = concatenate_traces([b[0] for b in batches])
        _assert_traces_equal(merged, reference)
        np.testing.assert_array_equal(
            np.concatenate([b[1] for b in batches]), reference_tids
        )
        # Streaming must actually stream: small batch caps produce many
        # batches, each a contiguous slice of the reference output.
        if batch_accesses < len(reference) // 4:
            assert len(batches) > 1

    def test_rejects_bad_arguments(self):
        graph = _rmat(0)
        space = AddressSpace(graph.num_vertices, graph.num_edges)
        source = [spmv_trace_chunks(graph, space)]
        with pytest.raises(SimulationError):
            next(iter(interleave_stream([], 4)))
        with pytest.raises(SimulationError):
            next(iter(interleave_stream(source, 0)))
        with pytest.raises(SimulationError):
            next(iter(interleave_stream(source, 4, batch_accesses=0)))


class TestStreamedSimulator:
    @pytest.fixture(scope="class")
    def graph(self):
        return _rmat(5, log_scale=9, num_edges=4000)

    @pytest.fixture(scope="class")
    def config(self, graph):
        approx = graph.num_edges + graph.num_vertices // 4
        return SimulationConfig.scaled_for(graph, scan_interval=max(1, approx // 16))

    @pytest.fixture(scope="class")
    def reference(self, graph, config):
        return materialized_simulation(graph, config)

    @pytest.mark.parametrize("chunk_accesses", [1 << 20, 997, 1 << 12])
    def test_matches_materialized_simulation(
        self, graph, config, reference, chunk_accesses
    ):
        streamed = simulate_spmv(graph, config, chunk_accesses=chunk_accesses)
        self._assert_matches(
            streamed, reference, replayed_snapshots(graph, config, chunk_accesses)
        )
        assert count_locality_types(graph, config) == reference["locality_types"]

    @pytest.mark.parametrize("chunk_accesses", [1 << 20, 1 << 12, 997, 61])
    def test_scan_counts_are_region_counts_of_replay_snapshots(
        self, graph, config, chunk_accesses
    ):
        """The result keeps, per ECS scan, exactly the per-region count
        of the lines the replay held at that scan."""
        result = simulate_spmv(graph, config, chunk_accesses=chunk_accesses)
        snapshots = replayed_snapshots(graph, config, chunk_accesses)
        assert len(snapshots) > 1
        counts = result.scan_region_counts
        assert counts.dtype == np.int64
        assert counts.shape == (len(snapshots), Region.COUNT)
        np.testing.assert_array_equal(counts, region_counts_of(result.space, snapshots))
        np.testing.assert_array_equal(
            result.effective_cache_size_samples(),
            counts[:, Region.VERTEX_DATA] / config.cache.num_lines * 100.0,
        )

    def test_push_matches_materialized_simulation(self, graph):
        config = SimulationConfig.scaled_for(
            graph, scan_interval=300, direction="push", policy="brrip"
        )
        streamed = simulate_spmv(graph, config, chunk_accesses=1500)
        reference = materialized_simulation(graph, config)
        self._assert_matches(
            streamed, reference, replayed_snapshots(graph, config, 1500)
        )
        assert count_locality_types(graph, config) == reference["locality_types"]

    @pytest.mark.slow
    def test_ladder_graph_is_chunk_exact_in_bounded_memory(self):
        """A 244k-edge run gives the same counters at chunks of 2^20 and
        2^13 accesses, and each run's heap peak stays O(V + chunk), never
        O(trace)."""
        graph = build_ladder_graph(1 << 15)
        config = SimulationConfig.scaled_for(graph)
        small_chunk = 1 << 13
        with obs.recording():
            large, large_peak = _traced_peak(
                lambda: simulate_spmv(graph, config, chunk_accesses=1 << 20)
            )
            small, small_peak = _traced_peak(
                lambda: simulate_spmv(graph, config, chunk_accesses=small_chunk)
            )
            kernel_batches = obs_metrics.registry.counter(
                "cache.kernel_batches"
            ).value
        assert small.num_accesses == large.num_accesses
        assert small.l3_misses == large.l3_misses
        assert small.tlb_misses == large.tlb_misses
        np.testing.assert_array_equal(small.region_accesses, large.region_accesses)
        np.testing.assert_array_equal(small.region_hits, large.region_hits)
        for by in ("read", "proc"):
            np.testing.assert_array_equal(
                small.random_stats(by).misses, large.random_stats(by).misses
            )
        assert kernel_batches > 0

        def bound(chunk: int) -> int:
            return (
                _PEAK_BYTES_PER_VERTEX * graph.num_vertices
                + _PEAK_BYTES_PER_CHUNK_ACCESS * min(chunk, large.num_accesses)
            )

        # The bound can fire: the merged trace alone would exceed it.
        assert bound(small_chunk) < _TRACE_BYTES_PER_ACCESS * small.num_accesses
        assert small_peak < bound(small_chunk), (small_peak, bound(small_chunk))
        # The 2^20 chunk holds the whole trace: one batch in flight.
        assert large_peak < bound(1 << 20), (large_peak, bound(1 << 20))

    @staticmethod
    def _assert_matches(streamed, reference, snapshots) -> None:
        """``streamed`` equals the materialized ``reference``, and the
        ``snapshots`` of a replay fed the same stream equal its
        reference-loop snapshots."""
        np.testing.assert_array_equal(
            streamed.region_accesses, reference["region_accesses"]
        )
        np.testing.assert_array_equal(streamed.region_hits, reference["region_hits"])
        for by, want in reference["stats"].items():
            got = streamed.random_stats(by)
            np.testing.assert_array_equal(got.accesses, want.accesses)
            np.testing.assert_array_equal(got.misses, want.misses)
        assert streamed.tlb_misses == reference["tlb_misses"]
        np.testing.assert_array_equal(
            streamed.partition_boundaries, reference["partition_boundaries"]
        )
        assert len(snapshots) == len(reference["snapshots"])
        for got, want in zip(snapshots, reference["snapshots"]):
            assert got.access_index == want.access_index
            np.testing.assert_array_equal(
                got.resident_lines, want.resident_lines
            )
        np.testing.assert_array_equal(
            streamed.scan_region_counts,
            region_counts_of(streamed.space, reference["snapshots"]),
        )

    def test_config_kwargs_are_exclusive(self, graph, config):
        """A config is required, and scaling kwargs are not accepted."""
        with pytest.raises(TypeError):
            simulate_spmv(graph, config, pressure=0.5)
        with pytest.raises(TypeError):
            simulate_spmv(graph)  # type: ignore[call-arg]

    def test_streamed_alias_checks_shard_keywords(self, graph, config, reference):
        snapshots = replayed_snapshots(graph, config)
        for num_shards, mode in ((1, "serial"), (2, "process")):
            alias = simulate_spmv_streamed(
                graph, config, num_shards=num_shards, shard_mode=mode
            )
            self._assert_matches(alias, reference, snapshots)
        assert count_locality_types(graph, config) == reference["locality_types"]
        with pytest.raises(SimulationError, match="num_shards"):
            simulate_spmv_streamed(graph, config, num_shards=0)
        with pytest.raises(SimulationError, match="shard_mode"):
            simulate_spmv_streamed(graph, config, shard_mode="remote")


class TestLocalityTypeClassifier:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 1000),
        length=st.integers(0, 400),
        num_lines=st.integers(1, 8),  # the data region of 64 vertices
        num_threads=st.integers(1, 3),
        chunk=st.sampled_from([1, 7, 50, 1000]),
    )
    def test_chunked_matches_per_access_loop(
        self, seed, length, num_lines, num_threads, chunk
    ):
        rng = np.random.default_rng(seed)
        space = AddressSpace(64, 64)
        base = space.data_base // space.line_size
        trace = MemoryTrace(
            lines=base + rng.integers(0, num_lines, size=length),
            kinds=rng.choice(
                [Region.EDGES, Region.VERTEX_DATA], size=length, p=[0.2, 0.8]
            ).astype(np.uint8),
            read_vertex=rng.integers(0, 4, size=length),
            proc_vertex=np.sort(rng.integers(0, 6, size=length)),
            space=space,
        )
        threads = rng.integers(0, num_threads, size=length)
        classifier = LocalityTypeClassifier(space)
        for lo in range(0, length, chunk):
            part = slice(lo, lo + chunk)
            classifier.add(
                MemoryTrace(
                    lines=trace.lines[part],
                    kinds=trace.kinds[part],
                    read_vertex=trace.read_vertex[part],
                    proc_vertex=trace.proc_vertex[part],
                    space=space,
                ),
                threads[part],
            )
        assert classifier.counts() == classify_by_loop(
            trace, threads, Region.VERTEX_DATA
        )

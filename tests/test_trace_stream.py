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
trace.  The tests pin that equivalence across randomized RMAT graphs,
both traversal directions, chunk sizes down to 1 access, and the
chunk-boundary edge cases (zero-degree runs, a boundary inside one
vertex's access burst, finished-early threads).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.generate.rmat import rmat_edges
from repro.graph import Graph, build_graph
from repro.sim import (
    AddressSpace,
    CacheSnapshot,
    LocalityTypeClassifier,
    LocalityTypeCounts,
    Region,
    SetAssociativeCache,
    SimulationConfig,
    attribute_random_accesses,
    concatenate_traces,
    interleave_stream,
    simulate_spmv,
    simulate_spmv_streamed,
    simulate_tlb,
    spmv_trace,
    spmv_trace_chunks,
)
from repro.sim.parallel import edge_balanced_partitions
from repro.sim.trace import MemoryTrace

_GRAPHS: dict = {}


def _rmat(seed: int, log_scale: int = 7, num_edges: int = 640) -> Graph:
    key = (seed, log_scale, num_edges)
    if key not in _GRAPHS:
        src, dst = rmat_edges(log_scale, num_edges, seed=seed)
        _GRAPHS[key] = build_graph(
            1 << log_scale, src, dst, name=f"rm{seed}"
        ).graph
    return _GRAPHS[key]


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
            promote_sequential=config.promote_sequential,
        )
        for t in range(config.num_threads)
    ]
    merged, threads = interleave_traces(traces, config.interleave_interval)
    # One reference-loop cache fed in scan-aligned cuts, snapshotted
    # after every cut that ends on a scan multiple.
    cache = SetAssociativeCache(config.cache)
    n, scan = merged.lines.shape[0], config.scan_interval
    step = scan or max(1, n)
    hit_parts, snapshots = [], []
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        hit_parts.append(cache.simulate(merged.lines[lo:hi], kernel="reference").hits)
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
        promote=st.booleans(),
        max_accesses=st.sampled_from([1, 7, 64, 509, 4096]),
    )
    def test_concatenation_is_bit_exact(
        self, seed, direction, promote, max_accesses
    ):
        graph = _rmat(seed)
        space = AddressSpace(graph.num_vertices, graph.num_edges)
        chunks = list(
            spmv_trace_chunks(
                graph,
                space,
                direction=direction,
                promote_sequential=promote,
                max_accesses=max_accesses,
            )
        )
        reference = spmv_trace(
            graph, space, direction=direction, promote_sequential=promote
        )
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
        streamed = simulate_spmv(
            graph, config, chunk_accesses=chunk_accesses, classify_locality=True
        )
        self._assert_matches(streamed, reference)

    def test_push_matches_materialized_simulation(self, graph):
        config = SimulationConfig.scaled_for(
            graph, scan_interval=300, direction="push", policy="brrip"
        )
        streamed = simulate_spmv(
            graph, config, chunk_accesses=1500, classify_locality=True
        )
        self._assert_matches(streamed, materialized_simulation(graph, config))

    @staticmethod
    def _assert_matches(streamed, reference) -> None:
        np.testing.assert_array_equal(
            streamed.region_accesses, reference["region_accesses"]
        )
        np.testing.assert_array_equal(streamed.region_hits, reference["region_hits"])
        for by, want in reference["stats"].items():
            got = streamed.random_stats(by)
            np.testing.assert_array_equal(got.accesses, want.accesses)
            np.testing.assert_array_equal(got.misses, want.misses)
        assert streamed.tlb_misses == reference["tlb_misses"]
        assert streamed.locality_types == reference["locality_types"]
        np.testing.assert_array_equal(
            streamed.partition_boundaries, reference["partition_boundaries"]
        )
        assert len(streamed.snapshots) == len(reference["snapshots"])
        for got, want in zip(streamed.snapshots, reference["snapshots"]):
            assert got.access_index == want.access_index
            np.testing.assert_array_equal(
                got.resident_lines, want.resident_lines
            )

    def test_config_kwargs_are_exclusive(self, graph, config):
        with pytest.raises(SimulationError):
            simulate_spmv(graph, config, pressure=0.5)

    def test_streamed_alias_checks_shard_keywords(self, graph, config, reference):
        for num_shards, mode in ((1, "serial"), (2, "process")):
            alias = simulate_spmv_streamed(
                graph,
                config,
                num_shards=num_shards,
                shard_mode=mode,
                classify_locality=True,
            )
            self._assert_matches(alias, reference)
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

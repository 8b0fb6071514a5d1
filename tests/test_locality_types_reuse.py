"""Unit tests for locality type classification and reuse distances."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.analyzer import LocalityAnalyzer
from repro.core.reuse import reuse_distances
from repro.generate.rmat import rmat_edges
from repro.graph.build import build_graph
from repro.obs import metrics as obs_metrics
from repro.sim.address_space import AddressSpace, Region
from repro.sim.parallel import ROUND_ROBIN_INTERVAL, edge_balanced_partitions
from repro.sim.simulator import SimulationConfig, count_locality_types
from repro.sim.stats import LocalityTypeClassifier
from repro.sim.trace import MemoryTrace, spmv_trace
from repro.sim.cache import CacheConfig, SetAssociativeCache
from tests.test_trace_stream import interleave_traces


def trace_from(records, num_vertices=64, num_edges=64):
    """Build a MemoryTrace of random data accesses from tuples
    (line, read_vertex, proc_vertex)."""
    space = AddressSpace(num_vertices, num_edges)
    lines = np.array([r[0] for r in records], dtype=np.int64)
    # offset lines into the data region so region decoding stays valid
    lines = lines + space.data_base // space.line_size
    return MemoryTrace(
        lines=lines,
        kinds=np.full(len(records), Region.VERTEX_DATA, dtype=np.uint8),
        read_vertex=np.array([r[1] for r in records], dtype=np.int64),
        proc_vertex=np.array([r[2] for r in records], dtype=np.int64),
        space=space,
    )


def classify(trace, thread_ids=None):
    """Locality-type counts of one whole trace fed as a single chunk."""
    classifier = LocalityTypeClassifier(trace.space)
    classifier.add(trace, thread_ids)
    return classifier.counts()


class TestLocalityTypes:
    def test_type_i_same_processed_vertex(self):
        # two neighbours of vertex 7 on the same line
        trace = trace_from([(0, 1, 7), (0, 2, 7)])
        counts = classify(trace)
        assert counts.type_i == 1
        assert counts.cold == 1

    def test_type_ii_common_neighbour(self):
        # vertex 1's data reused while processing 7 then 8
        trace = trace_from([(0, 1, 7), (0, 1, 8)])
        counts = classify(trace)
        assert counts.type_ii == 1

    def test_type_iii_distinct_neighbours_same_line(self):
        trace = trace_from([(0, 1, 7), (0, 2, 8)])
        counts = classify(trace)
        assert counts.type_iii == 1

    def test_types_iv_v_need_threads(self):
        trace = trace_from([(0, 1, 7), (0, 1, 8), (0, 2, 9)])
        threads = np.array([0, 1, 1])
        counts = classify(trace, threads)
        assert counts.type_iv == 1  # same u across threads
        assert counts.type_iii == 1  # different u, same thread

    def test_type_v(self):
        trace = trace_from([(0, 1, 7), (0, 2, 8)])
        counts = classify(trace, np.array([0, 1]))
        assert counts.type_v == 1

    def test_single_thread_never_iv_v(self, small_web):
        from repro.sim import spmv_trace

        trace = spmv_trace(small_web)
        counts = classify(trace)
        assert counts.type_iv == 0
        assert counts.type_v == 0
        assert counts.total_reuses + counts.cold == trace.num_random_accesses

    def test_fractions_sum_to_one(self):
        trace = trace_from([(0, 1, 7), (0, 1, 8), (0, 2, 8), (0, 3, 8)])
        fractions = classify(trace).fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_fractions_empty(self):
        trace = trace_from([(0, 1, 7)])
        fractions = classify(trace).fractions()
        assert all(value == 0.0 for value in fractions.values())


class TestReuseDistances:
    def test_hand_computed(self):
        # a b a -> a's reuse skips one distinct line (b)
        distances = reuse_distances(np.array([1, 2, 1]))
        assert distances.tolist() == [-1, -1, 1]

    def test_immediate_reuse_distance_zero(self):
        distances = reuse_distances(np.array([5, 5]))
        assert distances.tolist() == [-1, 0]

    def test_repeated_intervening_line_counts_once(self):
        # a b b a -> distance 1, not 2
        distances = reuse_distances(np.array([1, 2, 2, 1]))
        assert distances[-1] == 1

    def test_cross_validates_fully_associative_lru(self):
        """Reuse-distance-derived misses bound the simulated LRU cache."""
        rng = np.random.default_rng(0)
        lines = rng.integers(0, 32, size=600)
        distances = reuse_distances(lines)
        for ways in (4, 8, 16):
            exact = int((distances == -1).sum() + (distances >= ways).sum())
            cache = SetAssociativeCache(
                CacheConfig(num_sets=1, ways=ways, policy="lru")
            )
            simulated = cache.simulate(lines).num_misses
            assert simulated == exact


def _scan_counts(records):
    """Locality types by a per-access scan over a last-accessor dict."""
    last: dict = {}
    counts = [0] * 6  # I, II, III, IV, V, cold
    for line, read, proc, thread, random in records:
        if not random:
            continue
        prev = last.get(line)
        if prev is None:
            counts[5] += 1
        elif prev[0] != thread:
            counts[3 if prev[2] == read else 4] += 1
        elif prev[1] == proc:
            counts[0] += 1
        else:
            counts[1 if prev[2] == read else 2] += 1
        last[line] = (thread, proc, read)
    return counts


_records = st.lists(
    st.tuples(
        st.integers(0, 7),  # line within its region
        st.integers(0, 5),  # read vertex
        st.integers(0, 5),  # processed vertex
        st.integers(0, 2),  # thread
        st.booleans(),  # a random (vertex-data) access, else an edge read
    ),
    max_size=120,
)


@settings(max_examples=200, deadline=None)
@given(_records, st.lists(st.integers(0, 120), max_size=4))
def test_classifier_matches_scan_across_chunks(records, cuts):
    space = AddressSpace(64, 64)
    random = np.array([r[4] for r in records], dtype=bool)
    base = np.where(
        random, space.data_base // space.line_size, space.edges_base // space.line_size
    )
    column = lambda i: np.array([r[i] for r in records], dtype=np.int64)  # noqa: E731
    lines = column(0) + base
    kinds = np.where(random, Region.VERTEX_DATA, Region.EDGES).astype(np.uint8)
    threads = column(3).astype(np.int8)
    classifier = LocalityTypeClassifier(space)
    bounds = [0, *sorted(min(c, len(records)) for c in cuts), len(records)]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        chunk = MemoryTrace(
            lines=lines[lo:hi],
            kinds=kinds[lo:hi],
            read_vertex=column(1)[lo:hi].astype(np.int32),
            proc_vertex=column(2)[lo:hi].astype(np.int32),
            space=space,
        )
        classifier.add(chunk, threads[lo:hi])
    got = classifier.counts()
    assert [
        got.type_i, got.type_ii, got.type_iii, got.type_iv, got.type_v, got.cold
    ] == _scan_counts(records)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    log_scale=st.integers(1, 8),
    num_edges=st.integers(0, 1500),
    num_threads=st.integers(1, 8),
    direction=st.sampled_from(["pull", "push"]),
)
def test_count_matches_classifier_of_whole_interleaved_trace(
    seed, log_scale, num_edges, num_threads, direction
):
    """The trace-only count equals one classifier fed the whole merged
    trace at once: per-partition traces, round-robin interleaved, with
    no simulator in between."""
    src, dst = rmat_edges(log_scale, num_edges, seed=seed)
    graph = build_graph(1 << log_scale, src, dst, name=f"rm{seed}").graph
    config = dataclasses.replace(
        SimulationConfig.scaled_for(graph, direction=direction),
        num_threads=num_threads,
    )
    space = AddressSpace(
        graph.num_vertices, graph.num_edges, line_size=config.cache.line_size
    )
    bounds = edge_balanced_partitions(graph, num_threads, direction=direction)
    traces = [
        spmv_trace(
            graph,
            space,
            direction=direction,
            vertex_range=(int(bounds[t]), int(bounds[t + 1])),
        )
        for t in range(num_threads)
    ]
    merged, threads = interleave_traces(traces, ROUND_ROBIN_INTERVAL)
    random_region = Region.VERTEX_DATA if direction == "pull" else Region.VERTEX_OUT
    classifier = LocalityTypeClassifier(space, random_region)
    classifier.add(merged, threads)
    counts = count_locality_types(graph, config)
    assert counts == classifier.counts()
    assert counts.total_reuses + counts.cold == int(
        np.count_nonzero(merged.kinds == random_region)
    )


def test_analyzer_locality_types_replay_no_cache(small_social):
    """The analyzer counts locality types off the trace: no L3 or TLB
    access is replayed and no cache span opens."""
    with obs.recording():
        counts = LocalityAnalyzer(small_social).locality_types()
        accesses = obs_metrics.registry.counter("cache.accesses").value
        names = {record.name for record in obs.completed_spans()}
    assert counts.total_reuses > 0
    assert accesses == 0
    assert "sim.trace" in names
    assert not names & {"sim.cache", "sim.tlb"}

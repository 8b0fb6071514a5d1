"""Unit tests for partitioning, trace interleaving and work stealing."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sim.address_space import AddressSpace
from repro.sim.parallel import edge_balanced_partitions, interleave_stream
from repro.sim.scheduler import cost_balanced_chunks, simulate_work_stealing
from repro.sim.trace import concatenate_traces, spmv_trace


class TestPartitions:
    def test_boundaries_cover_graph(self, small_social):
        boundaries = edge_balanced_partitions(small_social, 4)
        assert boundaries[0] == 0
        assert boundaries[-1] == small_social.num_vertices
        assert (np.diff(boundaries) >= 0).all()

    def test_edges_roughly_balanced(self, small_social):
        boundaries = edge_balanced_partitions(small_social, 4)
        counts = np.diff(small_social.in_adj.offsets[boundaries])
        assert counts.sum() == small_social.num_edges
        target = small_social.num_edges / 4
        # within 2x of ideal (hubs limit the achievable balance)
        assert counts.max() < 2.5 * target

    def test_single_partition(self, tiny_graph):
        boundaries = edge_balanced_partitions(tiny_graph, 1)
        assert boundaries.tolist() == [0, 6]

    def test_more_parts_than_vertices(self, tiny_graph):
        boundaries = edge_balanced_partitions(tiny_graph, 50)
        assert boundaries[-1] == 6
        assert (np.diff(boundaries) >= 0).all()

    def test_rejects_zero_parts(self, tiny_graph):
        with pytest.raises(SimulationError):
            edge_balanced_partitions(tiny_graph, 0)


def interleave_traces(traces, interval):
    """Merge whole per-thread traces through the streaming interleave."""
    batches = list(interleave_stream([[trace] for trace in traces], interval))
    merged = concatenate_traces([batch[0] for batch in batches])
    return merged, np.concatenate([batch[1] for batch in batches])


class TestInterleave:
    def test_round_robin_order(self, two_hop_ring):
        space = AddressSpace(16, 32)
        a = spmv_trace(two_hop_ring, space, vertex_range=(0, 8))
        b = spmv_trace(two_hop_ring, space, vertex_range=(8, 16))
        merged, threads = interleave_traces([a, b], interval=4)
        assert len(merged) == len(a) + len(b)
        # first block comes from thread 0, second from thread 1
        assert threads[:4].tolist() == [0] * 4
        assert threads[4:8].tolist() == [1] * 4

    def test_preserves_per_thread_order(self, two_hop_ring):
        space = AddressSpace(16, 32)
        a = spmv_trace(two_hop_ring, space, vertex_range=(0, 8))
        b = spmv_trace(two_hop_ring, space, vertex_range=(8, 16))
        merged, threads = interleave_traces([a, b], interval=3)
        restored = merged.lines[threads == 0]
        assert np.array_equal(restored, a.lines)

    def test_uneven_lengths_drain(self, two_hop_ring):
        space = AddressSpace(16, 32)
        a = spmv_trace(two_hop_ring, space, vertex_range=(0, 14))
        b = spmv_trace(two_hop_ring, space, vertex_range=(14, 16))
        merged, threads = interleave_traces([a, b], interval=4)
        assert len(merged) == len(a) + len(b)
        assert (threads == 1).sum() == len(b)

    def test_rejects_empty_list(self):
        with pytest.raises(SimulationError):
            interleave_traces([], 4)

    def test_rejects_bad_interval(self, tiny_graph):
        trace = spmv_trace(tiny_graph)
        with pytest.raises(SimulationError):
            interleave_traces([trace], 0)


class TestChunks:
    def test_cost_balanced_chunks_split_hot_partition(self):
        per_vertex = np.ones(100)
        per_vertex[:10] = 50.0  # hot region
        boundaries = np.array([0, 10, 100])
        chunks = cost_balanced_chunks(per_vertex, boundaries)
        # hot partition must be split into several chunks, not one blob
        assert len(chunks[0]) >= 5
        total = sum(c.sum() for c in chunks)
        assert total == pytest.approx(per_vertex.sum())


class TestWorkStealing:
    def test_balanced_load_no_idle(self):
        chunks = [np.ones(8) for _ in range(4)]
        result = simulate_work_stealing(chunks)
        assert result.makespan == pytest.approx(8.0)
        assert result.idle_percent == pytest.approx(0.0, abs=1e-9)
        assert result.num_steals == 0

    def test_imbalanced_load_triggers_steals(self):
        chunks = [np.ones(16), np.zeros(0), np.zeros(0), np.zeros(0)]
        result = simulate_work_stealing(chunks)
        assert result.num_steals > 0
        assert result.makespan < 16.0  # stealing shortens the schedule

    def test_atomic_chunk_bounds_makespan(self):
        chunks = [np.array([10.0]), np.ones(2)]
        result = simulate_work_stealing(chunks)
        assert result.makespan == pytest.approx(10.0)

    def test_busy_time_conserved(self):
        rng = np.random.default_rng(3)
        chunks = [rng.random(10) for _ in range(3)]
        total = sum(c.sum() for c in chunks)
        result = simulate_work_stealing(chunks)
        assert result.busy_time.sum() == pytest.approx(total)

    def test_steal_cost_charged(self):
        chunks = [np.ones(16), np.zeros(0)]
        free = simulate_work_stealing(chunks, steal_cost=0.0)
        paid = simulate_work_stealing(
            [np.ones(16), np.zeros(0)], steal_cost=5.0
        )
        assert paid.makespan >= free.makespan

    def test_rejects_zero_threads(self):
        with pytest.raises(SimulationError):
            simulate_work_stealing([])

    def test_idle_percent_range(self):
        chunks = [np.ones(5), np.ones(1)]
        result = simulate_work_stealing(chunks)
        assert 0.0 <= result.idle_percent < 100.0

"""Unit tests for SlashBurn and SlashBurn++."""

import math

import numpy as np
import pytest

from repro.errors import ReorderingError
from repro.graph.permute import invert_permutation, is_permutation
from repro.graph.validate import validate_graph
from repro.reorder.slashburn import SlashBurn, SlashBurnPP, slashburn_iterations


class TestSlashBurn:
    def test_valid_permutation(self, small_social):
        result = SlashBurn()(small_social)
        assert is_permutation(result.relabeling, small_social.num_vertices)
        validate_graph(result.apply(small_social))

    def test_hubs_get_lowest_ids(self, small_social):
        result = SlashBurn()(small_social)
        k = result.details["k"]
        order = invert_permutation(result.relabeling)
        degrees = small_social.total_degrees()
        first_wave = degrees[order[:k]]
        # first k IDs go to the k highest-degree vertices, descending
        assert (np.diff(first_wave) <= 0).all()
        assert first_wave[0] == degrees.max()

    def test_star_graph_one_iteration(self, star_graph):
        result = SlashBurn(k_ratio=0.05)(star_graph)
        # slashing the center isolates every leaf; the whole graph is
        # ordered in one iteration
        assert result.details["num_iterations"] == 1
        assert result.relabeling[0] == 0  # center keeps ID 0

    def test_spokes_get_highest_ids(self, star_graph):
        result = SlashBurn(k_ratio=0.05)(star_graph)
        order = invert_permutation(result.relabeling)
        # all leaves occupy the tail of the order
        assert set(order[1:].tolist()) == set(range(1, 20))

    def test_k_ratio_validation(self):
        with pytest.raises(ReorderingError):
            SlashBurn(k_ratio=0.0)
        with pytest.raises(ReorderingError):
            SlashBurn(k_ratio=1.5)

    def test_max_iterations_validation(self):
        with pytest.raises(ReorderingError):
            SlashBurn(max_iterations=0)

    def test_remainder_order_validation(self):
        with pytest.raises(ReorderingError):
            SlashBurn(remainder_order="bfs")

    def test_max_iterations_respected(self, small_social):
        result = SlashBurn(max_iterations=2)(small_social)
        assert result.details["num_iterations"] <= 2

    def test_deterministic(self, small_social):
        a = SlashBurn()(small_social).relabeling
        b = SlashBurn()(small_social).relabeling
        assert np.array_equal(a, b)

    def test_remainder_original_preserves_relative_order(self, two_hop_ring):
        result = SlashBurn(
            max_iterations=1, remainder_order="original"
        )(two_hop_ring)
        order = invert_permutation(result.relabeling)
        k = result.details["k"]
        tail = order[k:]
        remainder = tail[np.isin(tail, order[:k], invert=True)]
        assert (np.diff(remainder) > 0).all()


class TestSlashBurnPP:
    def test_stops_earlier_than_slashburn(self, small_social):
        full = SlashBurn()(small_social)
        early = SlashBurnPP()(small_social)
        assert (
            early.details["num_iterations"] <= full.details["num_iterations"]
        )

    def test_stop_condition_sqrt_degree(self, small_social):
        result = SlashBurnPP(record_iterations=True)(small_social)
        snapshots = result.details["iterations"]
        threshold = math.sqrt(small_social.num_vertices)
        if snapshots:
            # every *recorded* (i.e. executed) iteration still had a
            # hub-grade GCC when it started, except possibly the last
            for snap in snapshots[:-1]:
                assert snap.gcc_max_degree >= 0

    def test_valid_permutation(self, small_web):
        result = SlashBurnPP()(small_web)
        assert is_permutation(result.relabeling, small_web.num_vertices)


class TestIterationRecords:
    def test_figure2_snapshots(self, small_social):
        snapshots = slashburn_iterations(small_social, max_iterations=8)
        assert snapshots
        assert snapshots[0].iteration == 1
        previous = small_social.num_vertices
        for snap in snapshots:
            assert snap.gcc_vertices <= previous
            previous = snap.gcc_vertices
            assert snap.gcc_degrees.shape[0] == snap.gcc_vertices

    def test_gcc_max_degree_declines(self, small_social):
        snapshots = slashburn_iterations(small_social, max_iterations=8)
        maxima = [snap.gcc_max_degree for snap in snapshots]
        assert maxima[-1] <= maxima[0]

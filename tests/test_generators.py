"""Unit tests for the synthetic dataset generators."""

import numpy as np
import pytest

from repro.errors import ExperimentError, GraphFormatError
from repro.core.asymmetricity import reciprocity
from repro.generate.datasets import DATASETS, dataset_names, load_dataset
from repro.generate.rmat import rmat_edges
from repro.generate.social import social_network
from repro.generate.webgraph import host_sizes, web_graph
from tests.fixture_graphs import planted_partition_edges, ring_edges
from repro.graph.validate import validate_graph


class TestRmat:
    def test_deterministic(self):
        a = rmat_edges(8, 500, seed=3)
        b = rmat_edges(8, 500, seed=3)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_ids_in_range(self):
        src, dst = rmat_edges(6, 1000, seed=1)
        assert src.min() >= 0 and src.max() < 64
        assert dst.min() >= 0 and dst.max() < 64

    def test_skewed_parameters_make_hubs(self):
        src, _ = rmat_edges(10, 20_000, seed=2)
        degrees = np.bincount(src, minlength=1024)
        assert degrees.max() > 10 * degrees.mean()

    def test_rejects_bad_probabilities(self):
        with pytest.raises(GraphFormatError):
            rmat_edges(4, 10, a=0.9, b=0.2, c=0.2)

    def test_rejects_bad_scale(self):
        with pytest.raises(GraphFormatError):
            rmat_edges(-1, 10)

    def test_zero_edges(self):
        src, dst = rmat_edges(4, 0)
        assert src.shape == (0,)


class TestRandomGraphs:
    def test_ring_degrees(self):
        src, dst = ring_edges(10, hops=3)
        out_deg = np.bincount(src, minlength=10)
        assert (out_deg == 3).all()

    def test_ring_rejects_bad_hops(self):
        with pytest.raises(GraphFormatError):
            ring_edges(5, hops=5)

    def test_planted_partition_intra_dominates(self):
        src, dst = planted_partition_edges(4, 25, 8, 1, seed=3)
        same = (src // 25) == (dst // 25)
        assert same.mean() > 0.8


class TestSocialNetwork:
    def test_valid_and_deterministic(self):
        a = social_network(scale=10, average_degree=8, seed=4)
        b = social_network(scale=10, average_degree=8, seed=4)
        validate_graph(a)
        assert a == b

    def test_high_reciprocity(self, small_social):
        assert reciprocity(small_social) > 0.5

    def test_hubs_are_symmetric(self, small_social):
        in_hubs = set(small_social.in_hubs().tolist())
        out_hubs = set(small_social.out_hubs().tolist())
        if in_hubs and out_hubs:
            overlap = len(in_hubs & out_hubs) / len(in_hubs | out_hubs)
            assert overlap > 0.3

    def test_rejects_bad_community_fraction(self):
        with pytest.raises(GraphFormatError):
            social_network(scale=8, community_fraction=1.5)


class TestWebGraph:
    def test_valid_and_deterministic(self):
        a = web_graph(num_vertices=1024, average_degree=8, seed=4)
        b = web_graph(num_vertices=1024, average_degree=8, seed=4)
        validate_graph(a)
        assert a == b

    def test_low_reciprocity(self, small_web):
        assert reciprocity(small_web) < 0.5

    def test_asymmetric_in_hubs(self, small_web):
        assert small_web.in_degrees().max() > 5 * small_web.out_degrees().max()

    def test_host_sizes_sum(self):
        sizes = host_sizes(1000, 30, seed=1)
        assert sizes.sum() == 1000
        assert (sizes > 0).all()

    def test_host_sizes_rejects_bad_input(self):
        with pytest.raises(GraphFormatError):
            host_sizes(0, 30)
        with pytest.raises(GraphFormatError):
            host_sizes(10, 0)

    def test_rejects_bad_fraction(self):
        with pytest.raises(GraphFormatError):
            web_graph(num_vertices=128, intra_fraction=1.5)

    def test_rejects_bad_disorder(self):
        with pytest.raises(GraphFormatError):
            web_graph(num_vertices=128, disorder=-0.1)


class TestDatasetRegistry:
    def test_nine_entries_matching_table1(self):
        assert len(DATASETS) == 9
        assert len(dataset_names("SN")) == 2
        assert len(dataset_names("WG")) == 7

    def test_unknown_family(self):
        with pytest.raises(ExperimentError):
            dataset_names("XX")

    def test_unknown_dataset(self):
        with pytest.raises(ExperimentError):
            load_dataset("nope")

    def test_scale_override(self):
        small = load_dataset("twtr-mini", scale=0.25)
        assert small.num_vertices < 8192
        validate_graph(small)

    def test_scale_env_validation(self, monkeypatch):
        from repro.generate.datasets import scale_factor

        for bad in ("abc", "-1", "nan", "inf", "-inf"):
            monkeypatch.setenv("REPRO_SCALE", bad)
            with pytest.raises(ExperimentError):
                scale_factor()
        monkeypatch.setenv("REPRO_SCALE", "2.0")
        assert scale_factor() == 2.0

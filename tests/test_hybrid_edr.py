"""Unit tests for the hybrid RA and the EDR restriction wrapper."""

import numpy as np
import pytest

from repro.errors import ReorderingError
from repro.core.binning import log_bins
from repro.core.missdist import MissRateDistribution
from repro.graph.permute import invert_permutation, is_permutation
from repro.graph.validate import validate_graph
from repro.reorder.baselines import Identity
from repro.reorder.edr import EDRRestricted, efficacy_degree_range
from repro.reorder.hybrid import HybridOrder
from repro.reorder.rabbit import RabbitOrder


class TestHybrid:
    def test_valid_permutation(self, small_social):
        result = HybridOrder()(small_social)
        assert is_permutation(result.relabeling, small_social.num_vertices)
        validate_graph(result.apply(small_social))

    def test_hdv_occupy_low_ids(self, small_social):
        result = HybridOrder()(small_social)
        num_hdv = result.details["num_hdv"]
        order = invert_permutation(result.relabeling)
        degrees = small_social.total_degrees()
        threshold = 2.0 * small_social.average_degree
        assert (degrees[order[:num_hdv]] > threshold).all()

    def test_works_on_web(self, small_web):
        result = HybridOrder()(small_web)
        assert is_permutation(result.relabeling, small_web.num_vertices)


class TestEDRRestricted:
    def test_valid_permutation(self, small_web):
        wrapped = EDRRestricted(RabbitOrder(), 1, 50)
        result = wrapped(small_web)
        assert is_permutation(result.relabeling, small_web.num_vertices)

    def test_out_of_range_vertices_keep_relative_order(self, small_web):
        wrapped = EDRRestricted(RabbitOrder(), 1, 20)
        result = wrapped(small_web)
        degrees = small_web.total_degrees()
        skipped = np.flatnonzero(~((degrees >= 1) & (degrees <= 20)))
        new_ids = result.relabeling[skipped]
        assert (np.diff(new_ids) > 0).all()

    def test_skipped_count(self, small_web):
        wrapped = EDRRestricted(Identity(), 5, 10)
        result = wrapped(small_web)
        degrees = small_web.total_degrees()
        in_range = ((degrees >= 5) & (degrees <= 10)).sum()
        assert result.details["num_in_range"] == in_range
        assert result.details["num_skipped"] == small_web.num_vertices - in_range

    def test_name_derived(self):
        assert EDRRestricted(RabbitOrder(), 1, 10).name == "rabbit+edr"

    def test_empty_range_rejected(self):
        with pytest.raises(ReorderingError):
            EDRRestricted(RabbitOrder(), 10, 5)

    def test_unknown_direction(self):
        with pytest.raises(ReorderingError):
            EDRRestricted(RabbitOrder(), 1, 5, direction="up")

    def test_range_matching_nothing(self, small_web):
        wrapped = EDRRestricted(RabbitOrder(), 10**8, 10**9)
        result = wrapped(small_web)
        assert result.relabeling.tolist() == list(range(small_web.num_vertices))


def make_dist(bins, rates, accesses=None):
    rates = np.asarray(rates, dtype=np.float64)
    if accesses is None:
        accesses = np.full(bins.num_bins, 100, dtype=np.int64)
    misses = (rates / 100.0 * accesses).astype(np.int64)
    return MissRateDistribution(
        bins=bins, miss_rate_percent=rates, accesses=accesses, misses=misses
    )


class TestEfficacyRange:
    def test_detects_improved_band(self):
        bins = log_bins(100)  # edges 1,2,5,10,20,50,100,200 -> 7 bins
        initial = make_dist(bins, [50, 50, 50, 50, 50, 50, 50])
        better = make_dist(bins, [50, 30, 30, 30, 50, 50, 50])
        lo, hi = efficacy_degree_range(initial, better)
        assert lo == 2
        assert hi == 19  # last improved bin is 10-20

    def test_min_improvement_threshold(self):
        bins = log_bins(10)  # edges 1,2,5,10,20 -> 4 bins
        initial = make_dist(bins, [50, 50, 50, 50])
        barely = make_dist(bins, [49.5, 49.5, 49.5, 49.5])
        with pytest.raises(ReorderingError):
            efficacy_degree_range(initial, barely, min_improvement_percent=1.0)

    def test_no_improvement_raises(self):
        bins = log_bins(10)
        initial = make_dist(bins, [50, 50, 50, 50])
        worse = make_dist(bins, [60, 60, 60, 60])
        with pytest.raises(ReorderingError):
            efficacy_degree_range(initial, worse)

    def test_bin_mismatch_rejected(self):
        a = make_dist(log_bins(10), [50, 50, 50, 50])
        b = make_dist(log_bins(100), [10] * 7)
        with pytest.raises(ReorderingError):
            efficacy_degree_range(a, b)

    def test_empty_bins_ignored(self):
        bins = log_bins(10)
        accesses = np.array([100, 0, 100, 0])
        initial = make_dist(bins, [50, 0, 50, 0], accesses)
        better = make_dist(bins, [40, 0, 50, 0], accesses)
        lo, hi = efficacy_degree_range(initial, better)
        assert (lo, hi) == (1, 1)

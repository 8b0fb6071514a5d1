"""Unit tests for degree binning, degree range decomposition, hub coverage."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.core.binning import DegreeBins, log_bins
from repro.core.degree_range import degree_range_decomposition
from repro.core.hub_coverage import coverage_at, hub_coverage
from repro.graph import Graph


def graph_of(n, edges):
    src = np.array([e[0] for e in edges], dtype=np.int64)
    dst = np.array([e[1] for e in edges], dtype=np.int64)
    return Graph.from_edges(n, src, dst)


class TestLogBins:
    def test_125_structure(self):
        bins = log_bins(100)
        assert bins.lower.tolist() == [1, 2, 5, 10, 20, 50, 100, 200]

    def test_max_degree_covered(self):
        bins = log_bins(100)
        assert bins.index_of(np.array([100]))[0] == bins.num_bins - 1

    def test_min_degree_offset(self):
        bins = log_bins(100, min_degree=3)
        assert bins.lower[0] == 3

    def test_rejects_inverted_range(self):
        with pytest.raises(ReproError):
            log_bins(2, min_degree=5)

    def test_rejects_min_below_one(self):
        with pytest.raises(ReproError):
            log_bins(10, min_degree=0)

    def test_labels(self):
        assert log_bins(5).labels() == ["1-2", "2-5", "5-10"]

    def test_centers_geometric(self):
        bins = log_bins(10)
        assert bins.centers()[0] == pytest.approx(np.sqrt(2))

    def test_degree_one(self):
        bins = log_bins(1)
        assert bins.num_bins == 1

    @given(st.integers(min_value=1, max_value=100_000))
    @settings(max_examples=50, deadline=None)
    def test_every_degree_lands_in_its_bin(self, degree):
        bins = log_bins(100_000)
        idx = int(bins.index_of(np.array([degree]))[0])
        assert bins.lower[idx] <= degree
        if idx + 1 < bins.lower.shape[0]:
            assert degree < bins.lower[idx + 1] or idx == bins.num_bins - 1


def searchsorted_bins(lower: np.ndarray, degrees) -> np.ndarray:
    """The binning ``index_of`` replaced: a right-sided ``searchsorted``
    minus one, clamped into the last bin."""
    idx = np.searchsorted(lower, np.asarray(degrees, dtype=np.int64), side="right") - 1
    idx[idx >= lower.shape[0] - 1] = lower.shape[0] - 2
    return idx


_ORACLE_BINS = {
    "log-1": log_bins(1).lower,
    "log-100": log_bins(100).lower,
    "log-100-min3": log_bins(100, min_degree=3).lower,
    "log-100000": log_bins(100_000).lower,
    "custom": np.array([1, 3, 4, 9, 30], dtype=np.int64),
    "custom-from-zero-repeated-edge": np.array([0, 7, 7, 12], dtype=np.int64),
    "custom-one-bin": np.array([6, 11], dtype=np.int64),
}


class TestIndexOfOracle:
    @pytest.mark.parametrize("name", sorted(_ORACLE_BINS))
    def test_edges_and_extremes_match_searchsorted(self, name):
        lower = _ORACLE_BINS[name]
        bins = DegreeBins(lower=lower)
        degrees = np.array(
            [0, 1, int(lower[0]), int(lower[0]) + 1, int(lower[1]) - 1,
             int(lower[-2]) - 1, int(lower[-2]), int(lower[-1]) - 1,
             int(lower[-1]), int(lower[-1]) + 1, 10 * int(lower[-1]) + 3,
             2**40]
            + [int(edge) for edge in lower],
            dtype=np.int64,
        )
        got = bins.index_of(degrees)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, searchsorted_bins(lower, degrees))
        # Degrees at or above the last bin's lower edge clamp into it.
        assert (got[degrees >= lower[-2]] == bins.num_bins - 1).all()
        assert (got[degrees < lower[0]] == -1).all()

    @pytest.mark.parametrize("name", sorted(_ORACLE_BINS))
    def test_empty_input(self, name):
        got = DegreeBins(lower=_ORACLE_BINS[name]).index_of(np.zeros(0, dtype=np.int64))
        assert got.dtype == np.int64 and got.shape == (0,)

    @given(
        edges=st.lists(st.integers(0, 300), min_size=2, max_size=9),
        degrees=st.lists(st.integers(0, 2000), max_size=200),
    )
    @settings(max_examples=200, deadline=None)
    def test_random_bins_match_searchsorted(self, edges, degrees):
        lower = np.sort(np.array(edges, dtype=np.int64))
        got = DegreeBins(lower=lower).index_of(np.array(degrees, dtype=np.int64))
        np.testing.assert_array_equal(got, searchsorted_bins(lower, degrees))

    def test_table_size_depends_on_bins_not_degrees(self):
        bins = log_bins(100)
        assert bins.index_of(np.array([2**50]))[0] == bins.num_bins - 1
        assert bins._table.shape[0] == int(bins.lower[-2]) + 1

    def test_rejects_malformed_edges(self):
        with pytest.raises(ReproError):
            DegreeBins(lower=np.array([5], dtype=np.int64))
        with pytest.raises(ReproError):
            DegreeBins(lower=np.array([1, 5, 2], dtype=np.int64))
        with pytest.raises(ReproError):
            DegreeBins(lower=np.array([-1, 5], dtype=np.int64))


class TestDegreeRange:
    def test_columns_sum_to_100(self, small_social):
        dec = degree_range_decomposition(small_social)
        sums = dec.percent.sum(axis=0)
        populated = dec.edge_counts.sum(axis=0) > 0
        assert np.allclose(sums[populated], 100.0)

    def test_edge_counts_total(self, small_social):
        dec = degree_range_decomposition(small_social)
        assert dec.edge_counts.sum() == small_social.num_edges

    def test_hand_case(self):
        # one edge from out-degree-1 source to in-degree-1 target
        dec = degree_range_decomposition(graph_of(2, [(0, 1)]))
        assert dec.percent[0, 0] == pytest.approx(100.0)

    def test_star_decomposition(self, star_graph):
        dec = degree_range_decomposition(star_graph)
        # 19 in-edges of the hub (in-degree 19, class 1) all come from
        # out-degree-1 sources (class 0)
        assert dec.percent[0, 1] == pytest.approx(100.0)

    def test_high_degree_share(self, star_graph):
        dec = degree_range_decomposition(star_graph)
        assert dec.high_degree_share(1, first_high_class=1) == pytest.approx(0.0)


class TestHubCoverage:
    def test_star_in_hub_covers_everything(self, star_graph):
        cov = hub_coverage(star_graph)
        assert cov.in_percent[0] == pytest.approx(100.0)
        assert cov.out_percent[0] == pytest.approx(100.0 / 19)

    def test_curves_monotone(self, small_web):
        cov = hub_coverage(small_web)
        assert (np.diff(cov.in_percent) >= -1e-9).all()
        assert (np.diff(cov.out_percent) >= -1e-9).all()

    def test_full_budget_covers_all(self, small_web):
        cov = hub_coverage(small_web)
        assert cov.in_percent[-1] == pytest.approx(100.0)
        assert cov.out_percent[-1] == pytest.approx(100.0)

    def test_crossover_direction(self, small_web, small_social):
        budget_web = max(1, small_web.num_vertices // 100)
        assert hub_coverage(small_web).crossover_favours(budget_web) == "push"
        budget_soc = max(1, small_social.num_vertices // 100)
        assert hub_coverage(small_social).crossover_favours(budget_soc) == "pull"

    def test_coverage_at_interpolates(self):
        counts = np.array([1, 10])
        percent = np.array([10.0, 100.0])
        assert coverage_at(counts, percent, 1) == pytest.approx(10.0)
        assert coverage_at(counts, percent, 10) == pytest.approx(100.0)
        assert 10.0 < coverage_at(counts, percent, 5) < 100.0

    def test_coverage_at_zero_budget(self):
        assert coverage_at(np.array([1]), np.array([50.0]), 0) == 0.0

    def test_empty_graph_rejected(self):
        with pytest.raises(ReproError):
            hub_coverage(graph_of(0, []))

    def test_num_points_caps_resolution(self, small_web):
        cov = hub_coverage(small_web, num_points=4)
        assert cov.hub_counts.shape[0] <= 4

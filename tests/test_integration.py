"""Cross-module integration tests: the full pipeline on small graphs.

These are the load-bearing end-to-end checks: every registered RA must
produce a valid relabeling whose application preserves SpMV semantics,
and the whole metric battery must run on the result.
"""

import numpy as np
import pytest

from repro import (
    LocalityAnalyzer,
    SimulationConfig,
    algorithm_names,
    get_algorithm,
    simulate_spmv,
)
from repro.core.missdist import miss_rate_degree_distribution
from repro.graph.validate import validate_graph
from repro.sim.simulator import count_locality_types


@pytest.mark.parametrize("name", sorted(set(algorithm_names())))
class TestEveryAlgorithmEndToEnd:
    def test_reorder_validate_simulate(self, small_web, name):
        algorithm = get_algorithm(name)
        result = algorithm(small_web)
        reordered = result.apply(small_web)
        validate_graph(reordered)

        config = SimulationConfig.scaled_for(reordered, scan_interval=4000)
        sim = simulate_spmv(reordered, config)
        assert sim.random_accesses == small_web.num_edges
        assert 0 <= sim.random_miss_rate <= 1
        assert 0 <= sim.effective_cache_size() <= 100

        dist = miss_rate_degree_distribution(sim)
        assert dist.accesses.sum() == small_web.num_edges

    def test_spmv_semantics_preserved(self, small_web, name):
        """The oracle: relabeling must never change SpMV results.

        Old vertex ``v`` is new vertex ``relabeling[v]``: it must pull the
        same sum from the reordered graph as from the original.
        """
        algorithm = get_algorithm(name)
        result = algorithm(small_web)
        reordered = result.apply(small_web)

        def pull(graph, data):
            adj = graph.in_adj
            return np.bincount(adj.edge_sources(), weights=data[adj.targets],
                               minlength=graph.num_vertices)

        moved = np.random.default_rng(1).random(small_web.num_vertices)
        expected = pull(small_web, moved[result.relabeling])
        actual = pull(reordered, moved)[result.relabeling]
        assert np.allclose(expected, actual)


class TestAnalyzerOnReorderedGraphs:
    def test_rabbit_improves_scrambled_web(self, small_web):
        from repro.graph.permute import random_permutation

        scrambled = small_web.permuted(
            random_permutation(small_web.num_vertices, seed=3)
        )
        config = SimulationConfig.scaled_for(small_web)
        baseline = simulate_spmv(scrambled, config)

        result = get_algorithm("rabbit")(scrambled)
        recovered = simulate_spmv(result.apply(scrambled), config)
        assert recovered.l3_misses < 0.6 * baseline.l3_misses

    def test_locality_types_shift_with_reordering(self, small_web):
        """Clustering converts cold/irregular accesses into reuse."""
        from repro.graph.permute import random_permutation

        scrambled = small_web.permuted(
            random_permutation(small_web.num_vertices, seed=4)
        )
        config = SimulationConfig.scaled_for(small_web)

        def spatial_fraction(graph):
            fractions = count_locality_types(graph, config).fractions()
            return fractions["I"] + fractions["III"]

        result = get_algorithm("rabbit")(scrambled)
        assert spatial_fraction(result.apply(scrambled)) > spatial_fraction(
            scrambled
        )

    def test_full_analyzer_battery(self, small_social):
        analyzer = LocalityAnalyzer(small_social)
        summary = analyzer.summary()
        assert summary.favoured_direction in ("push", "pull")
        assert analyzer.miss_rate_distribution().accesses.sum() > 0
        assert analyzer.aid_distribution().vertex_counts.sum() > 0
        assert analyzer.locality_types().total_reuses > 0


class TestPushPullIntegration:
    def test_web_prefers_csr_reads(self, small_web):
        config = SimulationConfig.scaled_for(small_web)
        csc = simulate_spmv(small_web, config)
        csr = simulate_spmv(small_web.reversed(), config)
        assert csr.l3_misses < csc.l3_misses

    def test_social_prefers_csc_reads(self, small_social):
        config = SimulationConfig.scaled_for(small_social)
        csc = simulate_spmv(small_social, config)
        csr = simulate_spmv(small_social.reversed(), config)
        assert csc.l3_misses < csr.l3_misses

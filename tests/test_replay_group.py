"""Group simulation: many cells' L3 replays run together, bit for bit.

:func:`simulate_spmv_group` holds each cell's L3 line ids, replays
batch ``j`` of every cell in one lockstep kernel pass (one column per
(cell, set)) and streams each trace again to attribute the held hit
bits.  Every result must equal :func:`simulate_spmv` of the same cell,
and the paper sweep's geometry must send every lockstep batch to the
kernel.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import obs
from repro.bench.workloads import Workloads
from repro.errors import SimulationError
from repro.core.ecs import with_ecs_scans
from repro.generate import social_network
from repro.generate.datasets import load_dataset
from repro.graph.permute import random_permutation
from repro.obs import metrics as obs_metrics
from repro.reorder import get_algorithm
from repro.sim import simulator
from repro.sim.cache import CacheConfig
from repro.sim.simulator import SimulationConfig, simulate_spmv, simulate_spmv_group
from repro.store.store import ArtifactStore


def _assert_same_result(got, want) -> None:
    for field in dataclasses.fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            np.testing.assert_array_equal(a, b, err_msg=field.name)
        elif dataclasses.is_dataclass(b) and not isinstance(b, type):
            for inner in dataclasses.fields(b):
                np.testing.assert_array_equal(
                    getattr(a, inner.name), getattr(b, inner.name), err_msg=field.name
                )
        else:
            assert a == b, field.name


def _counter(name: str) -> int:
    return obs_metrics.registry.counter(name).value


def _cells(graphs, cache: CacheConfig):
    """Each graph under its own scaled config, all on one cache."""
    return [
        (
            graph,
            dataclasses.replace(
                with_ecs_scans(graph, SimulationConfig.scaled_for(graph)), cache=cache
            ),
        )
        for graph in graphs
    ]


@pytest.fixture(scope="module")
def two_datasets():
    """Six orderings each of two social graphs of different sizes, so
    their cells have different scan intervals."""
    graphs = []
    for scale, seed in ((12, 3), (13, 4)):
        base = social_network(scale, 12.0, seed=seed)
        graphs.append(base)
        for k in range(5):
            graphs.append(base.permuted(random_permutation(base.num_vertices, seed=k)))
    return graphs


class TestGroupEqualsOneCellReplays:
    @pytest.mark.parametrize("policy", ["lru", "srrip", "drrip"])
    def test_every_cell_matches_simulate_spmv(self, two_datasets, policy):
        cells = _cells(two_datasets, CacheConfig(num_sets=8, ways=8, policy=policy))
        assert len({config.scan_interval for _, config in cells}) == 2
        with obs.recording():
            finishers = simulate_spmv_group(cells)
            # The first finisher comes after the group's L3 replay and
            # before any TLB replay of the second pass.
            first = next(finishers)
            kernel_batches = _counter("cache.kernel_batches")
        results = [first()] + [finish() for finish in finishers]
        assert kernel_batches > 0
        for (graph, config), result in zip(cells, results):
            _assert_same_result(result, simulate_spmv(graph, config))

    @pytest.mark.parametrize("policy", ["lru", "drrip"])
    def test_a_cell_that_outlasts_the_others_finishes_on_its_own(
        self, two_datasets, policy
    ):
        # A third of the scan interval gives one cell three times the
        # batches: once the others have run out, its batches fail the
        # density rule alone and go to the reference loop, after the
        # lockstep batches before them.
        cells = _cells(two_datasets, CacheConfig(num_sets=8, ways=8, policy=policy))
        graph, config = cells[0]
        cells[0] = (graph, dataclasses.replace(config, scan_interval=config.scan_interval // 3))
        with obs.recording():
            finishers = simulate_spmv_group(cells)
            first = next(finishers)
            kernel = _counter("cache.kernel_batches")
            reference = _counter("cache.reference_batches")
        results = [first()] + [finish() for finish in finishers]
        assert kernel > 0 and reference > 0
        for (graph, config), result in zip(cells, results):
            _assert_same_result(result, simulate_spmv(graph, config))

    def test_groups_cut_by_the_access_budget_match_too(self, two_datasets, monkeypatch):
        cells = _cells(two_datasets[:4], CacheConfig(num_sets=8, ways=8))
        whole = [finish() for finish in simulate_spmv_group(cells)]
        # A budget below one cell's accesses: every cell is its own group.
        monkeypatch.setattr(simulator, "GROUP_ACCESS_BUDGET", 1)
        for got, want in zip((finish() for finish in simulate_spmv_group(cells)), whole):
            _assert_same_result(got, want)

    def test_one_group_needs_one_cache(self, two_datasets):
        cells = _cells(two_datasets[:1], CacheConfig(num_sets=8, ways=8))
        cells += _cells(two_datasets[1:2], CacheConfig(num_sets=16, ways=8))
        with pytest.raises(SimulationError, match="one cache config"):
            list(simulate_spmv_group(cells))


def test_paper_sweep_geometry_sends_every_lockstep_batch_to_the_kernel():
    """Four minis at scale 0.25 (8 sets x 8 ways, four scan intervals),
    four cheap orderings each: the combined batches pass the density
    rule, so no L3 batch falls back to the reference loop."""
    graphs = []
    for name in ("twtr-mini", "frnd-mini", "sk-mini", "uu-mini"):
        base = load_dataset(name, scale=0.25)
        graphs.append(base)
        for algorithm in ("degree", "random", "hubsort"):
            graphs.append(get_algorithm(algorithm)(base).apply(base))
    cells = [
        (graph, with_ecs_scans(graph, SimulationConfig.scaled_for(graph)))
        for graph in graphs
    ]
    assert {config.cache for _, config in cells} == {CacheConfig(num_sets=8, ways=8)}
    assert len({config.scan_interval for _, config in cells}) == 4
    with obs.recording():
        finishers = simulate_spmv_group(cells)
        # The first finisher comes after the whole group's L3 replay and
        # before any TLB replay of the second pass.
        next(finishers)
        kernel = _counter("cache.kernel_batches")
        reference = _counter("cache.reference_batches")
    batches = max(
        -(-simulator._held_lines(graph, config).lines.shape[0] // config.scan_interval)
        for graph, config in cells
    )
    assert (kernel, reference) == (batches, 0)


def test_workloads_group_entry_stores_what_simulation_stores(tmp_path, monkeypatch):
    """The group entry leaves the same artifacts, keys and manifest
    records as one :meth:`Workloads.simulation` call per cell, and a warm
    run finds every cell stored."""
    monkeypatch.setenv("REPRO_SCALE", "0.05")
    cells = [("twtr-mini", "identity"), ("twtr-mini", "degree"), ("sk-mini", "degree")]
    grouped = Workloads(store=ArtifactStore(tmp_path / "grouped"))
    grouped._simulate_together(["twtr-mini", "sk-mini"], ["identity", "degree"])
    single = Workloads(store=ArtifactStore(tmp_path / "single"))
    for dataset, algorithm in cells:
        _assert_same_result(
            grouped.simulation(dataset, algorithm), single.simulation(dataset, algorithm)
        )

    def records(workloads):
        return sorted(
            (r.stage, r.key, r.status, repr(r.params))
            for r in workloads.manifest.records
            if r.stage == "simulation"
        )

    # Same keys, statuses and params; the group also computed sk-mini/identity.
    assert set(records(single)) < set(records(grouped))
    assert grouped.stats["simulation"] == {"hits": 0, "computed": 4}

    warm = Workloads(store=ArtifactStore(tmp_path / "grouped"))
    warm._simulate_together(["twtr-mini", "sk-mini"], ["identity", "degree"])
    assert warm.stats == {}
    warm.simulation("sk-mini", "identity")
    assert warm.stats == {"simulation": {"hits": 1, "computed": 0}}

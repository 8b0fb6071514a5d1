"""Golden-number regression tests for the paper's headline metrics.

Pins the numeric outputs of the Figure 3 (AID), Table V (ECS) and
Figure 1 (miss-rate) computations on a small seeded RMAT graph to
committed JSON fixtures under ``tests/golden/``.  Any later change to
the kernels, the trace generator or the metric code that silently moves
a number — even in the last decimal places — fails here, while
intentional changes regenerate the fixtures with::

    pytest tests/test_golden.py --update-golden

The graph comes straight from ``rmat_edges`` (the ``golden_rmat``
fixture), not the ``REPRO_SCALE``-dependent dataset registry, so the
fixtures hold at every workload scale.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.core.aid import aid_degree_distribution
from repro.core.binning import log_bins
from repro.core.missdist import miss_rate_degree_distribution
from repro.graph.graph import Graph
from repro.reorder import get_algorithm
from repro.sim.simulator import SimulationConfig, SimulationResult, simulate_spmv

GOLDEN_DIR = Path(__file__).parent / "golden"

#: Comparison tolerances: the pinned quantities are ratios of exact
#: integer counts (plus one averaging step for ECS), so they reproduce
#: across platforms to far better than this.
RTOL = 1e-9
ATOL = 1e-12


# -- fixture (de)serialization ----------------------------------------------


def _jsonable(value):
    """Recursively convert numpy scalars/arrays; NaN becomes ``None``."""
    if isinstance(value, np.ndarray):
        return [_jsonable(item) for item in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {key: _jsonable(item) for key, item in value.items()}
    if isinstance(value, (np.floating, float)):
        number = float(value)
        return None if math.isnan(number) else number
    if isinstance(value, (np.integer, int)):
        return int(value)
    return value


def _assert_matches(expected, actual, path: str) -> None:
    """Structural comparison with NaN-as-None and float tolerance."""
    if isinstance(expected, dict):
        assert isinstance(actual, dict), f"{path}: expected mapping"
        assert sorted(expected) == sorted(actual), f"{path}: key set changed"
        for key in expected:
            _assert_matches(expected[key], actual[key], f"{path}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list), f"{path}: expected sequence"
        assert len(expected) == len(actual), (
            f"{path}: length {len(actual)} != golden {len(expected)}"
        )
        for index, (exp, act) in enumerate(zip(expected, actual)):
            _assert_matches(exp, act, f"{path}[{index}]")
    elif expected is None:
        assert actual is None, f"{path}: golden NaN, got {actual!r}"
    elif isinstance(expected, float):
        assert actual is not None, f"{path}: golden {expected!r}, got NaN"
        assert math.isclose(expected, float(actual), rel_tol=RTOL, abs_tol=ATOL), (
            f"{path}: {actual!r} drifted from golden {expected!r}"
        )
    else:
        assert expected == actual, f"{path}: {actual!r} != golden {expected!r}"


def check_golden(name: str, computed: dict, update: bool) -> None:
    """Compare ``computed`` against ``tests/golden/<name>.json``.

    With ``--update-golden`` the fixture is rewritten instead (and the
    test passes trivially, so a full run regenerates everything).
    """
    path = GOLDEN_DIR / f"{name}.json"
    document = _jsonable(computed)
    if update:
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
        return
    if not path.exists():
        pytest.fail(
            f"missing golden fixture {path}; generate it with "
            "`pytest tests/test_golden.py --update-golden`"
        )
    expected = json.loads(path.read_text(encoding="utf-8"))
    _assert_matches(expected, document, name)


# -- shared pipeline stages (module-scoped: computed once) -------------------


@pytest.fixture(scope="module")
def rabbit_rmat(golden_rmat: Graph) -> Graph:
    """The golden graph rebuilt in Rabbit-Order's vertex ID space."""
    return get_algorithm("rabbit")(golden_rmat).apply(golden_rmat)


def _scanned_simulation(graph: Graph) -> SimulationResult:
    approx_len = graph.num_edges + graph.num_vertices // 4
    config = SimulationConfig.scaled_for(
        graph, scan_interval=max(1, approx_len // 64)
    )
    return simulate_spmv(graph, config)


@pytest.fixture(scope="module")
def identity_sim(golden_rmat: Graph) -> SimulationResult:
    return _scanned_simulation(golden_rmat)


@pytest.fixture(scope="module")
def rabbit_sim(rabbit_rmat: Graph) -> SimulationResult:
    return _scanned_simulation(rabbit_rmat)


def _degree_bins(graph: Graph):
    return log_bins(max(1, int(graph.in_degrees().max(initial=1))))


# -- the pinned numbers ------------------------------------------------------


def test_fig3_aid_golden(golden_rmat, rabbit_rmat, update_golden):
    """Figure 3: per-degree-bin mean AID, original vs Rabbit order."""
    computed = {}
    for label, graph in (("identity", golden_rmat), ("rabbit", rabbit_rmat)):
        bins = _degree_bins(graph)
        dist = aid_degree_distribution(graph, bins=bins)
        computed[label] = {
            "bin_edges": bins.lower,
            "mean_aid": dist.mean_aid,
            "vertex_counts": dist.vertex_counts,
        }
    computed["structure"] = {
        "num_vertices": golden_rmat.num_vertices,
        "num_edges": golden_rmat.num_edges,
    }
    check_golden("fig3_aid", computed, update_golden)


def test_table5_ecs_golden(identity_sim, rabbit_sim, update_golden):
    """Table V: effective cache size and headline miss counters."""
    computed = {}
    for label, sim in (("identity", identity_sim), ("rabbit", rabbit_sim)):
        computed[label] = {
            "effective_cache_size_percent": sim.effective_cache_size(),
            "l3_misses": sim.l3_misses,
            "num_accesses": sim.num_accesses,
            "num_snapshots": len(sim.snapshots),
        }
    check_golden("table5_ecs", computed, update_golden)


def test_fig1_missrate_golden(identity_sim, rabbit_sim, update_golden):
    """Figure 1: miss rate (%) per processed-vertex degree bin."""
    computed = {}
    for label, sim in (("identity", identity_sim), ("rabbit", rabbit_sim)):
        bins = _degree_bins(sim.graph)
        dist = miss_rate_degree_distribution(sim, bins=bins)
        computed[label] = {
            "bin_edges": bins.lower,
            "miss_rate_percent": dist.miss_rate_percent,
            "accesses": dist.accesses,
            "misses": dist.misses,
            "overall_miss_rate_percent": dist.overall_miss_rate_percent,
        }
    check_golden("fig1_missrate", computed, update_golden)


def test_bimodal_draws_golden(golden_rmat, update_golden):
    """BRRIP/DRRIP miss counters under the per-access draw stream.

    The figure/table fixtures above run at the golden graph's *scaled*
    geometry, which collapses to a single set — a degenerate DRRIP that
    never takes a bimodal insertion, leaving the draw stream unpinned.
    This fixture replays the same SpMV trace through a deliberately
    tiny 4-set x 2-way cache that thrashes: BRRIP draws on most misses
    and DRRIP duels for real (PSEL leaves its midpoint, different seeds
    give different miss counts), so any change to the splitmix64
    counter-hash (`repro.sim._draws`), the draw-position bookkeeping,
    or the set-dueling wiring moves these integers and fails here.
    """
    from repro.sim import AddressSpace, CacheConfig, SetAssociativeCache
    from repro.sim import spmv_trace

    space = AddressSpace(golden_rmat.num_vertices, golden_rmat.num_edges)
    lines = spmv_trace(golden_rmat, space).lines
    computed = {"num_accesses": int(lines.shape[0])}
    for policy in ("brrip", "drrip"):
        for seed in (0, 7):
            cache = SetAssociativeCache(
                CacheConfig(num_sets=4, ways=2, policy=policy, seed=seed)
            )
            result = cache.simulate(lines, kernel="reference")
            computed[f"{policy}-seed{seed}"] = {
                "misses": int(lines.shape[0] - int(result.hits.sum())),
                "psel": int(cache._psel),
                # Position-weighted hit checksum: moves if any single
                # hit bit flips, not just the aggregate count.
                "hit_checksum": int(np.flatnonzero(result.hits).sum()),
            }
    check_golden("bimodal_draws", computed, update_golden)


def test_scale_streamed_golden(golden_rmat, update_golden):
    """Scale tier: streamed pipeline counters.

    Replays the golden graph through the bounded-memory pipeline —
    chunked traces -> streaming round-robin interleave -> one-cache
    replay — with a deliberately tiny ``chunk_accesses`` so the run
    crosses many chunk, batch and segment boundaries.  Pins the
    headline counters plus the final DRRIP PSEL of the same replay fed
    the same stream: any drift in the chunk-boundary dedup carry, the
    round-robin batch cut, the scan-aligned segment cuts or the
    position-keyed draw stream moves one of these integers and fails
    here.
    """
    from repro.sim import (
        AddressSpace,
        Replay,
        edge_balanced_partitions,
        interleave_stream,
        spmv_trace_chunks,
    )

    approx_len = golden_rmat.num_edges + golden_rmat.num_vertices // 4
    config = SimulationConfig.scaled_for(
        golden_rmat, scan_interval=max(1, approx_len // 64)
    )
    result = simulate_spmv(golden_rmat, config, chunk_accesses=512)

    space = AddressSpace(golden_rmat.num_vertices, golden_rmat.num_edges)
    bounds = edge_balanced_partitions(golden_rmat, config.num_threads)
    sources = [
        spmv_trace_chunks(
            golden_rmat,
            space,
            vertex_range=(int(bounds[t]), int(bounds[t + 1])),
            max_accesses=512 // config.num_threads,
        )
        for t in range(config.num_threads)
    ]
    stream = interleave_stream(sources, config.interleave_interval, batch_accesses=512)
    replay = Replay(config.cache, scan_interval=config.scan_interval)
    misses = sum(
        chunk.lines.shape[0] - int(replay.feed(chunk.lines).sum())
        for chunk, _ in stream
    )
    assert misses == result.l3_misses
    computed = {
        "num_accesses": result.num_accesses,
        "l3_misses": result.l3_misses,
        "tlb_misses": result.tlb_misses,
        "random_accesses": result.random_accesses,
        "random_misses": result.random_misses,
        "num_snapshots": len(result.snapshots),
        "snapshot_checksum": int(
            sum(int(s.resident_lines.sum()) for s in result.snapshots)
        ),
        "effective_cache_size_percent": result.effective_cache_size(),
        "psel": replay.cache._psel,
    }
    check_golden("scale_streamed", computed, update_golden)


def test_new_ras_golden(golden_rmat, update_golden):
    """DBG / per-community / trace-profiled orders on the golden graph.

    One fixture pins, per new RA, the three headline metrics the paper
    reads off its figures: the fig3 per-degree-bin mean AID, the
    table5 ECS + L3 miss counters, and the fig1 overall random miss
    rate.  Kept separate from the original per-metric fixtures so the
    strict key-set comparison there stays byte-stable.
    """
    computed = {}
    for name in ("dbg", "community", "hisorder"):
        result = get_algorithm(name)(golden_rmat)
        reordered = result.apply(golden_rmat)
        sim = _scanned_simulation(reordered)
        bins = _degree_bins(reordered)
        aid = aid_degree_distribution(reordered, bins=bins)
        miss = miss_rate_degree_distribution(sim, bins=bins)
        computed[name] = {
            "relabeling_checksum": int(
                (result.relabeling * np.arange(1, golden_rmat.num_vertices + 1)).sum()
            ),
            "fig3_mean_aid": aid.mean_aid,
            "table5_effective_cache_size_percent": sim.effective_cache_size(),
            "table5_l3_misses": sim.l3_misses,
            "fig1_overall_miss_rate_percent": miss.overall_miss_rate_percent,
        }
    check_golden("new_ras", computed, update_golden)


def test_golden_fixtures_are_committed():
    """The fixtures must ship with the repo, not appear on first run."""
    expected = {
        "fig3_aid.json",
        "table5_ecs.json",
        "fig1_missrate.json",
        "bimodal_draws.json",
        "scale_streamed.json",
        "new_ras.json",
    }
    present = {path.name for path in GOLDEN_DIR.glob("*.json")}
    assert expected <= present, f"missing golden fixtures: {expected - present}"

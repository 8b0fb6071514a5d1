"""``replay-4x``: cache replay of two minis at four times their size.

Set-up (untimed) generates ``twtr-mini`` and ``sk-mini`` at 4x scale
(about 2.1M and 1.8M edges) with the registry's generator parameters and
seeds offset by ``1000 * --seed``, and relabels ``sk-mini`` with DBG.
Each pass replays both orderings (``twtr-mini`` as generated, ``sk-mini``
in DBG order) under LRU, SRRIP, BRRIP and DRRIP at
the scaled 128-set geometry, then replays DRRIP through the streamed
path with one shard and with two process shards.  An operation is one
simulate call.  The three DRRIP replays of an ordering must agree
exactly on every counter.

No reordering, store or metric code runs in a pass.  Process shards
currently make ``multiprocessing.resource_tracker`` print
``KeyError: '/psm_...'`` tracebacks (each shared-memory segment is
unregistered twice); they are captured and counted as
``sim.shard.tracker_errors`` instead of failing the run.
"""

from __future__ import annotations

import contextlib
import math
import os
import time
from dataclasses import dataclass
from multiprocessing import resource_tracker
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro import obs
from repro.generate import social_network, web_graph
from repro.generate.datasets import DATASETS
from repro.graph.graph import Graph
from repro.obs import span
from repro.reorder import get_algorithm
from repro.sim import Region, SimulationConfig, simulate_spmv, simulate_spmv_streamed

from common import PassResult, SpeedProbe
from layers import POLICIES

SCALE = "1.0"
GRAPH_SCALE = 4
ORDERINGS = (("twtr-mini", "identity"), ("sk-mini", "dbg"))
#: The resource tracker's traceback line for a doubly unregistered segment.
TRACKER_ERROR = "KeyError: '/psm_"


@dataclass
class State:
    graphs: Dict[Tuple[str, str], Graph]
    stderr_log: Path
    #: Resource-tracker KeyErrors seen during traced passes.
    traced_tracker_errors: int = 0


def _generate(dataset: str, seed: int) -> Graph:
    """The registry's generator for ``dataset`` at 4x, with a shifted seed."""
    spec = DATASETS[dataset]
    num_vertices = spec.base_vertices * GRAPH_SCALE
    with span("bench.generate", dataset=dataset):
        if spec.family == "SN":
            return social_network(
                int(round(math.log2(num_vertices))),
                average_degree=spec.average_degree,
                name=dataset,
                seed=spec.seed + 1000 * seed,
            )
        return web_graph(
            num_vertices=num_vertices,
            average_degree=spec.average_degree,
            name=dataset,
            seed=spec.seed + 1000 * seed,
        )


def setup(seed: int, tmp: Path) -> State:
    graphs: Dict[Tuple[str, str], Graph] = {}
    for dataset, algorithm in ORDERINGS:
        if (dataset, "identity") not in graphs:
            graphs[(dataset, "identity")] = _generate(dataset, seed)
        if algorithm != "identity":
            base = graphs[(dataset, "identity")]
            graphs[(dataset, algorithm)] = get_algorithm(algorithm)(base).apply(base)
    return State(graphs=graphs, stderr_log=tmp / "shard-stderr.log")


@contextlib.contextmanager
def _stderr_to(path: Path) -> Iterator[None]:
    """Point file descriptor 2 at ``path`` — for this process and the
    shard workers and resource tracker it starts — then restore it."""
    saved = os.dup(2)
    with open(path, "ab") as log:
        os.dup2(log.fileno(), 2)
    try:
        yield
    finally:
        os.dup2(saved, 2)
        os.close(saved)


def _counters(result) -> Dict[str, object]:
    return {
        "accesses": int(result.num_accesses),
        "l3_misses": int(result.l3_misses),
        "tlb_misses": int(result.tlb_misses),
    }


def _region_counts(result) -> Tuple[List[int], List[int]]:
    if hasattr(result, "region_accesses"):
        return result.region_accesses.tolist(), result.region_hits.tolist()
    kinds = result.trace.kinds
    accesses = np.bincount(kinds, minlength=Region.COUNT)
    hits = np.bincount(
        kinds, weights=result.hits.astype(np.float64), minlength=Region.COUNT
    )
    return accesses.tolist(), hits.astype(np.int64).tolist()


def _timed(outcome: PassResult, probe: SpeedProbe, name: str, call):
    """Run one simulate call in a ``bench.*`` span and record its latency."""

    def in_span():
        with span(name):
            return call()

    value, elapsed_ms, factor = probe.timed(in_span)
    outcome.latencies_ms.append(elapsed_ms)
    outcome.factors.append(factor)
    return value


def run_pass(state: State, probe: SpeedProbe) -> PassResult:
    outcome = PassResult(wall_s=0.0, latencies_ms=[])
    probed_s = probe.spent_s
    started = time.perf_counter()
    for key in ORDERINGS:
        graph = state.graphs[key]
        results = {}
        for policy in POLICIES:
            config = SimulationConfig.scaled_for(graph, policy=policy)
            results[policy] = _timed(
                outcome, probe, "bench.sim.materialized", lambda: simulate_spmv(graph, config)
            )
        config = SimulationConfig.scaled_for(graph, policy="drrip")
        streamed = _timed(
            outcome,
            probe,
            "bench.sim.streamed",
            lambda: simulate_spmv_streamed(graph, config, num_shards=1),
        )
        with _stderr_to(state.stderr_log):
            sharded = _timed(
                outcome,
                probe,
                "bench.sim.shard",
                lambda: simulate_spmv_streamed(
                    graph, config, num_shards=2, shard_mode="process"
                ),
            )
        reference = (_counters(results["drrip"]), _region_counts(results["drrip"]))
        for path, result in (("streamed", streamed), ("2-shard", sharded)):
            if (_counters(result), _region_counts(result)) != reference:
                outcome.failures.append(f"{'/'.join(key)}: {path} DRRIP counters differ")
        del results, streamed, sharded
    outcome.wall_s = time.perf_counter() - started - (probe.spent_s - probed_s)
    tracker_errors = _drain_tracker(state.stderr_log)
    if obs.enabled():
        state.traced_tracker_errors += tracker_errors
    return outcome


def _drain_tracker(log: Path) -> int:
    """Stop the resource tracker, wait for it, and count its KeyErrors.

    Lines that are not part of a tracker traceback are passed on to the
    real standard error.
    """
    resource_tracker._resource_tracker._stop()
    if not log.exists():
        return 0
    text = log.read_text(errors="replace")
    log.unlink()
    errors = text.count(TRACKER_ERROR)
    other = [
        line
        for line in text.splitlines()
        if line
        and not line.startswith(("Traceback", "  ", TRACKER_ERROR))
    ]
    if other:
        os.write(2, ("\n".join(other) + "\n").encode())
    return errors


def layer_extras(state: State) -> Dict[str, float]:
    return {"sim.shard.tracker_errors": float(state.traced_tracker_errors)}


def teardown(state: State) -> None:
    state.graphs.clear()

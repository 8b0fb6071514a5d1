"""``paper-cold``: the fig1/fig3/table5 sweep into an empty store.

Each pass runs ``run_experiments(["fig1", "fig3", "table5"])`` at
``REPRO_SCALE=0.25`` against a fresh, empty artifact store: 4 minis x 7
RAs, each generated, reordered, permuted, simulated with ECS scans and
written to the store.  It then classifies locality types on the
identity and GOrder orderings of ``twtr-mini`` and ``sk-mini``.  An
operation is one (dataset, RA) cell — timed from its first
``Workloads.simulation`` call — or one locality-type classification.

The registry fixes every dataset seed, so ``--seed`` does not change
this workload.  Outputs are checked against ``expected/paper_cold.json``
(``run.py --write-expected`` regenerates it).
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import tempfile
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.bench.harness import run_experiments
from repro.bench.workloads import (
    EXTENDED_ALGORITHMS,
    SIM_DATASETS,
    STUDIED_ALGORITHMS,
    Workloads,
)
from repro import obs
from repro.core import LocalityAnalyzer
from repro.obs import span
from repro.store.store import ArtifactStore

from common import PassResult, SpeedProbe, tree_bytes
from layers import REORDERINGS

SCALE = "0.25"
EXPERIMENTS = ["fig1", "fig3", "table5"]
ALGORITHMS = STUDIED_ALGORITHMS + EXTENDED_ALGORITHMS
LOCALITY_CELLS = tuple(
    (dataset, algorithm)
    for dataset in ("twtr-mini", "sk-mini")
    for algorithm in ("identity", "gorder")
)
#: fig3 curve name -> the RA whose cell it belongs to.
FIG3_CURVES = {"initial": "identity", "rabbit": "rabbit", "community": "community"}
EXPECTED = Path(__file__).resolve().parent / "expected" / "paper_cold.json"


class _CellTimedWorkloads(Workloads):
    """A store-backed cache that times each cell's first simulation call
    between two speed-probe samples."""

    def __init__(self, store: ArtifactStore, probe: SpeedProbe) -> None:
        super().__init__(store=store)
        self.probe = probe
        self.cell_ms: Dict[Tuple[str, str], float] = {}
        self.cell_factors: List[float] = []

    def simulation(self, dataset: str, algorithm: str = "identity", **kwargs: Any) -> Any:
        compute = super().simulation
        if (dataset, algorithm) in self.cell_ms or kwargs:
            return compute(dataset, algorithm, **kwargs)
        result, elapsed_ms, factor = self.probe.timed(lambda: compute(dataset, algorithm))
        self.cell_ms[(dataset, algorithm)] = elapsed_ms
        self.cell_factors.append(factor)
        return result


@dataclass
class State:
    tmp: Path
    expected: Dict[str, Any]
    store_bytes: int = 0
    #: The last untraced pass's cache, for the reorder amortization figures.
    last: Optional[_CellTimedWorkloads] = None
    observed: Dict[str, Any] = field(default_factory=dict)


def setup(seed: int, tmp: Path) -> State:
    expected = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    return State(tmp=tmp, expected=expected)


def _observe(workloads: _CellTimedWorkloads, reports: Dict[str, Any], locality: Dict) -> Dict[str, Any]:
    """Every checked output of one pass, keyed like the expected file."""
    cells: Dict[str, Dict[str, Any]] = {}
    for dataset in SIM_DATASETS:
        for algorithm in ALGORITHMS:
            sim = workloads.simulation(dataset, algorithm)
            cell: Dict[str, Any] = {
                "l3_misses": int(sim.l3_misses),
                "tlb_misses": int(sim.tlb_misses),
                "ecs_average": float(sim.effective_cache_size()),
            }
            if algorithm != "identity":
                order = np.ascontiguousarray(
                    workloads.reordering(dataset, algorithm).relabeling
                )
                cell["relabeling_sha256"] = hashlib.sha256(order.tobytes()).hexdigest()
            cells[f"{dataset}/{algorithm}"] = cell
    for dataset, curves in reports["fig3"].data.items():
        for curve, algorithm in FIG3_CURVES.items():
            cells[f"{dataset}/{algorithm}"]["fig3_mean_aid"] = float(
                np.nanmean(curves[curve].mean_aid)
            )
    return {
        "scale": float(SCALE),
        "cells": cells,
        "locality_types": {
            f"{dataset}/{algorithm}": asdict(counts)
            for (dataset, algorithm), counts in locality.items()
        },
    }


def _same(observed: Any, expected: Any) -> bool:
    if isinstance(expected, float):
        return isinstance(observed, float) and math.isclose(
            observed, expected, rel_tol=1e-9, abs_tol=1e-12
        )
    return observed == expected


def _failures(observed: Dict[str, Any], expected: Dict[str, Any]) -> List[str]:
    """One message per cell or classification that differs from expected."""
    failures = []
    for group in ("cells", "locality_types"):
        for name, values in observed[group].items():
            want = expected.get(group, {}).get(name)
            if want is None:
                failures.append(f"{group} {name}: no expected values")
                continue
            wrong = sorted(
                key
                for key in set(values) | set(want)
                if not _same(values.get(key), want.get(key))
            )
            if wrong:
                failures.append(f"{group} {name}: {', '.join(wrong)} differ")
    return failures


def run_pass(state: State, probe: SpeedProbe) -> PassResult:
    if not obs.enabled():
        state.last = None  # hold one pass's results at a time
    store_root = Path(tempfile.mkdtemp(prefix="store-", dir=state.tmp))
    workloads = _CellTimedWorkloads(ArtifactStore(store_root), probe)
    locality = {}
    locality_ms: List[float] = []
    locality_factors: List[float] = []
    probed_s = probe.spent_s
    started = time.perf_counter()
    reports = run_experiments(EXPERIMENTS, workloads=workloads)
    for dataset, algorithm in LOCALITY_CELLS:
        graph = workloads.reordered_graph(dataset, algorithm)

        def classify() -> Any:
            with span("bench.core.locality_types", dataset=dataset, algorithm=algorithm):
                return LocalityAnalyzer(graph).locality_types()

        locality[(dataset, algorithm)], elapsed_ms, factor = probe.timed(classify)
        locality_ms.append(elapsed_ms)
        locality_factors.append(factor)
    wall_s = time.perf_counter() - started - (probe.spent_s - probed_s)

    state.store_bytes = tree_bytes(store_root)
    shutil.rmtree(store_root)
    if not obs.enabled():
        state.last = workloads
    state.observed = _observe(workloads, reports, locality)
    return PassResult(
        wall_s=wall_s,
        latencies_ms=list(workloads.cell_ms.values()) + locality_ms,
        failures=_failures(state.observed, state.expected),
        factors=workloads.cell_factors + locality_factors,
    )


def break_even_spmvs(workloads: Workloads) -> Dict[str, float]:
    """SpMVs each RA needs to pay back its reordering time, over the 4 minis.

    Reorder seconds (``preprocessing_seconds``) divided by the simulated
    seconds per SpMV it saves against the identity order
    (``traversal_time_ms``).  An RA that saves nothing never pays back:
    reported as -1, since the result line carries numbers only.
    """
    out = {}
    for algorithm in REORDERINGS:
        reorder_s = 0.0
        saved_s = 0.0
        for dataset in SIM_DATASETS:
            reorder_s += workloads.reordering(dataset, algorithm).preprocessing_seconds
            saved_s += (
                workloads.simulation(dataset, "identity").traversal_time_ms()
                - workloads.simulation(dataset, algorithm).traversal_time_ms()
            ) / 1e3
        out[f"reorder.{algorithm}.break_even_spmvs"] = (
            reorder_s / saved_s if saved_s > 0 else -1.0
        )
    return out


def layer_extras(state: State) -> Dict[str, float]:
    return {"store_mb": state.store_bytes / 1e6, **break_even_spmvs(state.last)}


def write_expected(state: State) -> Path:
    """Record one pass's outputs as the values later runs must match."""
    run_pass(state, SpeedProbe())
    EXPECTED.parent.mkdir(parents=True, exist_ok=True)
    EXPECTED.write_text(json.dumps(state.observed, indent=1, sort_keys=True) + "\n")
    return EXPECTED


def teardown(state: State) -> None:
    state.last = None

"""Throughput of the vectorized cache kernels vs the reference loop.

Measures accesses/second on the simulator-validation workloads (the
SpMV traces of twtr-mini and sk-mini, as in
``tests/test_paper_claims.py::test_simulator_validation``) for each
replacement policy, at the native scaled cache geometry and at 4x
scale — the geometry regime where the BRRIP/DRRIP skew guard admits the bimodal
policies to the kernel path (enough sets for the lockstep fixed point
to amortize; see ``_RRIP_MIN_DENSITY`` in ``repro.sim._kernels``).
Results go to ``BENCH_cache_kernel.json`` at the repo root — the perf
trajectory tracked across PRs.

The reference arm times ``SetAssociativeCache._simulate_reference``;
the other arm times ``simulate``, whose one dispatch rule picks the
path.  Each row records whether ``simulate`` actually dispatched to the
kernel path (observed via the ``cache.kernel_batches`` counter, not
predicted), so the JSON is an honest account of what the dispatch
heuristic pays on every (workload, policy) cell.

Run it as a script: ``PYTHONPATH=src python benchmarks/bench_cache_kernel.py``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro import obs
from repro.bench import workloads
from repro.core import format_table
from repro.generate import load_dataset
from repro.obs import metrics as obs_metrics
from repro.sim import AddressSpace, CacheConfig, SetAssociativeCache, spmv_trace

_REPO_ROOT = Path(__file__).resolve().parent.parent
_OUTPUT = _REPO_ROOT / "BENCH_cache_kernel.json"

#: (name, scale) cells; scale None = the shared validation workload.
#: The 4x workloads push the scaled geometry to 128 sets, where the
#: near-balanced SpMV traces clear the BRRIP/DRRIP skew guard.
_WORKLOADS = (
    ("twtr-mini", None),
    ("sk-mini", None),
    ("twtr-mini", 4.0),
    ("sk-mini", 4.0),
)
_POLICIES = ("lru", "srrip", "brrip", "drrip")


def _time_simulate(config, lines, reference, repeats):
    """Best-of-N timing; also observes whether the kernel path ran."""
    best = np.inf
    misses = None
    kernel_batches = 0
    for _ in range(repeats):
        cache = SetAssociativeCache(config)
        with obs.recording(fresh=True):
            t0 = time.perf_counter()
            run = cache._simulate_reference if reference else cache.simulate
            result = run(lines)
            best = min(best, time.perf_counter() - t0)
            kernel_batches += obs_metrics.registry.counter(
                "cache.kernel_batches"
            ).value
        misses = result.num_misses
    return best, misses, kernel_batches > 0


def run_bench(repeats: int = 3) -> dict:
    """Measure all (workload, policy) cells and return the JSON payload."""
    rows = []
    for name, scale in _WORKLOADS:
        if scale is None:
            graph = workloads.graph(name)
            label = name
        else:
            graph = load_dataset(name, scale=scale)
            label = f"{name}@{scale:g}x"
        space = AddressSpace(graph.num_vertices, graph.num_edges)
        lines = spmv_trace(graph, space).lines
        scaled = CacheConfig.scaled_for(graph.num_vertices)
        for policy in _POLICIES:
            config = CacheConfig(
                num_sets=scaled.num_sets, ways=scaled.ways, policy=policy
            )
            ref_s, ref_misses, _ = _time_simulate(
                config, lines, True, max(1, repeats - 1)
            )
            ker_s, ker_misses, dispatched = _time_simulate(
                config, lines, False, repeats
            )
            assert ref_misses == ker_misses, (label, policy)
            n = int(lines.shape[0])
            rows.append(
                {
                    "workload": label,
                    "policy": policy,
                    "num_accesses": n,
                    "num_sets": scaled.num_sets,
                    "ways": scaled.ways,
                    "misses": int(ref_misses),
                    "kernel_dispatched": bool(dispatched),
                    "reference_seconds": ref_s,
                    "kernel_seconds": ker_s,
                    "reference_acc_per_s": n / ref_s,
                    "kernel_acc_per_s": n / ker_s,
                    "speedup": ref_s / ker_s,
                }
            )
    dispatched_rows = [r for r in rows if r["kernel_dispatched"]]
    bimodal_rows = [
        r for r in dispatched_rows if r["policy"] in ("brrip", "drrip")
    ]
    payload = {
        "bench": "cache_kernel",
        "description": (
            "accesses/sec, reference per-access loop vs auto-dispatched "
            "vectorized kernel, validation-simulator workloads (native "
            "and 4x scale)"
        ),
        "results": rows,
        "summary": {
            "best_speedup": max(r["speedup"] for r in rows),
            "dispatched_cells": len(dispatched_rows),
            "dispatched_geomean_speedup": float(
                np.exp(
                    np.mean([np.log(r["speedup"]) for r in dispatched_rows])
                )
            ),
            "dispatched_min_speedup": min(
                r["speedup"] for r in dispatched_rows
            ),
            "bimodal_dispatched_cells": len(bimodal_rows),
            "bimodal_best_speedup": max(
                (r["speedup"] for r in bimodal_rows), default=0.0
            ),
            "note": (
                "brrip/drrip dispatch is gated on set-count/skew "
                "(_RRIP_MIN_DENSITY): the 32-set native workloads decline "
                "to the reference loop, the 128-set 4x workloads run all "
                "four policies through the kernel (see DESIGN.md section 7)"
            ),
        },
    }
    return payload


def _report(payload: dict) -> str:
    table_rows = [
        [
            r["workload"],
            r["policy"],
            "yes" if r["kernel_dispatched"] else "no",
            r["num_accesses"] / 1e3,
            r["reference_acc_per_s"] / 1e6,
            r["kernel_acc_per_s"] / 1e6,
            r["speedup"],
        ]
        for r in payload["results"]
    ]
    return format_table(
        [
            "workload",
            "policy",
            "kernel",
            "accesses (K)",
            "ref Macc/s",
            "auto Macc/s",
            "speedup",
        ],
        table_rows,
        title="Cache-simulation kernel throughput (validation workloads)",
        precision=2,
    )


def write_json(payload: dict, path: Path = _OUTPUT) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=False) + "\n")


def _assert_gates(payload: dict) -> None:
    """The CI contract for the auto-dispatch heuristic.

    1. No cell regresses meaningfully below the reference loop (the
       declined cells pay only the O(n) guard, so ~1.0x).
    2. Every cell the heuristic *does* dispatch wins by >= 1.1x — a
       dispatch that loses means the guard thresholds have drifted.
    3. At least one workload dispatches all four policies, and the
       bimodal (BRRIP/DRRIP) kernel path shows a real > 1.2x win there.
    """
    rows = payload["results"]
    for r in rows:
        assert r["speedup"] > 0.8, r
    for r in rows:
        if r["kernel_dispatched"]:
            assert r["speedup"] >= 1.1, r
    by_workload = {}
    for r in rows:
        by_workload.setdefault(r["workload"], []).append(r)
    assert any(
        all(r["kernel_dispatched"] for r in cell) and len(cell) == len(_POLICIES)
        for cell in by_workload.values()
    ), "no workload dispatches all four policies"
    assert payload["summary"]["bimodal_best_speedup"] > 1.2, payload["summary"]
    assert payload["summary"]["best_speedup"] > 2.0


if __name__ == "__main__":
    data = run_bench()
    write_json(data)
    print(_report(data))
    _assert_gates(data)
    print(f"wrote {_OUTPUT}")

"""Scale tier: streamed-pipeline memory and sharded-simulation speed.

Two measurements on one RM-family benchmark graph, each taken in a
*child interpreter* so ``ru_maxrss`` is an honest per-mode peak rather
than whatever this process touched earlier:

1. **Peak RSS** — both children run :func:`repro.sim.simulate_spmv`,
   which streams bounded chunks; the ceiling gate keeps the peak
   O(graph + chunk), never O(trace).
2. **Wall-clock, 4-way sharded vs single-process** — the sharded child
   uses ``shard_mode="process"``.  The >= 1.3x gate applies only with
   >= 4 cores *and* >= ``_SPEEDUP_GATE_MIN_EDGES`` edges (``applicable``
   records the decision) — process sharding on one core is pure
   overhead by design, and below acceptance size the serial
   trace-generation share caps the speedup by Amdahl regardless of
   cores.

Every child also reports its headline counters, and the parent asserts
all modes agree bit-exactly — the speed/memory numbers are only
meaningful because the answers are identical.

The payload additionally carries the ``scale_curve`` experiment's
ladder (miss rate / mean AID / effective diameter vs. size), so
``BENCH_scale.json`` tracks the locality-vs-scale curve across PRs.

Run standalone (``PYTHONPATH=src python benchmarks/bench_scale_curve.py
[--vertices N]``) or under pytest with the rest of the benchmark suite;
CI's ``scale-smoke`` job runs the ~10⁶-edge default.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.core import format_table
from repro.bench.experiments.scale_curve import (
    build_ladder_graph,
    ladder_sizes,
    measure_rung,
)

_REPO_ROOT = Path(__file__).resolve().parent.parent
_OUTPUT = _REPO_ROOT / "BENCH_scale.json"

#: Benchmark graph: 2^17 vertices x ~8 average degree = ~10^6 edges —
#: the CI smoke size.  ``--vertices`` (or run_bench(num_vertices=...))
#: lifts it to the 10^7–10^8 acceptance band.
_DEFAULT_VERTICES = 1 << 17

#: The shard speedup is gated only above this edge count: below it the
#: serial trace generation dominates and caps any speedup.
_SPEEDUP_GATE_MIN_EDGES = 4_000_000

#: Absolute streamed-peak ceiling: fixed interpreter+graph allowance
#: plus a per-edge budget.  The graph (CSR both directions + vertex
#: data) is O(edges); the point of the ceiling is that the *trace* term
#: stays O(chunk) instead of O(edges x 3 accesses x ~18 bytes).
_RSS_CEILING_BASE = 400 << 20
_RSS_CEILING_PER_EDGE = 120

_MODES = ("serial", "sharded4")


def _child_main(mode: str, graph_path: str) -> None:
    """Load the shared graph (memmap), run one mode, print a JSON report.

    The graph is built once by the parent and rehydrated here with
    ``mmap_mode="r"`` so each child's ``ru_maxrss`` measures the
    *pipeline*, not the edge-sort transients of graph construction —
    and so the memmap CSR path gets exercised at benchmark scale.
    """
    import resource

    from repro.graph import load_graph_npz
    from repro.sim import SimulationConfig, simulate_spmv

    graph = load_graph_npz(Path(graph_path), mmap_mode="r")
    config = SimulationConfig.scaled_for(graph)
    t0 = time.perf_counter()
    if mode == "serial":
        result = simulate_spmv(graph, config)
    elif mode == "sharded4":
        result = simulate_spmv(graph, config, num_shards=4, shard_mode="process")
    else:
        raise ValueError(f"unknown child mode {mode!r}")
    seconds = time.perf_counter() - t0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform != "darwin":
        peak *= 1024
    print(
        json.dumps(
            {
                "mode": mode,
                "num_vertices": graph.num_vertices,
                "num_edges": graph.num_edges,
                "num_accesses": int(result.num_accesses),
                "l3_misses": int(result.l3_misses),
                "tlb_misses": int(result.tlb_misses),
                "seconds": seconds,
                "peak_rss_bytes": int(peak),
            }
        )
    )


def _run_child(mode: str, graph_path: Path) -> dict:
    env = dict(os.environ)
    src = str(_REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child", mode,
         str(graph_path)],
        capture_output=True,
        text=True,
        env=env,
        check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"child mode {mode!r} failed:\n{proc.stdout}\n{proc.stderr}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_bench(num_vertices: int = _DEFAULT_VERTICES) -> dict:
    """Run the per-mode children + the scaling-curve ladder; return JSON."""
    from repro.graph import save_graph_npz

    with tempfile.TemporaryDirectory(prefix="bench-scale-") as tmp:
        graph_path = Path(tmp) / "bench-graph.npz"
        save_graph_npz(build_ladder_graph(num_vertices), graph_path)
        modes = {mode: _run_child(mode, graph_path) for mode in _MODES}

    num_edges = modes["serial"]["num_edges"]
    rss_ceiling = _RSS_CEILING_BASE + _RSS_CEILING_PER_EDGE * num_edges
    speedup = modes["serial"]["seconds"] / modes["sharded4"]["seconds"]
    cores = os.cpu_count() or 1
    # Below ~4M edges the coordinator's serial share (trace gen +
    # interleave, ~17% of the streamed wall at 10^6) caps the best
    # 4-way speedup under the gate by Amdahl alone; the gate is only
    # meaningful where replay dominates.  A waived gate must say so out
    # loud: each inapplicable gate records an explicit ``waived`` reason
    # so BENCH_scale.json (and the CI step summary) never silently
    # passes on a box that could not exercise the gate.
    speedup_applicable = cores >= 4 and num_edges >= _SPEEDUP_GATE_MIN_EDGES
    speedup_waived = None
    if cores < 4:
        speedup_waived = f"{cores} core(s) < 4"
    elif num_edges < _SPEEDUP_GATE_MIN_EDGES:
        speedup_waived = f"{num_edges} edges < {_SPEEDUP_GATE_MIN_EDGES}"

    # Same pinned-geometry ladder as the scale_curve experiment: the
    # cache is sized once for the smallest rung so the curve walks the
    # working set across a fixed cache boundary.
    from repro.sim import SimulationConfig

    curve = []
    curve_config = None
    for n in ladder_sizes():
        graph = build_ladder_graph(n)
        if curve_config is None:
            curve_config = SimulationConfig.scaled_for(graph)
        curve.append(measure_rung(graph, config=curve_config))
        del graph

    payload = {
        "bench": "scale_curve",
        "description": (
            "scale-tier streamed/sharded simulation: per-mode child peak "
            "RSS and wall-clock on one RM-family graph, plus the "
            "locality-vs-scale ladder (miss rate / AID / effective "
            "diameter vs. size)"
        ),
        "num_vertices": num_vertices,
        "num_edges": num_edges,
        "cpu_count": cores,
        "modes": modes,
        "gates": {
            "bit_exact": {
                "holds": all(
                    modes[m]["num_accesses"] == modes["serial"]["num_accesses"]
                    and modes[m]["l3_misses"] == modes["serial"]["l3_misses"]
                    and modes[m]["tlb_misses"] == modes["serial"]["tlb_misses"]
                    for m in _MODES
                ),
                "applicable": True,
            },
            "rss_ceiling": {
                "value": modes["sharded4"]["peak_rss_bytes"],
                "threshold": rss_ceiling,
                "applicable": True,
                "holds": modes["sharded4"]["peak_rss_bytes"] < rss_ceiling
                and modes["serial"]["peak_rss_bytes"] < rss_ceiling,
                "note": "coordinator peak stays O(graph + chunk), never O(trace)",
            },
            "shard_speedup": {
                "value": speedup,
                "threshold": 1.3,
                "applicable": speedup_applicable,
                "waived": speedup_waived,
                "holds": speedup >= 1.3,
                "note": (
                    "single-process seconds / sharded4 process-mode "
                    "seconds; gated only with >= 4 cores on a big-enough "
                    "graph (replay must dominate the serial trace gen)"
                ),
            },
        },
        "curve": curve,
    }
    return payload


def _report(payload: dict) -> str:
    mode_rows = [
        [
            r["mode"],
            r["num_accesses"] / 1e6,
            r["seconds"],
            r["peak_rss_bytes"] / (1 << 20),
            r["l3_misses"] / 1e6,
        ]
        for r in payload["modes"].values()
    ]
    curve_rows = [
        [
            r["num_edges"],
            r["effective_diameter"],
            r["mean_aid"],
            r["random_miss_rate"],
        ]
        for r in payload["curve"]
    ]
    sections = [
        format_table(
            ["mode", "Macc", "seconds", "peak MiB", "Mmiss"],
            mode_rows,
            title=(
                f"Scale-tier pipeline modes ({payload['num_edges']} edges, "
                f"{payload['cpu_count']} core(s))"
            ),
            precision=2,
        ),
        format_table(
            ["edges", "eff diam", "mean AID", "rand miss"],
            curve_rows,
            title="Locality-vs-scale ladder",
            precision=2,
        ),
    ]
    gate_lines = ["Gates:"]
    for name, gate in payload["gates"].items():
        status = "ok" if gate["holds"] else "MISS"
        if not gate["applicable"]:
            status = "WAIVED"
        value = gate.get("value")
        shown = f" value={value:.3g}" if isinstance(value, (int, float)) else ""
        if gate.get("waived"):
            shown += f" (waived: {gate['waived']})"
        gate_lines.append(f"  [{status}] {name}{shown}")
    sections.append("\n".join(gate_lines))
    return "\n\n".join(sections)


def gate_summary_lines(payload: dict) -> "list[str]":
    """One markdown line per gate, for the CI step summary.

    Waived gates surface their reason (``[waived: 2 core(s) < 4]``)
    instead of reading like passes.
    """
    lines = []
    for name, gate in payload["gates"].items():
        if gate["applicable"]:
            status = "pass" if gate["holds"] else "**FAIL**"
        else:
            status = f"waived: {gate.get('waived') or 'not applicable'}"
        value = gate.get("value")
        shown = f" `{value:.3g}`" if isinstance(value, (int, float)) else ""
        lines.append(f"- `{name}`{shown} — {status}")
    return lines


def write_json(payload: dict, path: Path = _OUTPUT) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=False) + "\n")


def _assert_gates(payload: dict) -> None:
    """The CI contract for the scale tier.

    Bit-exactness and the RSS ceiling always hold; the shard speedup
    gate is enforced only where it is meaningful (big-enough graph,
    enough cores) — its ``applicable`` flag records the decision so the
    JSON shows *why* it was waived.
    """
    gates = payload["gates"]
    assert gates["bit_exact"]["holds"], payload["modes"]
    assert gates["rss_ceiling"]["holds"], gates["rss_ceiling"]
    if gates["shard_speedup"]["applicable"]:
        assert gates["shard_speedup"]["holds"], gates["shard_speedup"]


def test_scale_tier_gates(benchmark):
    payload = benchmark.pedantic(run_bench, rounds=1, iterations=1)
    write_json(payload)
    print()
    print(_report(payload))
    _assert_gates(payload)


def main(argv: "list[str]") -> None:
    if len(argv) >= 4 and argv[1] == "--child":
        _child_main(argv[2], argv[3])
        return
    num_vertices = _DEFAULT_VERTICES
    if len(argv) >= 3 and argv[1] == "--vertices":
        num_vertices = int(argv[2])
    data = run_bench(num_vertices)
    write_json(data)
    print(_report(data))
    _assert_gates(data)
    print(f"wrote {_OUTPUT}")


if __name__ == "__main__":
    main(sys.argv)

"""Table IV — SpMV execution results per RA.

The paper's headline table: traversal time, per-thread idle percentage,
L3 misses and DTLB misses for the baseline and the three RAs on every
dataset.  The headline shape claims it encodes:

* GOrder reduces L3 misses and time on social networks;
* Rabbit-Order improves web graphs;
* SlashBurn usually destroys locality on web graphs.
"""

from __future__ import annotations

from repro.core.report import format_table

from repro.bench.harness import ExperimentReport
from repro.bench.workloads import (
    SIM_DATASETS,
    SOCIAL_DATASETS,
    STUDIED_ALGORITHMS,
    WEB_DATASETS,
    Workloads,
)


def run(workloads: Workloads) -> ExperimentReport:
    rows = []
    l3: dict[tuple[str, str], int] = {}
    time_ms: dict[tuple[str, str], float] = {}
    workloads._simulate_together(SIM_DATASETS, STUDIED_ALGORITHMS)
    for dataset in SIM_DATASETS:
        row: list = [dataset, workloads.family(dataset)]
        for algorithm in STUDIED_ALGORITHMS:
            sim = workloads.simulation(dataset, algorithm)
            l3[(dataset, algorithm)] = sim.l3_misses
            time_ms[(dataset, algorithm)] = sim.traversal_time_ms()
            row.extend(
                [
                    time_ms[(dataset, algorithm)],
                    sim.schedule().idle_percent,
                    sim.l3_misses / 1e3,
                    sim.tlb_misses,
                ]
            )
        rows.append(row)

    headers = ["dataset", "type"]
    for label in ("Bl", "SB", "GO", "RO"):
        headers.extend(
            [f"{label} ms", f"{label} idle%", f"{label} L3(K)", f"{label} TLB"]
        )
    text = format_table(headers, rows, precision=2)

    shape_checks = {
        "GOrder reduces L3 misses of every social network": all(
            l3[(d, "gorder")] < l3[(d, "identity")] for d in SOCIAL_DATASETS
        ),
        "GOrder is the fastest RA on social networks (avg time)": (
            _avg(time_ms, SOCIAL_DATASETS, "gorder")
            <= min(
                _avg(time_ms, SOCIAL_DATASETS, a)
                for a in ("identity", "slashburn", "rabbit")
            )
        ),
        "Rabbit-Order reduces L3 misses of every web graph": all(
            l3[(d, "rabbit")] < l3[(d, "identity")] for d in WEB_DATASETS
        ),
        "SlashBurn increases L3 misses of every web graph": all(
            l3[(d, "slashburn")] > l3[(d, "identity")] for d in WEB_DATASETS
        ),
    }
    return ExperimentReport(
        experiment_id="table4",
        title="SpMV execution results (Table IV analogue, simulated)",
        text=text,
        data={"rows": rows, "l3": l3, "time_ms": time_ms},
        shape_checks=shape_checks,
    )


def _avg(values: dict[tuple[str, str], float], datasets, algorithm: str) -> float:
    return sum(values[(d, algorithm)] for d in datasets) / len(datasets)

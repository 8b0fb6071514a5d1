"""Table VI — CSC vs CSR read traversals.

The paper isolates the *format* effect of push vs pull by running the
same read operation over both: each vertex sums the data of its
in-neighbours (CSC traversal) or its out-neighbours (CSR traversal).
A CSR read traversal of ``G`` is exactly a pull traversal of the
reversed graph, which is how it is simulated here.

Shape claim: web graphs have a faster CSR traversal (fewer misses —
their in-hubs become the reused data), social networks a faster CSC
traversal (their out-hubs are the stronger ones).
"""

from __future__ import annotations

from repro.core.report import format_table

from repro.bench.harness import ExperimentReport
from repro.bench.workloads import (
    SIM_DATASETS,
    SOCIAL_DATASETS,
    WEB_DATASETS,
    Workloads,
)


def run(workloads: Workloads) -> ExperimentReport:
    rows = []
    misses: dict[tuple[str, str], int] = {}
    for dataset in SIM_DATASETS:
        csc = workloads.simulation(dataset, "identity")
        # A CSR read traversal of G is a pull traversal of reversed(G).
        csr = workloads.simulation(dataset, "identity", reverse=True)
        misses[(dataset, "csc")] = csc.l3_misses
        misses[(dataset, "csr")] = csr.l3_misses
        rows.append(
            [
                dataset,
                workloads.family(dataset),
                csc.l3_misses / 1e3,
                csr.l3_misses / 1e3,
                csc.traversal_time_ms(),
                csr.traversal_time_ms(),
            ]
        )

    text = format_table(
        ["dataset", "type", "CSC L3(K)", "CSR L3(K)", "CSC ms", "CSR ms"],
        rows,
        precision=2,
    )
    shape_checks = {
        "web graphs: CSR read traversal has fewer L3 misses": all(
            misses[(d, "csr")] < misses[(d, "csc")] for d in WEB_DATASETS
        ),
        "social networks: CSC read traversal has fewer L3 misses": all(
            misses[(d, "csc")] < misses[(d, "csr")] for d in SOCIAL_DATASETS
        ),
    }
    return ExperimentReport(
        experiment_id="table6",
        title="CSC vs CSR read traversals (Table VI analogue)",
        text=text,
        data={"rows": rows, "misses": misses},
        shape_checks=shape_checks,
    )

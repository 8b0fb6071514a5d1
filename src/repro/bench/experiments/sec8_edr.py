"""Section VIII-B2 — EDR-restricted Rabbit-Order.

The paper derives an *efficacy degree range* from the Figure 1 curves
and relabels only the vertices inside it, reporting reduced
preprocessing time "without affecting the traversal time" (Frndstr
139 s -> 103 s, TwtrMpi 66 s -> 12 s).

The two preprocessing times are measured here, back to back on the same
graph, not read from the stored reorderings: a stored time was taken
whenever its artifact was computed, under whatever else loaded the host
then, and two such times can overlap even where EDR's saving is real.
"""

from __future__ import annotations

from repro.core.binning import log_bins
from repro.core.missdist import miss_rate_degree_distribution
from repro.core.report import format_table
from repro.errors import ReorderingError
from repro.reorder.edr import EDRRestricted, efficacy_degree_range
from repro.reorder.rabbit import RabbitOrder

from repro.bench.harness import ExperimentReport
from repro.bench.workloads import (
    SOCIAL_DATASETS,
    WEB_DATASETS,
    Workloads,
    fastest_preprocessing_seconds,
)

_DATASETS = (SOCIAL_DATASETS[0], WEB_DATASETS[0])
_TRAVERSAL_TOLERANCE = 1.20  # "without affecting the traversal time"


def run(workloads: Workloads) -> ExperimentReport:
    rows = []
    metrics: dict[str, dict[str, float]] = {}
    for dataset in _DATASETS:
        full_sim = workloads.simulation(dataset, "rabbit")

        lo, hi = _efficacy_range(workloads, dataset)
        edr_factory = lambda lo=lo, hi=hi: EDRRestricted(RabbitOrder(), lo, hi)  # noqa: E731
        restricted = workloads.reordering(
            dataset, "edr+rabbit", factory=edr_factory, lo=lo, hi=hi
        )
        restricted_sim = workloads.simulation(
            dataset,
            "edr+rabbit",
            factory=edr_factory,
            params={"lo": lo, "hi": hi},
        )

        full_prep, edr_prep = fastest_preprocessing_seconds(
            workloads.graph(dataset), (RabbitOrder, edr_factory)
        )
        metrics[dataset] = {
            "full_prep": full_prep,
            "edr_prep": edr_prep,
            "full_time": full_sim.traversal_time_ms(),
            "edr_time": restricted_sim.traversal_time_ms(),
            "in_range": restricted.details["num_in_range"],
            "skipped": restricted.details["num_skipped"],
        }
        rows.append(
            [
                dataset,
                f"[{lo}, {hi}]",
                metrics[dataset]["in_range"],
                metrics[dataset]["skipped"],
                metrics[dataset]["full_prep"],
                metrics[dataset]["edr_prep"],
                metrics[dataset]["full_time"],
                metrics[dataset]["edr_time"],
            ]
        )

    text = format_table(
        ["dataset", "EDR", "in range", "skipped",
         "RO prep(s)", "RO+EDR prep(s)", "RO ms", "RO+EDR ms"],
        rows,
        precision=3,
    )
    shape_checks = {
        "EDR restriction reduces preprocessing time": all(
            m["edr_prep"] < m["full_prep"] for m in metrics.values()
        ),
        "EDR restriction leaves traversal time unaffected (within 20%)": all(
            m["edr_time"] <= m["full_time"] * _TRAVERSAL_TOLERANCE
            for m in metrics.values()
        ),
    }
    return ExperimentReport(
        experiment_id="sec8_edr",
        title="EDR-restricted Rabbit-Order (Section VIII-B2 analogue)",
        text=text,
        data={"rows": rows, "metrics": metrics},
        shape_checks=shape_checks,
    )


def _efficacy_range(workloads: Workloads, dataset: str) -> tuple[int, int]:
    """EDR from the Figure 1 curves, with a degree-band fallback.

    Only bins Rabbit-Order improves by more than two percentage points
    count (the paper validates its simulator to a 1.4 % relative error,
    so smaller deltas are noise).  When no meaningful bin exists, or the
    range excludes almost nothing, fall back to the LDV band RO is built
    for — the paper applies its EDR cut to exactly that band.
    """
    graph = workloads.graph(dataset)
    fallback = (1, max(2, int(4 * graph.average_degree)))
    bins = log_bins(max(1, int(graph.in_degrees().max(initial=1))))
    initial = miss_rate_degree_distribution(
        workloads.simulation(dataset, "identity"), bins=bins
    )
    reordered = miss_rate_degree_distribution(
        workloads.simulation(dataset, "rabbit"), bins=bins
    )
    try:
        lo, hi = efficacy_degree_range(
            initial, reordered, min_improvement_percent=2.0
        )
    except ReorderingError:
        return fallback
    degrees = graph.total_degrees()
    covered = ((degrees >= lo) & (degrees <= hi)).sum() / graph.num_vertices
    if covered > 0.95:
        return fallback
    return lo, hi

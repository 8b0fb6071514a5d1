"""Figure 3 — AID degree distribution, initial vs community-aware RAs.

Shape claims from Section VI-C: Rabbit-Order reduces the AID of
low-degree vertices (the DFS phase packs community members onto nearby
IDs), but as degree grows DFS cannot keep all neighbours consecutive,
so the AID of the Rabbit-Order curve rises with degree.  The
per-community RA (ROADMAP item 3) makes the same structural move —
contiguous community blocks — through explicit label propagation, so
it inherits the LDV claim.
"""

from __future__ import annotations

import numpy as np

from repro.core.binning import log_bins
from repro.core.report import format_series

from repro.bench.harness import ExperimentReport
from repro.bench.workloads import SOCIAL_DATASETS, WEB_DATASETS, Workloads


def run(workloads: Workloads) -> ExperimentReport:
    sections = []
    shape_checks = {}
    data = {}
    for dataset in (SOCIAL_DATASETS[0], WEB_DATASETS[1]):
        original = workloads.aid(dataset)
        bins = log_bins(max(1, int(original.degrees.max(initial=1))))
        initial = original.distribution(bins)
        rabbit = workloads.aid(dataset, "rabbit").distribution(bins)
        community = workloads.aid(dataset, "community").distribution(bins)
        data[dataset] = {
            "initial": initial,
            "rabbit": rabbit,
            "community": community,
        }
        sections.append(
            format_series(
                bins.centers().round(1),
                {
                    "Initial": initial.mean_aid,
                    "RabbitOrder": rabbit.mean_aid,
                    "CommunityOrder": community.mean_aid,
                },
                x_label="degree",
                title=f"{dataset}: mean in-neighbour AID per degree bin",
                precision=1,
            )
        )

        avg = int(original.degrees.sum()) / original.degrees.size  # |E| / |V|
        ldv = bins.lower[:-1] <= avg
        populated = (initial.vertex_counts > 0) & (rabbit.vertex_counts > 0)
        ldv_mask = ldv & populated
        shape_checks[f"{dataset}: Rabbit-Order reduces the AID of LDV"] = bool(
            np.nanmean(rabbit.mean_aid[ldv_mask])
            < np.nanmean(initial.mean_aid[ldv_mask])
        )
        community_mask = ldv & (initial.vertex_counts > 0) & (
            community.vertex_counts > 0
        )
        shape_checks[
            f"{dataset}: per-community order reduces the AID of LDV"
        ] = bool(
            np.nanmean(community.mean_aid[community_mask])
            < np.nanmean(initial.mean_aid[community_mask])
        )
        # "AID of Rabbit-Order is increased for HDV": the RO curve rises
        # from the lowest degrees towards the average-degree bin.  (At
        # the extreme hubs the metric is pigeonhole-bounded — a vertex
        # with ~|V| neighbours cannot have large consecutive gaps — so
        # the comparison stops at the average-degree bin.)
        pop_idx = np.flatnonzero(populated)
        avg_bin = pop_idx[bins.lower[pop_idx] <= avg][-1]
        first_bin = pop_idx[0]
        shape_checks[f"{dataset}: Rabbit-Order AID grows with degree"] = bool(
            rabbit.mean_aid[avg_bin] > rabbit.mean_aid[first_bin]
        )
    return ExperimentReport(
        experiment_id="fig3",
        title="AID degree distribution (Figure 3 analogue)",
        text="\n\n".join(sections),
        data=data,
        shape_checks=shape_checks,
    )

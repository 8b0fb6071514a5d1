"""Table II — preprocessing time and memory footprint of the RAs.

The paper measures each RA's reordering time (seconds) and peak memory
(GB).  At this scale the absolute numbers shrink by orders of
magnitude; the report keeps the same rows (dataset x {SB, GO, RO}) in
seconds and MB.

Each (dataset, RA) runs exactly once, in a fresh ``spawn`` child, one
child at a time.  The child returns the run's result (time and
relabeling) plus its peak-RSS growth: the kernel's ``VmHWM`` mark after
the RA minus the same reading before it.  Both other process designs
misread: a forked child reuses the parent's free heap and undercounts,
and a spawned child's ``ru_maxrss`` inherits the parent's peak.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor

from repro.core.report import format_table
from repro.errors import ExperimentError
from repro.graph.graph import Graph
from repro.graph.permute import is_permutation
from repro.reorder import ReorderResult, get_algorithm

from repro.bench.harness import ExperimentReport
from repro.bench.workloads import SIM_DATASETS, Workloads

_ALGORITHMS = ("slashburn", "gorder", "rabbit")
_STATUS = "/proc/self/status"


def _high_water_mark() -> int:
    """This process's peak resident set size in bytes (Linux ``VmHWM``)."""
    try:
        with open(_STATUS) as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except OSError as exc:
        raise ExperimentError(f"cannot read peak RSS: {exc}") from exc
    raise ExperimentError(f"{_STATUS} has no VmHWM line")


def _reorder_measured(graph: Graph, algorithm: str) -> tuple[ReorderResult, int]:
    """One RA run plus the peak-RSS growth (bytes) it caused."""
    before = _high_water_mark()
    result = get_algorithm(algorithm)(graph)
    return result, _high_water_mark() - before


def reorder_in_child(
    graph: Graph, dataset: str, algorithm: str
) -> tuple[ReorderResult, int]:
    """Run ``algorithm`` on ``graph`` once in a fresh spawned process.

    Returns the child's result and peak-RSS growth in bytes.  A child
    that raises or dies surfaces as an :class:`ExperimentError` naming
    the dataset and the RA.
    """
    context = multiprocessing.get_context("spawn")
    try:
        with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
            return pool.submit(_reorder_measured, graph, algorithm).result()
    except Exception as exc:
        raise ExperimentError(
            f"table2: {algorithm} on {dataset} failed in its child process: {exc!r}"
        ) from exc


def run(workloads: Workloads) -> ExperimentReport:
    rows = []
    valid = True
    for dataset in SIM_DATASETS:
        graph = workloads.graph(dataset)
        seconds: list = []
        megabytes: list = []
        for algorithm in _ALGORITHMS:
            result, peak_bytes = reorder_in_child(graph, dataset, algorithm)
            valid &= is_permutation(result.relabeling, graph.num_vertices)
            seconds.append(result.preprocessing_seconds)
            megabytes.append(peak_bytes / 1e6)
        rows.append([dataset, *seconds, *megabytes])

    text = format_table(
        ["dataset", "SB time(s)", "GO time(s)", "RO time(s)",
         "SB mem(MB)", "GO mem(MB)", "RO mem(MB)"],
        rows,
        precision=3,
    )
    shape_checks = {
        "every RA produced a valid permutation on every dataset": valid,
        "every preprocessing run took measurable time":
            all(r[1] > 0 and r[2] > 0 and r[3] > 0 for r in rows),
        "Rabbit-Order has the largest peak memory on every dataset":
            all(r[6] > max(r[4], r[5]) for r in rows),
    }
    return ExperimentReport(
        experiment_id="table2",
        title="RA preprocessing overheads (Table II analogue)",
        text=text,
        data={"rows": rows},
        shape_checks=shape_checks,
    )

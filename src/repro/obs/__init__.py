"""Zero-dependency observability: tracing spans, metrics, exporters.

Quickstart::

    from repro import obs

    with obs.recording():                       # or REPRO_TRACE=1
        with obs.span("reorder.slashburn", vertices=n):
            ...
        obs.metrics.registry.counter("sim.accesses").inc(batch)
        obs.save_run("run.json")

    # then: python -m repro.obs summarize run.json

Tracing defaults to *off*; the disabled path allocates nothing (see
:func:`debug_counters`).  DESIGN.md §10 documents the span/metric
naming scheme and the exporter formats.
"""

from __future__ import annotations

from repro.obs import metrics
from repro.obs.core import (
    EPOCH_ANCHOR,
    TRACE_ENV,
    SpanRecord,
    completed_spans,
    debug_counters,
    disable,
    enable,
    enabled,
    peak_rss_bytes,
    recording,
    refresh_from_env,
    reset,
    span,
)
from repro.obs.export import (
    chrome_trace_events,
    export_run,
    load_run,
    save_chrome_trace,
    save_run,
    summarize_run,
)

__all__ = [
    "TRACE_ENV",
    "EPOCH_ANCHOR",
    "SpanRecord",
    "span",
    "enabled",
    "enable",
    "disable",
    "recording",
    "refresh_from_env",
    "reset",
    "reset_all",
    "completed_spans",
    "debug_counters",
    "metrics",
    "peak_rss_bytes",
    "export_run",
    "save_run",
    "load_run",
    "chrome_trace_events",
    "save_chrome_trace",
    "summarize_run",
]


def reset_all() -> None:
    """Clear spans, debug counters, and every registered metric."""
    reset()
    metrics.registry.reset()

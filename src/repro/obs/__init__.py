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
    SpanRecord,
    completed_spans,
    debug_counters,
    disable,
    enable,
    enabled,
    peak_rss_bytes,
    recording,
    reset,
    span,
)
from repro.obs.export import load_run, save_chrome_trace, save_run

__all__ = [
    "SpanRecord",
    "span",
    "enabled",
    "enable",
    "disable",
    "recording",
    "reset_all",
    "completed_spans",
    "debug_counters",
    "metrics",
    "peak_rss_bytes",
    "save_run",
    "load_run",
    "save_chrome_trace",
]


def reset_all() -> None:
    """Clear spans, debug counters, and every registered metric."""
    reset()
    metrics.registry.reset()

"""Telemetry: tracing spans, a metrics registry, and live sweep progress.

A dependency-free observability layer the whole sweep/engine stack records
into — the read-side foundation for the long-running sweep service and the
cross-sweep analytics warehouse (ROADMAP items 1, 4, 5):

* :mod:`repro.telemetry.tracing` — hierarchical spans
  (``sweep > sweep.execute > trial > engine.*``) via contextvars; opt-in
  (no-op until :func:`start_trace`), multiprocessing-safe (workers buffer
  with :func:`worker_trace` and the parent merges via
  :meth:`Tracer.adopt`), exported and validated as JSONL;
* :mod:`repro.telemetry.metrics` — an always-on process-local registry of
  counters / gauges / histograms with typed snapshots, deltas and worker
  merge, folded into :class:`~repro.experiments.runner.SweepStats`;
* :mod:`repro.telemetry.progress` — throttled heartbeat events for
  :func:`~repro.experiments.runner.run_sweep`'s ``progress`` callback and
  the CLI ``--progress`` mode;
* :mod:`repro.telemetry.summary` — the span-tree / per-stage / slowest-trial
  report behind ``repro trace``.

Quick start::

    from repro.telemetry import start_trace, write_trace
    from repro.experiments import get_scenario, run_sweep

    with start_trace() as tracer:
        result = run_sweep(get_scenario("platform-energy").spec)
    write_trace("trace.jsonl", tracer.records)   # inspect: repro trace trace.jsonl
"""

from repro._lazy import lazy_exports

__all__ = [
    "SpanRecord",
    "Tracer",
    "span",
    "start_trace",
    "worker_trace",
    "current_tracer",
    "tracing_active",
    "write_trace",
    "read_trace",
    "validate_trace",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "registry",
    "counter",
    "gauge",
    "histogram",
    "snapshot_delta",
    "flatten_snapshot",
    "ProgressEvent",
    "ProgressReporter",
    "render_progress",
    "progress_printer",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "metrics": (
        "Counter", "Gauge", "Histogram", "MetricsRegistry", "counter", "flatten_snapshot", "gauge",
        "histogram", "registry", "snapshot_delta",
    ),
    "progress": ("ProgressEvent", "ProgressReporter", "progress_printer", "render_progress"),
    "tracing": (
        "SpanRecord", "Tracer", "current_tracer", "read_trace", "span", "start_trace",
        "tracing_active", "validate_trace", "worker_trace", "write_trace",
    ),
})

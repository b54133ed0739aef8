"""Cross-sweep result warehouse: a queryable SQLite index over every run.

The sweep stack *writes* crash-safe per-run silos — content-addressed cache
entries, per-sweep ``results.jsonl``/``manifest.json`` directories, per-job
service artifacts.  This package is the *read side* that turns that disk full
of hashes into a dataset:

* :mod:`repro.warehouse.schema` — the versioned SQLite table layout
  (runs / trials / params / metrics) and its
  :class:`~repro.warehouse.schema.SchemaVersionError` contract;
* :mod:`repro.warehouse.ingest` — incremental, idempotent scanning of cache
  dirs, service job dirs and result-store outputs (content-hash keyed,
  quarantine-aware, one transaction per run);
* :mod:`repro.warehouse.query` — runs/trials lookups with parameter-range
  filters;
* :mod:`repro.warehouse.compare` — run-vs-run metric diffs with regression
  highlighting;
* :mod:`repro.warehouse.db` — the :class:`Warehouse` facade the CLI
  (``repro ingest`` / ``repro query`` / ``repro compare``) and the sweep
  service (auto-ingest + ``GET /api/v1/runs``) are built on.
"""

from repro._lazy import lazy_exports

__all__ = [
    "Warehouse",
    "DEFAULT_WAREHOUSE_PATH",
    "IngestReport",
    "discover",
    "ingest_path",
    "ParamFilter",
    "RunInfo",
    "TrialRow",
    "parse_filter",
    "ComparisonReport",
    "MetricDiff",
    "compare_runs",
    "render_comparison",
    "SCHEMA_VERSION",
    "SchemaVersionError",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "compare": ("ComparisonReport", "MetricDiff", "compare_runs", "render_comparison"),
    "db": ("DEFAULT_WAREHOUSE_PATH", "Warehouse"),
    "ingest": ("IngestReport", "discover", "ingest_path"),
    "query": ("ParamFilter", "RunInfo", "TrialRow", "parse_filter"),
    "schema": ("SCHEMA_VERSION", "SchemaVersionError"),
})

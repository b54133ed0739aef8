"""The sweep service: a long-running daemon with an HTTP/JSON job API.

ROADMAP item 1 — the "millions of users" story.  The service wraps
:mod:`repro.experiments` behind a stdlib-only HTTP daemon
(:mod:`http.server` + threads, no new dependencies):

* **submit** a :class:`~repro.experiments.spec.SweepSpec` as JSON
  (``POST /api/v1/jobs``) and get a job id back immediately;
* **poll** job status (``GET /api/v1/jobs/<id>``) — the payload carries the
  latest :class:`~repro.telemetry.progress.ProgressEvent` heartbeat straight
  from ``run_sweep``'s progress hook;
* **fetch** tidy records, stats and the manifest when the job is done.

A bounded :class:`~repro.service.jobs.JobQueue` multiplexes concurrent sweeps
over one shared :class:`~repro.experiments.cache.ResultCache`.  Two layers of
dedup keep popular scenarios near-free:

* a **singleflight guard** collapses concurrent submissions of the same spec
  into one job (both clients poll the same job id and read the same records);
* the **content-addressed cache** dedupes identical trials across *different*
  specs, with atomic last-write-wins writes so concurrent sweeps sharing a
  cache are safe (see the concurrency contract in
  :mod:`repro.experiments.cache`).

The package splits cleanly: :mod:`~repro.service.schemas` (JSON request
validation), :mod:`~repro.service.jobs` (job model + queue + singleflight),
:mod:`~repro.service.app` (HTTP routing), :mod:`~repro.service.client`
(urllib client used by ``repro submit`` and the tests).
"""

from repro._lazy import lazy_exports

__all__ = [
    "Job",
    "JobOptions",
    "JobQueue",
    "JobState",
    "SchemaError",
    "ServiceError",
    "SweepServiceClient",
    "make_server",
    "parse_submit_request",
    "serve",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "app": ("make_server", "serve"),
    "client": ("ServiceError", "SweepServiceClient"),
    "jobs": ("Job", "JobOptions", "JobQueue", "JobState"),
    "schemas": ("SchemaError", "parse_submit_request"),
})

"""The job model and bounded queue behind the sweep service.

A :class:`Job` is one submitted sweep: a :class:`SweepSpec`, execution
options, a lifecycle state (``queued → running → done | failed``) and — while
running — the latest :class:`~repro.telemetry.progress.ProgressEvent`
heartbeat from ``run_sweep``'s progress hook (the hook was designed for
exactly this poller).

The :class:`JobQueue` multiplexes jobs over a bounded
:class:`~concurrent.futures.ThreadPoolExecutor` and one shared
:class:`~repro.experiments.cache.ResultCache`:

* **singleflight** — submissions are deduplicated by the stable hash of the
  spec's canonical dict: while a job for that spec is queued, running or
  done, submitting the same spec returns the *existing* job instead of
  executing the overlapping trials twice.  Both clients poll the same job id
  and fetch identical records.  A *failed* job leaves the singleflight index
  so a resubmission retries;
* **cross-spec dedup** — different specs that share trials dedupe through the
  content-addressed cache (each overlapping trial executes once, then hits);
  the cache's atomic last-write-wins writes make the shared cache safe under
  the executor's concurrent threads and any worker processes they spawn;
* **crash safety** — results, manifest and per-job traces are published with
  atomic renames; a daemon killed mid-job leaves complete-or-absent artefacts
  and its cached trials behind, so resubmitting the spec to a fresh daemon
  completes from cache.

Thread-safety: all lifecycle transitions and index mutations happen under one
queue lock; the hot per-trial path (the progress callback) only *assigns* the
job's ``progress`` attribute, which is atomic under the GIL.  A job turns
``done`` before its warehouse ingest runs, so pollers see it without waiting
for the index; the queue counts the done-but-not-ingested jobs under the same
lock, and :meth:`JobQueue.wait_ingested` lets warehouse readers wait them out.
"""

from __future__ import annotations

import itertools
import logging
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.experiments.adaptive import AdaptiveSweepResult, run_adaptive_sweep
from repro.experiments.cache import ResultCache
from repro.experiments.registry import get_scenario
from repro.experiments.runner import SweepResult, run_sweep
from repro.experiments.spec import SweepSpec, stable_hash
from repro.experiments.store import ResultStore
from repro.service.schemas import JobOptions
from repro.telemetry.metrics import counter, gauge
from repro.telemetry.progress import ProgressEvent
from repro.telemetry.tracing import start_trace, write_trace
from repro.warehouse.db import Warehouse

__all__ = ["Job", "JobOptions", "JobQueue", "JobState", "spec_key"]

logger = logging.getLogger(__name__)

_SUBMITTED = counter("service.jobs_submitted")
_DEDUPLICATED = counter("service.jobs_deduplicated")
_COMPLETED = counter("service.jobs_completed")
_FAILED = counter("service.jobs_failed")
_RUNNING = gauge("service.jobs_running")


class JobState:
    """Lifecycle states (plain strings, stable across the JSON API)."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"

    #: Terminal states: the job will never transition again.
    TERMINAL = (DONE, FAILED)


def spec_key(spec: SweepSpec) -> str:
    """The singleflight identity of a spec: a stable hash of its canonical dict."""
    return stable_hash(spec.to_dict(), length=16)


def _stats_payload(result: SweepResult | None) -> dict[str, Any] | None:
    """The manifest/status ``stats`` dict: SweepStats, plus the adaptive block."""
    if result is None or result.stats is None:
        return None
    if isinstance(result, AdaptiveSweepResult):
        return result.stats_payload()
    return result.stats.to_dict()


@dataclass
class Job:
    """One submitted sweep and everything a poller may ask about it."""

    job_id: str
    spec: SweepSpec
    key: str
    options: JobOptions
    output_dir: Path
    state: str = JobState.QUEUED
    submitted_s: float = field(default_factory=time.time)
    started_s: float | None = None
    finished_s: float | None = None
    #: Latest heartbeat (assigned whole from the worker thread — GIL-atomic).
    progress: ProgressEvent | None = None
    error: str | None = None
    result: SweepResult | None = None
    #: Paths written by the ResultStore (jsonl/csv/manifest [+ trace]).
    artifacts: dict[str, str] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """The job's JSON status payload (what ``GET /jobs/<id>`` returns)."""
        return {
            "job_id": self.job_id,
            "state": self.state,
            "scenario": self.spec.scenario,
            "spec_key": self.key,
            "num_trials": self.spec.num_trials,
            "options": self.options.to_dict(),
            "submitted_s": self.submitted_s,
            "started_s": self.started_s,
            "finished_s": self.finished_s,
            "progress": self.progress.to_dict() if self.progress is not None else None,
            "error": self.error,
            "stats": _stats_payload(self.result),
            "artifacts": dict(self.artifacts),
        }


class JobQueue:
    """A bounded executor of sweep jobs with singleflight submission dedup."""

    def __init__(
        self,
        data_dir: Path | str,
        cache: ResultCache | None = None,
        max_workers: int = 2,
        progress_interval_s: float = 0.1,
        warehouse: Warehouse | None = None,
    ) -> None:
        self.data_dir = Path(data_dir)
        self.cache = cache
        self.warehouse = warehouse
        self._progress_interval_s = progress_interval_s
        self._executor = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="sweep-job"
        )
        self._lock = threading.Lock()
        #: notified whenever a done job's warehouse ingest finishes
        self._ingested = threading.Condition(self._lock)
        self._ingest_pending = 0
        self._jobs: dict[str, Job] = {}
        #: spec key -> job id of the queued/running/done job for that spec.
        self._singleflight: dict[str, str] = {}
        self._ids = itertools.count(1)

    # ------------------------------------------------------------------ #
    # submission (singleflight)
    # ------------------------------------------------------------------ #
    def submit(self, spec: SweepSpec, options: JobOptions | None = None) -> tuple[Job, bool]:
        """Enqueue ``spec``; returns ``(job, deduplicated)``.

        ``deduplicated`` is ``True`` when an equivalent spec was already
        queued, running or done — the caller gets that existing job and no
        new work is scheduled (the singleflight guarantee).
        """
        get_scenario(spec.scenario)  # unknown scenarios fail fast (KeyError)
        options = options if options is not None else JobOptions()
        key = spec_key(spec)
        with self._lock:
            existing_id = self._singleflight.get(key)
            if existing_id is not None:
                existing = self._jobs[existing_id]
                if existing.state != JobState.FAILED:
                    _DEDUPLICATED.inc()
                    return existing, True
            job_id = f"job-{next(self._ids):06d}-{key[:8]}"
            job = Job(
                job_id=job_id,
                spec=spec,
                key=key,
                options=options,
                output_dir=self.data_dir / "jobs" / job_id,
            )
            self._jobs[job_id] = job
            self._singleflight[key] = job_id
            _SUBMITTED.inc()
        logger.info("job %s: submitted (%s, %d trials)",
                    job.job_id, spec.scenario, spec.num_trials)
        self._executor.submit(self._run, job)
        return job, False

    # ------------------------------------------------------------------ #
    # lookup
    # ------------------------------------------------------------------ #
    def get(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> list[Job]:
        """All jobs, oldest first."""
        with self._lock:
            return sorted(self._jobs.values(), key=lambda job: job.submitted_s)

    def state_counts(self) -> dict[str, int]:
        """How many jobs sit in each lifecycle state (for /health)."""
        counts = {state: 0 for state in
                  (JobState.QUEUED, JobState.RUNNING, JobState.DONE, JobState.FAILED)}
        with self._lock:
            for job in self._jobs.values():
                counts[job.state] += 1
        return counts

    # ------------------------------------------------------------------ #
    # execution (worker threads)
    # ------------------------------------------------------------------ #
    def _run(self, job: Job) -> None:
        with self._lock:
            job.state = JobState.RUNNING
            job.started_s = time.time()
        _RUNNING.set(_RUNNING.value + 1)
        try:
            # the artefact write runs inside the trace, so it gets its own span
            with start_trace() if job.options.trace else nullcontext() as tracer:
                result = self._run_sweep(job)
                written = ResultStore(job.output_dir).write(
                    result.records,
                    spec=job.spec.to_dict(),
                    stats=_stats_payload(result),
                )
            if tracer is not None:
                written["trace"] = write_trace(
                    job.output_dir / "trace.jsonl", tracer.records
                )
            with self._lock:
                job.result = result
                job.artifacts = {name: str(path) for name, path in written.items()}
                job.state = JobState.DONE
                job.finished_s = time.time()
                self._ingest_pending += 1
            try:
                _COMPLETED.inc()
                logger.info("job %s: done (%d records)", job.job_id, len(result.records))
                self._ingest(job)
            finally:
                with self._ingested:
                    self._ingest_pending -= 1
                    self._ingested.notify_all()
        except BaseException as error:  # a failed job must never kill its worker thread
            with self._lock:
                job.state = JobState.FAILED
                job.error = f"{type(error).__name__}: {error}"
                job.finished_s = time.time()
                # leave singleflight so the next submission of this spec retries
                if self._singleflight.get(job.key) == job.job_id:
                    del self._singleflight[job.key]
            _FAILED.inc()
            logger.exception("job %s: failed", job.job_id)
        finally:
            _RUNNING.set(_RUNNING.value - 1)

    def wait_ingested(self, timeout_s: float | None = None) -> bool:
        """Block until every done job's warehouse ingest has finished.

        Returns ``False`` if ``timeout_s`` passed first.  Jobs finishing
        while this waits extend the wait; a reader that needs a done job in
        the warehouse calls this before reading.
        """
        with self._ingested:
            return self._ingested.wait_for(
                lambda: self._ingest_pending == 0, timeout=timeout_s
            )

    def _ingest(self, job: Job) -> None:
        """Index a finished job into the warehouse (best effort).

        Ingest failure must not fail the job: the artifacts on disk are the
        source of truth and a later ``repro ingest`` recovers the index.
        """
        if self.warehouse is None:
            return
        try:
            report = self.warehouse.ingest(job.output_dir, source="service")
            logger.info(
                "job %s: warehouse +%d run(s) / +%d trial(s) (%s)",
                job.job_id, report.runs_added, report.trials_added, self.warehouse.path,
            )
        except Exception:
            logger.exception("job %s: warehouse ingest failed (job unaffected)", job.job_id)

    def _run_sweep(self, job: Job) -> SweepResult:
        def heartbeat(event: ProgressEvent) -> None:
            job.progress = event

        if job.options.adaptive is not None:
            return run_adaptive_sweep(
                job.spec,
                job.options.adaptive,
                jobs=job.options.jobs,
                cache=self.cache if job.options.cache else None,
                progress=heartbeat,
                progress_interval_s=self._progress_interval_s,
            )
        return run_sweep(
            job.spec,
            jobs=job.options.jobs,
            cache=self.cache if job.options.cache else None,
            progress=heartbeat,
            progress_interval_s=self._progress_interval_s,
        )

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting work and (optionally) wait for running jobs."""
        self._executor.shutdown(wait=wait)

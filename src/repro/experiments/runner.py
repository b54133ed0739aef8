"""The sweep engine: expand a spec, execute its trials, cache the results.

:func:`run_sweep` is the fixed-count entry point.  It expands a
:class:`~repro.experiments.spec.SweepSpec` into trial points and hands them to
:func:`execute_trials` — the wave-level engine that the adaptive runner
(:mod:`repro.experiments.adaptive`) reuses to grow sweeps in waves.  The
engine skips trials whose result is already in the
:class:`~repro.experiments.cache.ResultCache`, and executes the rest —
serially for small batches, or on a ``multiprocessing`` pool with chunked
dispatch for large ones.  A scenario that defines ``run_batch`` receives its
cache misses in one call (one chunk per worker under a pool); every other
scenario runs trial by trial through ``run_trial``.  The two are one contract:
``run_batch`` records compare ``==`` to the per-trial ``run_trial`` oracle, so
no option chooses between them.  Three properties the tests pin down:

* **determinism** — per-trial seeds come from the seed policy, never from
  execution order, and records are returned in canonical trial order, so a
  serial run and a ``--jobs 8`` run of the same spec produce byte-identical
  records;
* **resumability** — each result is written to the cache the moment its
  trial (or its ``run_batch`` chunk) finishes, so an interrupted sweep
  re-runs only its unfinished trials;
* **isolation** — workers resolve the scenario by name from the registry
  (trial functions are module-level), so nothing unpicklable crosses the
  process boundary.

For out-of-core sweeps, ``run_sweep`` takes a ``store=``
:class:`~repro.experiments.segments.SegmentedResultStore` and flushes
completed trials to append-only segments every ``store.flush_trials``
records, so a killed sweep keeps every finished wave on disk.

The engine is also the telemetry trunk (:mod:`repro.telemetry`): with a
tracer active it opens ``sweep > sweep.cache_scan / sweep.execute > trial``
spans (``trial.batch > trial`` for ``run_batch`` chunks; workers buffer their
spans and metric deltas and ship them back with each chunk for parent-side
merging), folds the sweep's metric deltas
into :class:`SweepStats`, and drives an optional throttled ``progress``
callback — the hook the sweep service polls.
"""

from __future__ import annotations

import logging
import math
import os
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, Sequence

from repro.experiments.cache import ResultCache, code_version_tag, trial_key
from repro.experiments.registry import Scenario, get_scenario
from repro.experiments.spec import SweepSpec, TrialPoint
from repro.telemetry.metrics import counter, flatten_snapshot, registry, snapshot_delta
from repro.telemetry.progress import ProgressEvent, ProgressReporter
from repro.telemetry.tracing import SpanRecord, current_tracer, span, worker_trace

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    import multiprocessing.context

    from repro.experiments.segments import SegmentedResultStore

__all__ = [
    "SweepStats",
    "SweepResult",
    "ExecutionOutcome",
    "execute_trials",
    "plain_value",
    "run_sweep",
]

logger = logging.getLogger(__name__)

_TRIALS_EXECUTED = counter("sweep.trials_executed")
_TRIALS_CACHED = counter("sweep.trials_cached")

#: Below this many pending trials a worker pool costs more than it saves.
MIN_TRIALS_FOR_POOL = 4

#: Record keys written by the engine itself; trial params/metrics must not
#: collide with them.
IDENTITY_KEYS = ("scenario", "trial_index", "replicate", "seed")


def plain_value(value: Any) -> Any:
    """Coerce a metric/param value to a plain JSON-serialisable scalar.

    Applied to every record value by :func:`run_sweep`, so numpy scalars
    never leak into stored results.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    item = getattr(value, "item", None)
    if callable(item):
        return item()
    raise TypeError(
        f"trial produced a non-scalar value {value!r} ({type(value).__name__}); "
        "trial functions must return flat dicts of scalars"
    )


#: One executed chunk of trials: its ``(canonical index, tidy record)`` pairs,
#: the spans it produced (empty unless it ran in a worker with telemetry on),
#: and the worker's metric delta (``None`` unless it ran in a worker with
#: telemetry on — in-process chunks record straight into the parent
#: tracer/registry).
_ChunkResult = tuple[
    list[tuple[int, dict[str, Any]]], tuple[SpanRecord, ...], dict[str, Any] | None
]


def _build_record(
    scenario_name: str, trial: TrialPoint, metrics: Mapping[str, Any]
) -> dict[str, Any]:
    """One trial's tidy record: identity columns, then params, then metrics."""
    record: dict[str, Any] = {
        "scenario": scenario_name,
        "trial_index": trial.index,
        "replicate": trial.replicate,
        "seed": trial.seed,
    }
    for source in (trial.params, metrics):
        for key, value in source.items():
            if key in IDENTITY_KEYS or (key in record and source is metrics):
                raise ValueError(
                    f"scenario {scenario_name!r}: key {key!r} collides with an "
                    "identity or parameter column"
                )
            record[key] = plain_value(value)
    return record


def _run_chunk(
    scenario_name: str, trials: Sequence[TrialPoint]
) -> list[tuple[int, dict[str, Any]]]:
    """Run one chunk of trials and build their records.

    A scenario with ``run_batch`` gets the whole chunk in one call (one
    ``trial.batch`` span, plus a zero-duration ``trial`` span per trial so a
    trace's trial count still equals ``stats.num_trials``); otherwise each
    trial runs through ``run_trial`` under its own ``trial`` span.
    """
    scenario = get_scenario(scenario_name)
    if scenario.run_batch is None:
        pairs = []
        for trial in trials:
            with span("trial", trial_index=trial.index, seed=trial.seed):
                metrics = scenario.run_trial(trial.params, trial.seed)
                pairs.append((trial.index, _build_record(scenario_name, trial, metrics)))
        return pairs
    with span("trial.batch", trials=len(trials)):
        batch = scenario.run_batch([(trial.params, trial.seed) for trial in trials])
        if len(batch) != len(trials):
            raise ValueError(
                f"scenario {scenario_name!r}: run_batch returned {len(batch)} "
                f"results for {len(trials)} trials"
            )
        for trial in trials:
            with span("trial", trial_index=trial.index, seed=trial.seed, batched=True):
                pass
    return [
        (trial.index, _build_record(scenario_name, trial, metrics))
        for trial, metrics in zip(trials, batch)
    ]


def _execute_chunk(
    payload: tuple[str, Sequence[TrialPoint], bool]
) -> _ChunkResult:
    """Run one chunk (possibly in a worker process), with telemetry capture.

    Three telemetry regimes, decided here so the pool dispatch stays dumb:

    * a tracer owned by *this* process is active → in-process (serial)
      execution: spans record straight into it, nothing ships;
    * ``telemetry`` flag set but no live local tracer → worker process (the
      forked parent tracer, if any, is a dead copy): buffer spans and the
      metric delta locally and ship both back with the records;
    * telemetry off → run bare.
    """
    scenario_name, trials, telemetry = payload
    tracer = current_tracer()
    if telemetry and not (tracer is not None and tracer.pid == os.getpid()):
        before = registry().snapshot()
        with worker_trace() as local:
            pairs = _run_chunk(scenario_name, trials)
        delta = snapshot_delta(before, registry().snapshot())
        return pairs, tuple(local.records), delta or None
    return _run_chunk(scenario_name, trials), (), None


@dataclass(frozen=True)
class SweepStats:
    """Execution statistics of one :func:`run_sweep` call."""

    num_trials: int
    executed: int
    cache_hits: int
    jobs: int
    elapsed_s: float
    #: Flattened telemetry-metric deltas attributable to this sweep (counter
    #: increments, histogram windows) — see :mod:`repro.telemetry.metrics`.
    #: ``None`` when the run recorded no metric activity.
    metrics: Mapping[str, Any] | None = None

    @property
    def cache_hit_rate(self) -> float:
        return self.cache_hits / self.num_trials if self.num_trials else 0.0

    @property
    def trials_per_second(self) -> float:
        """Throughput of *executed* trials.

        Cache hits are lookups, not work: a 100%-cache-hit resume must not
        claim an absurd execution rate, so the numerator is ``executed``,
        never ``num_trials``.  A run that executed nothing reports 0.0 (and
        a zero-elapsed run stays ``inf``, serialised as null).
        """
        if self.elapsed_s <= 0:
            return float("inf")
        return self.executed / self.elapsed_s

    def to_dict(self) -> dict[str, Any]:
        # a zero-elapsed run has no meaningful rate: serialise it as null —
        # json.dumps would otherwise emit the non-standard literal `Infinity`
        # that strict JSON parsers (and the manifest's future readers) reject
        rate = self.trials_per_second
        payload: dict[str, Any] = {
            "num_trials": self.num_trials,
            "executed": self.executed,
            "cache_hits": self.cache_hits,
            "cache_hit_rate": self.cache_hit_rate,
            "jobs": self.jobs,
            "elapsed_s": self.elapsed_s,
            "trials_per_second": rate if math.isfinite(rate) else None,
        }
        if self.metrics:
            payload["metrics"] = dict(self.metrics)
        return payload


@dataclass
class SweepResult:
    """Records (in canonical trial order) plus the spec and run statistics."""

    spec: SweepSpec
    records: list[dict[str, Any]] = field(default_factory=list)
    stats: SweepStats | None = None

    def column(self, name: str) -> list[Any]:
        """The values of one record column, in trial order."""
        return [record.get(name) for record in self.records]

    def group_mean(self, by: str, metric: str) -> dict[Any, float]:
        """Mean of ``metric`` grouped by the values of column ``by``.

        Records missing either key are skipped — heterogeneous records
        (scenarios whose metric sets differ per parameter) are
        documented-normal in the store layer, never an error here.  So are
        ``None`` metrics, the scenarios' encoding of an undefined value (a
        censored lifetime, a zero-packet delivery ratio); a group without a
        defined value is absent from the result.
        """
        totals: dict[Any, list[float]] = {}
        for record in self.records:
            if by not in record or record.get(metric) is None:
                continue
            totals.setdefault(record[by], []).append(float(record[metric]))
        return {key: sum(vals) / len(vals) for key, vals in totals.items()}


def _chunk_size(pending: int, jobs: int) -> int:
    """Chunked dispatch: ~4 chunks per worker balances latency and overhead."""
    return max(1, pending // (jobs * 4))


@dataclass
class ExecutionOutcome:
    """What one :func:`execute_trials` call produced (updated *in place*).

    Callers may pass their own instance to ``execute_trials``; because the
    engine mutates it as results arrive, the counts and records survive a
    trial raising mid-batch — that is how ``run_sweep``'s ``finally`` block
    reports partial progress after a failure.
    """

    #: Completed records keyed by canonical trial index.
    records: dict[int, dict[str, Any]] = field(default_factory=dict)
    executed: int = 0
    cache_hits: int = 0
    effective_jobs: int = 1


def execute_trials(
    scenario: Scenario,
    trials: Sequence[TrialPoint],
    jobs: int = 1,
    cache: ResultCache | None = None,
    chunk_size: int | None = None,
    mp_context: multiprocessing.context.BaseContext | None = None,
    reporter: ProgressReporter | None = None,
    completed_before: int = 0,
    executed_before: int = 0,
    hits_before: int = 0,
    on_record: Callable[[dict[str, Any]], None] | None = None,
    outcome: ExecutionOutcome | None = None,
) -> ExecutionOutcome:
    """Execute one batch of trial points — the engine under every sweep.

    This is the wave-level primitive: :func:`run_sweep` calls it once with a
    spec's full expansion; the adaptive runner calls it per wave with just
    the replicates that wave adds.  It opens the ``sweep.cache_scan`` and
    ``sweep.execute`` spans, writes fresh results to the cache as they
    arrive, restamps identity columns on cache hits, merges worker telemetry
    home, and invokes ``on_record`` for every completed record (hits and
    fresh alike) — the flush hook the segmented store plugs into.

    ``*_before`` offsets let a multi-wave caller report cumulative progress
    through one shared ``reporter``; the final (terminal) progress event is
    the caller's responsibility.  ``outcome`` (optional) is updated in place
    as results arrive, so the caller sees partial counts even when a trial
    raises.
    """
    code_tag = code_version_tag()
    tracer = current_tracer()
    telemetry_on = tracer is not None and tracer.pid == os.getpid()
    result = outcome if outcome is not None else ExecutionOutcome()

    pending: list[TrialPoint] = []
    keys: dict[int, str] = {}

    with span("sweep.cache_scan", cached=cache is not None):
        for trial in trials:
            if cache is not None:
                key = trial_key(
                    scenario.name, scenario.version, trial.params, trial.seed, code_tag
                )
                keys[trial.index] = key
                hit = cache.get(scenario.name, key)
                if hit is not None:
                    # restamp the identity columns: the cached record may
                    # have been executed by a different sweep of the same
                    # trials
                    record = {
                        **hit, "trial_index": trial.index, "replicate": trial.replicate,
                    }
                    result.records[trial.index] = record
                    result.cache_hits += 1
                    # a zero-duration trial span per hit keeps the trace's
                    # trial count equal to stats.num_trials
                    with span("trial", trial_index=trial.index, seed=trial.seed,
                              cache_hit=True):
                        pass
                    if on_record is not None:
                        on_record(record)
                    continue
            pending.append(trial)
    cache_hits = result.cache_hits
    _TRIALS_CACHED.inc(cache_hits)
    logger.info(
        "sweep %s: cache scan done — %d hits, %d to execute",
        scenario.name, cache_hits, len(pending),
    )

    result.effective_jobs = max(1, min(int(jobs), len(pending)))
    serial = result.effective_jobs == 1 or len(pending) < MIN_TRIALS_FOR_POOL
    if serial:
        result.effective_jobs = 1
    # a batch-native scenario gets every pending trial in one run_batch call
    # (one chunk per worker under a pool); a per-trial scenario runs one
    # trial per serial chunk, so each result is cached the moment it exists
    batched = scenario.run_batch is not None
    if serial:
        size = (chunk_size or len(pending)) if batched else 1
    elif chunk_size is not None:
        size = chunk_size
    elif batched:
        size = math.ceil(len(pending) / result.effective_jobs)
    else:
        size = _chunk_size(len(pending), result.effective_jobs)
    size = max(1, size)
    chunks = [
        (scenario.name, pending[start:start + size], telemetry_on)
        for start in range(0, len(pending), size)
    ]

    if reporter is not None:
        reporter.update(
            completed=completed_before + cache_hits,
            executed=executed_before,
            cache_hits=hits_before + cache_hits,
        )

    # the metric increments in a finally so a trial raising mid-pool still
    # counts the trials that did complete; those results are already in the
    # cache (and flushed through on_record) because _collect handles each
    # chunk the moment it arrives
    executed = 0
    try:
        with span("sweep.execute", pending=len(pending)) as execute_span:
            execute_id = execute_span.span_id if execute_span is not None else None

            def _collect(results: Iterable[_ChunkResult]) -> None:
                nonlocal executed
                for pairs, spans, metric_delta in results:
                    if spans and tracer is not None:
                        tracer.adopt(spans, parent_id=execute_id)
                    if metric_delta:
                        registry().merge_delta(metric_delta)
                    for index, record in pairs:
                        result.records[index] = record
                        executed += 1
                        result.executed += 1
                        if cache is not None:
                            cache.put(scenario.name, keys[index], record)
                        if on_record is not None:
                            on_record(record)
                        if reporter is not None:
                            reporter.update(
                                completed=completed_before + cache_hits + executed,
                                executed=executed_before + executed,
                                cache_hits=hits_before + cache_hits,
                            )

            if serial:
                _collect(map(_execute_chunk, chunks))
            else:
                # the pool machinery loads only when a sweep needs workers
                import multiprocessing

                ctx = (
                    mp_context if mp_context is not None
                    else multiprocessing.get_context()
                )
                logger.debug(
                    "sweep %s: pool dispatch — %d workers, chunk size %d",
                    scenario.name, result.effective_jobs, size,
                )
                with ctx.Pool(processes=result.effective_jobs) as pool:
                    _collect(pool.imap_unordered(_execute_chunk, chunks))
    finally:
        _TRIALS_EXECUTED.inc(executed)

    return result


def run_sweep(
    spec: SweepSpec,
    jobs: int = 1,
    cache: ResultCache | None = None,
    chunk_size: int | None = None,
    mp_context: multiprocessing.context.BaseContext | None = None,
    progress: Callable[[ProgressEvent], None] | None = None,
    progress_interval_s: float = 0.0,
    store: "SegmentedResultStore | None" = None,
) -> SweepResult:
    """Execute every trial of ``spec`` and return their tidy records.

    Parameters
    ----------
    spec:
        The sweep to run; its scenario must exist in the registry.
    jobs:
        Worker processes.  ``1`` (or a batch smaller than
        ``MIN_TRIALS_FOR_POOL``) runs serially in-process.
    cache:
        Optional result cache; hits skip execution, fresh results are stored
        as soon as they arrive so interrupted sweeps resume.
    chunk_size:
        Trials per pool task; defaults to ~4 chunks per worker, or one chunk
        per worker for a scenario with ``run_batch``.  A serial run of such a
        scenario also passes at most this many trials per ``run_batch`` call
        (default: all of them).
    mp_context:
        Multiprocessing context override (``fork`` is the default on Linux;
        with a ``spawn`` context only built-in scenarios resolve in workers).
    progress:
        Optional heartbeat callback.  Receives a
        :class:`~repro.telemetry.progress.ProgressEvent` after the cache scan,
        after trial completions (throttled to ``progress_interval_s``), and a
        final event when the sweep is done.
    progress_interval_s:
        Minimum seconds between intermediate progress events (first and final
        events always fire).
    store:
        Optional :class:`~repro.experiments.segments.SegmentedResultStore`:
        completed records are flushed to an append-only segment every
        ``store.flush_trials`` completions (and once at the end), so a killed
        sweep keeps every flushed wave on disk.  Call ``store.merge()`` to
        produce the canonical results afterwards.
    """
    scenario = get_scenario(spec.scenario)
    trials = spec.expand()
    started = time.perf_counter()
    tracer = current_tracer()
    telemetry_on = tracer is not None and tracer.pid == os.getpid()
    metrics_before = registry().snapshot() if telemetry_on else None
    logger.info(
        "sweep %s: %d trials (jobs=%d, cache=%s)",
        scenario.name, len(trials), jobs, "on" if cache is not None else "off",
    )

    reporter = (
        ProgressReporter(progress, total=len(trials), min_interval_s=progress_interval_s)
        if progress is not None
        else None
    )

    flush_buffer: list[dict[str, Any]] = []

    def _flush_segment() -> None:
        if store is not None and flush_buffer:
            store.append(flush_buffer)
            flush_buffer.clear()

    def _on_record(record: dict[str, Any]) -> None:
        if store is not None:
            flush_buffer.append(record)
            if len(flush_buffer) >= store.flush_trials:
                _flush_segment()

    # execute_trials updates this outcome in place, so the finally block
    # still sees the partial counts when a trial raises mid-batch
    outcome = ExecutionOutcome()
    # try/finally so a trial raising mid-pool still delivers the final
    # progress heartbeat (pollers — the sweep service — must observe a
    # terminal event) and still flushes the records that did complete
    with span("sweep", scenario=scenario.name, num_trials=len(trials)):
        try:
            execute_trials(
                scenario,
                trials,
                jobs=jobs,
                cache=cache,
                chunk_size=chunk_size,
                mp_context=mp_context,
                reporter=reporter,
                on_record=_on_record if store is not None else None,
                outcome=outcome,
            )
        finally:
            _flush_segment()
            if reporter is not None:
                reporter.update(
                    completed=outcome.cache_hits + outcome.executed,
                    executed=outcome.executed,
                    cache_hits=outcome.cache_hits,
                    final=True,
                )

    elapsed = time.perf_counter() - started
    metrics_delta = None
    if metrics_before is not None:
        metrics_delta = flatten_snapshot(
            snapshot_delta(metrics_before, registry().snapshot())
        )
    stats = SweepStats(
        num_trials=len(trials),
        executed=outcome.executed,
        cache_hits=outcome.cache_hits,
        jobs=outcome.effective_jobs,
        elapsed_s=elapsed,
        metrics=metrics_delta or None,
    )
    logger.info(
        "sweep %s: done — %d executed, %d cache hits in %.2fs",
        scenario.name, stats.executed, stats.cache_hits, elapsed,
    )
    ordered = [outcome.records[trial.index] for trial in trials]
    return SweepResult(spec=spec, records=ordered, stats=stats)

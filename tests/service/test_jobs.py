"""Tests for the job queue: lifecycle, singleflight, failure, artefacts."""

from __future__ import annotations

import threading
import time

import pytest

from repro.experiments import ResultCache, Scenario, get_scenario, register, run_sweep
from repro.experiments.spec import SweepSpec
from repro.experiments.store import read_jsonl
from repro.service.jobs import JobQueue, JobState, spec_key
from repro.service.schemas import JobOptions


def _wait_terminal(queue, job_id, timeout_s=30.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        job = queue.get(job_id)
        if job is not None and job.state in JobState.TERMINAL:
            return job
        time.sleep(0.01)
    raise AssertionError(f"job {job_id} never reached a terminal state")


@pytest.fixture
def queue(tmp_path):
    queue = JobQueue(tmp_path / "data", cache=ResultCache(tmp_path / "cache"),
                     max_workers=2)
    yield queue
    queue.shutdown(wait=True)


class TestLifecycle:
    def test_submit_runs_to_done_with_artifacts(self, queue):
        spec = get_scenario("platform-energy").spec
        job, deduplicated = queue.submit(spec)
        assert not deduplicated
        job = _wait_terminal(queue, job.job_id)
        assert job.state == JobState.DONE
        assert job.error is None
        assert job.started_s is not None and job.finished_s is not None
        assert job.result is not None and len(job.result.records) == spec.num_trials
        assert set(job.artifacts) == {"jsonl", "csv", "manifest"}
        # the persisted records equal the in-memory ones
        assert read_jsonl(job.artifacts["jsonl"]) == job.result.records

    def test_job_records_match_direct_run_sweep(self, queue):
        spec = get_scenario("platform-energy").spec
        job, _ = queue.submit(spec)
        job = _wait_terminal(queue, job.job_id)
        assert job.result.records == run_sweep(spec).records

    def test_final_progress_heartbeat_lands_on_the_job(self, queue):
        spec = get_scenario("platform-energy").spec
        job, _ = queue.submit(spec)
        job = _wait_terminal(queue, job.job_id)
        assert job.progress is not None
        assert job.progress.final is True
        assert job.progress.completed == spec.num_trials

    def test_to_dict_is_json_shaped(self, queue):
        spec = get_scenario("platform-energy").spec
        job, _ = queue.submit(spec)
        job = _wait_terminal(queue, job.job_id)
        payload = job.to_dict()
        assert payload["state"] == "done"
        assert payload["scenario"] == "platform-energy"
        assert payload["stats"]["num_trials"] == spec.num_trials
        assert payload["progress"]["final"] is True

    def test_unknown_scenario_raises_before_enqueue(self, queue):
        with pytest.raises(KeyError, match="unknown scenario"):
            queue.submit(SweepSpec(scenario="no-such-scenario"))
        assert queue.jobs() == []

    def test_trace_option_writes_a_per_job_trace(self, queue):
        spec = get_scenario("platform-energy").spec
        job, _ = queue.submit(spec, JobOptions(trace=True))
        job = _wait_terminal(queue, job.job_id)
        assert job.state == JobState.DONE
        assert "trace" in job.artifacts
        from repro.telemetry.tracing import read_trace, validate_trace

        records = read_trace(job.artifacts["trace"])
        assert validate_trace(records) == []
        assert sum(1 for r in records if r.name == "trial") == spec.num_trials
        assert [r.name for r in records if r.name == "store.write"] == ["store.write"]


class TestSingleflight:
    def test_identical_specs_share_one_job(self, queue):
        spec = get_scenario("platform-energy").spec
        first, dedup_first = queue.submit(spec)
        second, dedup_second = queue.submit(spec)
        assert not dedup_first and dedup_second
        assert first.job_id == second.job_id
        _wait_terminal(queue, first.job_id)

    def test_dedup_ignores_options(self, queue):
        spec = get_scenario("platform-energy").spec
        first, _ = queue.submit(spec, JobOptions(jobs=1))
        second, deduplicated = queue.submit(spec, JobOptions(jobs=4, trace=True))
        assert deduplicated and second.job_id == first.job_id
        assert second.options == first.options  # first submission's options win
        _wait_terminal(queue, first.job_id)

    def test_different_specs_get_different_jobs(self, queue):
        spec = get_scenario("platform-energy").spec
        other = spec.with_seed(base_seed=123)
        assert spec_key(spec) != spec_key(other)
        first, _ = queue.submit(spec)
        second, deduplicated = queue.submit(other)
        assert not deduplicated
        assert first.job_id != second.job_id
        _wait_terminal(queue, first.job_id)
        _wait_terminal(queue, second.job_id)

    def test_done_job_keeps_answering_resubmissions(self, queue):
        spec = get_scenario("platform-energy").spec
        job, _ = queue.submit(spec)
        _wait_terminal(queue, job.job_id)
        again, deduplicated = queue.submit(spec)
        assert deduplicated and again.job_id == job.job_id

    def test_concurrent_submissions_collapse_to_one_job(self, queue):
        spec = get_scenario("platform-energy").spec
        results = []
        barrier = threading.Barrier(8)

        def submit():
            barrier.wait()
            results.append(queue.submit(spec))

        threads = [threading.Thread(target=submit) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        job_ids = {job.job_id for job, _ in results}
        assert len(job_ids) == 1
        assert sum(1 for _, deduplicated in results if not deduplicated) == 1
        _wait_terminal(queue, job_ids.pop())


class TestFailure:
    def _register_failing(self, name):
        def run_trial(params, seed):
            raise RuntimeError("scenario always fails")

        register(Scenario(
            name=name, description="always fails (test only)", layers=("test",),
            version="1", run_trial=run_trial,
            default_spec=SweepSpec(scenario=name, grid={"x": (0, 1)}),
        ))

    def test_failed_job_records_the_error(self, queue):
        self._register_failing("service-fails")
        job, _ = queue.submit(get_scenario("service-fails").spec)
        job = _wait_terminal(queue, job.job_id)
        assert job.state == JobState.FAILED
        assert "scenario always fails" in job.error
        assert job.result is None

    def test_failed_job_leaves_singleflight_so_resubmission_retries(self, queue):
        self._register_failing("service-fails-retry")
        spec = get_scenario("service-fails-retry").spec
        job, _ = queue.submit(spec)
        _wait_terminal(queue, job.job_id)
        retry, deduplicated = queue.submit(spec)
        assert not deduplicated
        assert retry.job_id != job.job_id
        _wait_terminal(queue, retry.job_id)

    def test_state_counts(self, queue):
        self._register_failing("service-fails-counts")
        done, _ = queue.submit(get_scenario("platform-energy").spec)
        failed, _ = queue.submit(get_scenario("service-fails-counts").spec)
        _wait_terminal(queue, done.job_id)
        _wait_terminal(queue, failed.job_id)
        counts = queue.state_counts()
        assert counts["done"] == 1 and counts["failed"] == 1

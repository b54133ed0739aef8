"""Service integration: auto-ingest of finished jobs + ``GET /api/v1/runs``."""

from __future__ import annotations

import json
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.experiments import get_scenario
from repro.service import JobQueue, make_server
from repro.warehouse import Warehouse


def _wait_done(job, timeout_s=30.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if job.state in ("done", "failed"):
            return
        time.sleep(0.02)
    raise AssertionError(f"job stuck in state {job.state!r}")


@pytest.fixture
def service(tmp_path):
    warehouse = Warehouse(tmp_path / "data" / "warehouse.sqlite")
    queue = JobQueue(tmp_path / "data", max_workers=1, warehouse=warehouse)
    server = make_server("127.0.0.1", 0, queue)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{server.server_address[1]}"
    try:
        yield base, queue, warehouse
    finally:
        server.shutdown()
        server.server_close()
        queue.shutdown(wait=True)
        thread.join(timeout=5)


def _get(url):
    with urllib.request.urlopen(url, timeout=10) as response:
        return json.load(response)


class TestAutoIngest:
    def test_done_job_is_queryable_via_the_runs_endpoint(self, service):
        base, queue, warehouse = service
        job, _ = queue.submit(get_scenario("platform-energy").spec)
        _wait_done(job)

        payload = _get(f"{base}/api/v1/runs?scenario=platform-energy")
        assert payload["count"] == 1
        (run,) = payload["runs"]
        assert run["source"] == "service"
        assert run["scenario"] == "platform-energy"
        assert run["num_trials"] == job.spec.num_trials
        # and the same warehouse answers directly, off-HTTP
        assert len(warehouse.runs(source="service")) == 1

    def test_runs_endpoint_waits_for_an_ingest_still_in_flight(self, service):
        base, queue, warehouse = service
        release = threading.Event()
        ingest = warehouse.ingest

        def slow_ingest(*args, **kwargs):
            release.wait(10)
            return ingest(*args, **kwargs)

        warehouse.ingest = slow_ingest
        job, _ = queue.submit(get_scenario("platform-energy").spec)
        _wait_done(job)  # DONE, but its ingest is held back
        answer: list = []
        reader = threading.Thread(
            target=lambda: answer.append(_get(f"{base}/api/v1/runs?scenario=platform-energy"))
        )
        reader.start()
        reader.join(timeout=0.3)
        assert reader.is_alive() and not answer  # waiting, not answering without the job
        release.set()
        reader.join(timeout=10)
        assert answer and answer[0]["count"] == 1

    def test_wait_ingested_times_out_while_an_ingest_is_stuck(self, service):
        _, queue, warehouse = service
        release = threading.Event()
        ingest = warehouse.ingest
        warehouse.ingest = lambda *args, **kwargs: (release.wait(10), ingest(*args, **kwargs))[1]
        job, _ = queue.submit(get_scenario("platform-energy").spec)
        _wait_done(job)
        assert queue.wait_ingested(timeout_s=0.05) is False
        release.set()
        assert queue.wait_ingested(timeout_s=10) is True

    def test_every_done_job_is_ingested_under_contention(self, tmp_path):
        """Many workers finishing at once: no ingest count update is lost."""
        warehouse = Warehouse(tmp_path / "data" / "warehouse.sqlite")
        queue = JobQueue(tmp_path / "data", max_workers=4, warehouse=warehouse)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            spec = get_scenario("platform-energy").spec
            jobs = [queue.submit(spec.with_seed(base_seed=seed))[0] for seed in range(8)]
            for job in jobs:
                _wait_done(job)
            assert queue.wait_ingested(timeout_s=30) is True
        finally:
            sys.setswitchinterval(interval)
            queue.shutdown(wait=True)
        assert all(job.state == "done" for job in jobs)
        assert len(warehouse.runs(source="service")) == len(jobs)

    def test_scenario_filter_excludes_other_scenarios(self, service):
        base, queue, _ = service
        job, _ = queue.submit(get_scenario("platform-energy").spec)
        _wait_done(job)
        assert _get(f"{base}/api/v1/runs?scenario=no-such-scenario")["count"] == 0
        assert _get(f"{base}/api/v1/runs")["count"] == 1

    def test_ingest_failure_does_not_fail_the_job(self, service, tmp_path):
        _, queue, warehouse = service
        # poison the warehouse path so every ingest raises
        warehouse.path = tmp_path / "data"  # a directory, not a database file
        job, _ = queue.submit(get_scenario("platform-energy").spec)
        _wait_done(job)
        assert job.state == "done"
        assert job.error is None


class TestWarehouseDisabled:
    def test_runs_endpoint_is_404_without_a_warehouse(self, tmp_path):
        queue = JobQueue(tmp_path / "data", max_workers=1)  # no warehouse
        server = make_server("127.0.0.1", 0, queue)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{server.server_address[1]}"
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(f"{base}/api/v1/runs")
            assert excinfo.value.code == 404
            assert "warehouse is disabled" in json.load(excinfo.value)["error"]
        finally:
            server.shutdown()
            server.server_close()
            queue.shutdown(wait=True)
            thread.join(timeout=5)

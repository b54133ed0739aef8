"""HTTP routing for the sweep service (stdlib ``http.server`` + threads).

Endpoints (all JSON, versioned under ``/api/v1``)::

    GET  /api/v1/health              liveness + job state counts
    GET  /api/v1/scenarios           the sweepable scenarios and their specs
    GET  /api/v1/metrics             flattened telemetry-metrics snapshot
    POST /api/v1/jobs                submit a SweepSpec -> job id (202;
                                     200 when singleflight-deduplicated)
    GET  /api/v1/jobs                all jobs, oldest first
    GET  /api/v1/jobs/<id>           job status incl. latest progress event
    GET  /api/v1/jobs/<id>/records   tidy records (409 until the job is done)
    GET  /api/v1/jobs/<id>/stats     SweepStats of a done job (409 until done)
    GET  /api/v1/jobs/<id>/manifest  the manifest.json written with the results
    GET  /api/v1/runs                warehouse runs (``?scenario=``/``?source=``
                                     filters; every done job included); 404
                                     when the warehouse is off

Error mapping: schema violations and unknown scenarios are 400, unknown
paths/jobs 404, wrong methods 405, results requested before completion 409,
failed jobs 500 (with the job's recorded error).  Every response is a JSON
object; errors carry ``{"error": ...}``.

The server is a :class:`ThreadingHTTPServer` with daemon threads — request
handling stays responsive while the :class:`~repro.service.jobs.JobQueue`'s
bounded executor does the actual sweeping.
"""

from __future__ import annotations

import json
import logging
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any
from urllib.parse import parse_qs

from repro.experiments.registry import list_scenarios
from repro.service.jobs import Job, JobQueue, JobState
from repro.service.schemas import SchemaError, parse_submit_request
from repro.telemetry.metrics import counter, flatten_snapshot, registry

__all__ = ["make_server", "serve"]

logger = logging.getLogger(__name__)

_REQUESTS = counter("service.requests")
_ERRORS = counter("service.request_errors")

API_PREFIX = "/api/v1"

#: How long ``GET /api/v1/runs`` waits for in-flight warehouse ingests.
_INGEST_WAIT_S = 30.0


class _ApiError(Exception):
    """An error response: carries the HTTP status and a message payload."""

    def __init__(self, status: int, message: str, **extra: Any) -> None:
        super().__init__(message)
        self.status = status
        self.payload = {"error": message, **extra}


class SweepServiceHandler(BaseHTTPRequestHandler):
    """Routes one HTTP request; the job queue is attached per-server class."""

    queue: JobQueue  # injected by make_server on a per-server subclass
    server_version = "repro-sweep-service/1.0"
    protocol_version = "HTTP/1.1"
    #: Submit payloads above this many bytes are rejected outright (413).
    max_body_bytes = 8 * 1024 * 1024

    # ------------------------------------------------------------------ #
    # plumbing
    # ------------------------------------------------------------------ #
    def log_message(self, format: str, *args: Any) -> None:
        logger.debug("%s %s", self.address_string(), format % args)

    def _send_json(self, status: int, payload: dict[str, Any]) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_json_body(self) -> Any:
        length_header = self.headers.get("Content-Length")
        try:
            length = int(length_header or "")
        except ValueError:
            raise _ApiError(411, "Content-Length header required") from None
        if length > self.max_body_bytes:
            raise _ApiError(413, f"request body exceeds {self.max_body_bytes} bytes")
        raw = self.rfile.read(length)
        try:
            return json.loads(raw)
        except json.JSONDecodeError as error:
            raise _ApiError(400, f"request body is not valid JSON: {error}") from None

    def _dispatch(self, method: str) -> None:
        _REQUESTS.inc()
        try:
            payload, status = self._route(method)
            self._send_json(status, payload)
        except _ApiError as error:
            _ERRORS.inc()
            self._send_json(error.status, error.payload)
        except Exception as error:  # a handler bug must answer, not hang the client
            _ERRORS.inc()
            logger.exception("unhandled error serving %s %s", method, self.path)
            self._send_json(500, {"error": f"internal error: {type(error).__name__}"})

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("POST")

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #
    def _route(self, method: str) -> tuple[dict[str, Any], int]:
        path = self.path.split("?", 1)[0].rstrip("/")
        if not path.startswith(API_PREFIX):
            raise _ApiError(404, f"unknown path {path!r} (the API lives under {API_PREFIX})")
        parts = [part for part in path[len(API_PREFIX):].split("/") if part]

        if parts == ["health"]:
            return self._health(method)
        if parts == ["scenarios"]:
            return self._scenarios(method)
        if parts == ["metrics"]:
            return self._metrics(method)
        if parts == ["jobs"]:
            if method == "POST":
                return self._submit()
            return self._list_jobs(method)
        if len(parts) == 2 and parts[0] == "jobs":
            return self._job_status(method, parts[1])
        if len(parts) == 3 and parts[0] == "jobs" and parts[2] in ("records", "stats", "manifest"):
            return self._job_artifact(method, parts[1], parts[2])
        if parts == ["runs"]:
            return self._runs(method)
        raise _ApiError(404, f"unknown path {path!r}")

    def _get_only(self, method: str) -> None:
        if method != "GET":
            raise _ApiError(405, f"method {method} not allowed here (use GET)")

    # ------------------------------------------------------------------ #
    # handlers
    # ------------------------------------------------------------------ #
    def _health(self, method: str) -> tuple[dict[str, Any], int]:
        self._get_only(method)
        return {"status": "ok", "jobs": self.queue.state_counts()}, 200

    def _scenarios(self, method: str) -> tuple[dict[str, Any], int]:
        self._get_only(method)
        return {
            "scenarios": [
                {
                    "name": scenario.name,
                    "description": scenario.description,
                    "layers": list(scenario.layers),
                    "version": scenario.version,
                    "num_trials": scenario.spec.num_trials,
                    "spec": scenario.spec.to_dict(),
                }
                for scenario in list_scenarios()
            ]
        }, 200

    def _metrics(self, method: str) -> tuple[dict[str, Any], int]:
        self._get_only(method)
        return {"metrics": flatten_snapshot(registry().snapshot())}, 200

    def _submit(self) -> tuple[dict[str, Any], int]:
        try:
            spec, options = parse_submit_request(self._read_json_body())
        except SchemaError as error:
            raise _ApiError(400, str(error)) from None
        try:
            job, deduplicated = self.queue.submit(spec, options)
        except KeyError as error:
            raise _ApiError(400, str(error.args[0])) from None
        # 200 for "you joined an existing job", 202 for "work accepted"
        return {"job": job.to_dict(), "deduplicated": deduplicated}, (
            200 if deduplicated else 202
        )

    def _list_jobs(self, method: str) -> tuple[dict[str, Any], int]:
        self._get_only(method)
        return {"jobs": [job.to_dict() for job in self.queue.jobs()]}, 200

    def _find_job(self, job_id: str) -> Job:
        job = self.queue.get(job_id)
        if job is None:
            raise _ApiError(404, f"unknown job {job_id!r}")
        return job

    def _job_status(self, method: str, job_id: str) -> tuple[dict[str, Any], int]:
        self._get_only(method)
        return self._find_job(job_id).to_dict(), 200

    def _job_artifact(
        self, method: str, job_id: str, artifact: str
    ) -> tuple[dict[str, Any], int]:
        self._get_only(method)
        job = self._find_job(job_id)
        if job.state == JobState.FAILED:
            raise _ApiError(500, f"job {job_id} failed: {job.error}", state=job.state)
        if job.state != JobState.DONE:
            raise _ApiError(
                409,
                f"job {job_id} is {job.state}; {artifact} are available once it is done",
                state=job.state,
            )
        result = job.result
        assert result is not None  # state DONE implies a result
        if artifact == "records":
            return {"job_id": job.job_id, "count": len(result.records),
                    "records": result.records}, 200
        if artifact == "stats":
            stats = result.stats.to_dict() if result.stats is not None else None
            return {"job_id": job.job_id, "stats": stats}, 200
        manifest_path = job.output_dir / "manifest.json"
        try:
            manifest = json.loads(manifest_path.read_text())
        except FileNotFoundError:
            raise _ApiError(404, f"job {job_id} has no manifest on disk") from None
        return {"job_id": job.job_id, "manifest": manifest}, 200


    def _runs(self, method: str) -> tuple[dict[str, Any], int]:
        self._get_only(method)
        warehouse = self.queue.warehouse
        if warehouse is None:
            raise _ApiError(
                404, "the warehouse is disabled on this server (started with --no-warehouse)"
            )
        query = parse_qs(self.path.partition("?")[2])
        # a job is DONE before it is ingested: let in-flight ingests land so
        # every job a client has seen done is in the answer
        if not self.queue.wait_ingested(timeout_s=_INGEST_WAIT_S):
            logger.warning("runs: ingest still pending after %.0f s; answering without it",
                           _INGEST_WAIT_S)

        def single(name: str) -> str | None:
            values = query.get(name)
            return values[-1] if values else None

        runs = warehouse.runs(
            scenario=single("scenario"),
            version=single("version"),
            source=single("source"),
        )
        return {"count": len(runs), "runs": [run.to_dict() for run in runs]}, 200


def make_server(host: str, port: int, queue: JobQueue) -> ThreadingHTTPServer:
    """Build a ready-to-serve HTTP server bound to ``host:port``.

    ``port=0`` binds an ephemeral port (read it back from
    ``server.server_address`` — the tests and smoke scripts do).  The handler
    class is subclassed per server so concurrent servers in one process (the
    test suite) never share a job queue through class state.
    """
    handler = type("BoundSweepServiceHandler", (SweepServiceHandler,), {"queue": queue})
    server = ThreadingHTTPServer((host, port), handler)
    server.daemon_threads = True
    return server


def serve(server: ThreadingHTTPServer, queue: JobQueue) -> None:
    """Serve until interrupted, then drain the job queue cleanly."""
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        logger.info("interrupt: shutting down")
    finally:
        server.server_close()
        queue.shutdown(wait=True)

"""``service-mix``: one closed-loop client against a ``repro serve`` daemon.

The daemon runs with its defaults (2 workers, cache and warehouse on).  The
client sends the seeded op sequence of :func:`harness.inputs.service_ops`
over the HTTP API, one op outstanding at a time; its first ops are an
untimed warm-up.  A job op runs from
submit until the job is done and its records are fetched; a ``runs`` op is
one ``GET /api/v1/runs`` filtered to the scenario only the warm-up ran,
so the read does not grow with the warehouse over the run (an unfiltered
list grew from 9 to 45 ms within one 30 s run, dragging the median with
the op count).
"""

from __future__ import annotations

import json
import os
import re
import time
import urllib.error
import urllib.request
from pathlib import Path
from typing import Any, Iterator

from harness import analysis
from harness.checks import digest
from harness.host import CHILD, Context, Outcome, Sentinel, keep_going, python
from harness.inputs import READ_SCENARIO, SERVICE_SCENARIOS, num_trials, service_ops, with_seed
from harness.spans import SpanRecorder
from harness.stats import median, percentile

#: Daemon start-ups per run: three before the measured ops and two after, so
#: the median set-up spans the run as the ops do.
SETUPS_BEFORE, SETUPS_AFTER = 3, 2
#: Ops of the mix run untimed before the measured ones: a fresh daemon's
#: jobs ran 20-30% slower for its first 10-20 s.
WARM_OPS = 400
#: The daemon's peak RSS is read after this many measured ops, every run
#: alike: the daemon keeps every job in memory, so a reading at the end of a
#: timed run would grow with throughput.  The phase always runs at least this
#: many ops.
RSS_AT_OPS = 400
#: Poll interval for job state, a quarter of the ~20 ms median op.  Each poll
#: takes the daemon's GIL from the job it waits for: with 2 ms polls jobs ran
#: about 20% slower and run medians varied twice as much (5 interleaved
#: seeds, together with the untimed warm-up above).
POLL_S = 0.005
JOB_TIMEOUT_S = 60.0
START_TIMEOUT_S = 60.0
_LISTENING = re.compile(r"listening on (http://\S+)")


class Api:
    """A minimal JSON client; remembers each call's latency by endpoint kind."""

    def __init__(self, url: str) -> None:
        self.url = url
        #: Set while a traced phase runs: each call then records a span.
        self.recorder: SpanRecorder | None = None
        self.latency: dict[str, list[float]] = {}

    def call(self, kind: str, method: str, path: str, payload: Any = None) -> tuple[int, Any]:
        body = None if payload is None else json.dumps(payload).encode()
        request = urllib.request.Request(
            self.url + path, data=body, method=method,
            headers={"Content-Type": "application/json"} if body else {},
        )
        start = time.perf_counter()
        if self.recorder is not None:
            with self.recorder.span(f"service.{kind}"):
                status, data = self._send(request)
        else:
            status, data = self._send(request)
        self.latency.setdefault(kind, []).append(time.perf_counter() - start)
        return status, data

    @staticmethod
    def _send(request: urllib.request.Request) -> tuple[int, Any]:
        try:
            with urllib.request.urlopen(request, timeout=JOB_TIMEOUT_S) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as error:
            return error.code, {"error": error.read().decode(errors="replace")}
        except (urllib.error.URLError, OSError) as error:
            return 0, {"error": str(error)}


def _job(api: Api, spec: dict[str, Any]) -> dict[str, Any]:
    """Submit, poll until terminal, fetch records; returns the op record."""
    status, body = api.call("submit", "POST", "/api/v1/jobs",
                            {"spec": spec, "options": {"jobs": 1, "cache": True}})
    if status not in (200, 202):
        return {"error": f"submit HTTP {status}: {body.get('error')}", "polls": 0}
    job, deduplicated = body["job"], body["deduplicated"]
    deadline = time.perf_counter() + JOB_TIMEOUT_S
    polls = 0
    while job["state"] not in ("done", "failed"):
        if time.perf_counter() > deadline:
            return {"error": "job timed out", "polls": polls}
        time.sleep(POLL_S)
        status, job = api.call("status", "GET", f"/api/v1/jobs/{job['job_id']}")
        polls += 1
        if status != 200:
            return {"error": f"status HTTP {status}", "polls": polls}
    if job["state"] != "done":
        return {"error": f"job failed: {job.get('error')}", "polls": polls}
    status, body = api.call("records", "GET", f"/api/v1/jobs/{job['job_id']}/records")
    if status != 200:
        return {"error": f"records HTTP {status}", "polls": polls}
    return {"error": None, "polls": polls, "job": job, "deduplicated": deduplicated,
            "records_list": body["records"]}


def _read_runs(api: Api) -> str | None:
    """One warehouse read; ``None`` when it lists exactly the warm-up's run."""
    status, body = api.call("runs", "GET", f"/api/v1/runs?scenario={READ_SCENARIO}")
    if status != 200:
        return f"runs HTTP {status}"
    if body["count"] != 1 or [run["scenario"] for run in body["runs"]] != [READ_SCENARIO]:
        return f"warehouse listed {body['count']} {READ_SCENARIO} runs, expected 1"
    return None


def run_op(api: Api, op: dict[str, Any], done: dict[int, dict[str, Any]]) -> dict[str, Any]:
    """Run and check one op of the sequence; ``done`` maps op index -> job ops."""
    start = time.perf_counter()
    if op["kind"] == "runs":
        error = _read_runs(api)
        return {"kind": "runs", "wall": time.perf_counter() - start, "records": 0,
                "error": error}

    result = _job(api, op["spec"])
    wall = time.perf_counter() - start
    record = {"kind": op["kind"], "index": op["index"], "wall": wall, "records": 0,
              "polls": result["polls"], "error": result["error"], "spec": op["spec"]}
    if record["error"] is None:
        job, records = result["job"], result.pop("records_list")
        record.update(job_id=job["job_id"], digest=digest(records),
                      deduplicated=result["deduplicated"],
                      queue_wait=job["started_s"] - job["submitted_s"],
                      run=job["finished_s"] - job["started_s"])
        if len(records) != num_trials(op["spec"]):
            record["error"] = f"{len(records)} records, expected {num_trials(op['spec'])}"
        elif op["kind"] == "dedup":
            original = done.get(op["of"])
            if not result["deduplicated"] or original is None \
                    or original.get("job_id") != job["job_id"] \
                    or original.get("digest") != record["digest"]:
                record["error"] = "resubmission did not return the original job's records"
        elif result["deduplicated"]:
            record["error"] = "a new spec was deduplicated"
        if record["error"] is None:
            record["records"] = len(records)
    done[op["index"]] = record
    return record


def _proc_status(pid: int) -> dict[str, float]:
    """VmHWM / VmRSS (MB) and CPU seconds of a live process, from /proc."""
    status = Path(f"/proc/{pid}/status").read_text()
    memory = {key: int(value.split()[0]) / 1024.0
              for key, value in re.findall(r"(VmHWM|VmRSS):\s+(.+)", status)}
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    memory["cpu_s"] = (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")
    return memory


class Daemon:
    """One ``repro serve`` process with its own data and cache directories."""

    def __init__(self, ctx: Context, name: str, spans: Path | None = None) -> None:
        self.ctx = ctx
        self.dir = ctx.workdir / name
        self.dir.mkdir(parents=True)
        args = ["serve", "--port", "0", "--data-dir", str(self.dir / "data"),
                "--cache-dir", str(self.dir / "cache")]
        argv = ([python(), str(CHILD), "serve", str(spans), "--", *args] if spans
                else [python(), "-m", "repro", *args])
        log = self.dir / "stdout.txt"
        with open(log, "w") as out, open(self.dir / "stderr.txt", "w") as err:
            self.proc = ctx.spawn(argv, stdout=out, stderr=err)
        deadline = time.perf_counter() + START_TIMEOUT_S
        match = None
        while match is None:
            if time.perf_counter() > deadline or self.proc.poll() is not None:
                raise RuntimeError(f"daemon did not start: {(self.dir / 'stderr.txt').read_text()[-400:]}")
            time.sleep(0.005)
            match = _LISTENING.search(log.read_text())
        self.api = Api(match.group(1))
        while self.api.call("health", "GET", "/api/v1/health")[0] != 200:
            if time.perf_counter() > deadline:
                raise RuntimeError("daemon /health never answered")
            time.sleep(0.005)

    def defaults(self) -> dict[str, dict[str, Any]]:
        status, body = self.api.call("scenarios", "GET", "/api/v1/scenarios")
        if status != 200:
            raise RuntimeError(f"GET /api/v1/scenarios: HTTP {status}")
        return {entry["name"]: entry["spec"] for entry in body["scenarios"]}

    def warm_up(self, seed: int, defaults: dict[str, dict[str, Any]]) -> None:
        """One job per mix scenario, so lazy set-up is not timed in the ops,
        and the one job the warehouse reads list, waited for until ingested."""
        for offset, name in enumerate((*SERVICE_SCENARIOS, READ_SCENARIO)):
            spec = with_seed(defaults[name], 2**31 + seed * 16 + offset, 1)
            result = _job(self.api, spec)
            if result["error"] is not None:
                raise RuntimeError(f"warm-up job failed: {result['error']}")
        deadline = time.perf_counter() + JOB_TIMEOUT_S
        while _read_runs(self.api) is not None:
            if time.perf_counter() > deadline:
                raise RuntimeError("the warm-up run never reached the warehouse")
            time.sleep(0.005)

    def stop(self) -> None:
        self.ctx.stop(self.proc)


def _phase(ctx: Context, daemon: Daemon, defaults: dict[str, dict[str, Any]],
           sentinel: Sentinel, recorder: SpanRecorder | None
           ) -> tuple[list[dict[str, Any]], dict[str, float]]:
    """The measured ops, and the daemon's /proc status after :data:`RSS_AT_OPS` of them.

    The first :data:`WARM_OPS` ops of the sequence run untimed before them.
    """
    api = daemon.api
    done: dict[int, dict[str, Any]] = {}
    sequence: Iterator[dict[str, Any]] = service_ops(ctx.seed, defaults)
    for _ in range(WARM_OPS):
        error = run_op(api, next(sequence), done)["error"]
        if error is not None:
            raise RuntimeError(f"warm-up op failed: {error}")
    api.recorder = recorder
    api.latency.clear()
    ops: list[dict[str, Any]] = []
    at_count: dict[str, float] = {}
    started = time.perf_counter()
    while len(ops) < RSS_AT_OPS or keep_going(started, 0.0, ctx.seconds):
        ref = sentinel.tick()
        op = next(sequence)
        if recorder is None:
            ops.append(run_op(api, op, done))
        else:
            with recorder.span("op"):
                ops.append(run_op(api, op, done))
        ops[-1]["ref"] = ref
        if len(ops) == RSS_AT_OPS:
            at_count = _proc_status(daemon.proc.pid)
    sentinel.close()
    api.recorder = None
    return ops, at_count


def _jobs_created(ops: list[dict[str, Any]]) -> int:
    """Ops that made the daemon keep a new job (fresh and overlap submissions)."""
    return sum(op["kind"] in ("fresh", "overlap") for op in ops)


def _verify(ctx: Context, ops: list[dict[str, Any]], tag: str) -> None:
    """Each job's records must equal an in-process ``run_sweep`` of its spec."""
    jobs = [op for op in ops if op["kind"] in ("fresh", "overlap") and op["error"] is None]
    specs_path = ctx.workdir / f"reference-{tag}-specs.json"
    digests_path = ctx.workdir / f"reference-{tag}-digests.json"
    specs_path.write_text(json.dumps([op["spec"] for op in jobs]))
    done = ctx.run([python(), str(CHILD), "reference", str(specs_path), str(digests_path)],
                   timeout=120.0)
    if done.code != 0:
        raise RuntimeError(f"reference run exited {done.code}")
    for op, expected in zip(jobs, json.loads(digests_path.read_text())):
        if op["digest"] != expected:
            op["error"] = "records differ from an in-process run_sweep of the spec"
            op["records"] = 0


def _start(ctx: Context, index: int) -> tuple[Daemon, dict[str, dict[str, Any]], float]:
    """One timed set-up: spawn until /health answers and the warm-up is done."""
    start = time.perf_counter()
    daemon = Daemon(ctx, f"daemon-{index}")
    defaults = daemon.defaults()
    daemon.warm_up(ctx.seed, defaults)
    return daemon, defaults, time.perf_counter() - start


def run(ctx: Context, sentinel: Sentinel) -> Outcome:
    setup: list[float] = []
    for index in range(SETUPS_BEFORE):
        daemon, defaults, seconds = _start(ctx, index)
        setup.append(seconds)
        if index < SETUPS_BEFORE - 1:
            daemon.stop()

    before = _proc_status(daemon.proc.pid)
    started = time.perf_counter()
    ops, at_count = _phase(ctx, daemon, defaults, sentinel, None)
    wall = time.perf_counter() - started
    after = _proc_status(daemon.proc.pid)
    latency = {kind: median(values) for kind, values in daemon.api.latency.items()}
    daemon.stop()
    for index in range(SETUPS_BEFORE, SETUPS_BEFORE + SETUPS_AFTER):
        extra, _, seconds = _start(ctx, index)
        setup.append(seconds)
        extra.stop()
    _verify(ctx, ops, "plain")

    jobs = [op for op in ops if op["kind"] != "runs" and op["error"] is None]
    executed = [op for op in jobs if not op["deduplicated"]]
    p90 = percentile([op["wall"] for op in ops], 0.9)
    outcome = Outcome(
        setup=setup,
        ops=ops,
        peak_rss_mb=at_count["VmHWM"],
        cpu_per_wall=(after["cpu_s"] - before["cpu_s"]) / wall,
    )
    if not ctx.trace:
        return outcome

    outcome.layers = {
        "service.submit_s": latency.get("submit", 0.0),
        "service.status_s": latency.get("status", 0.0),
        "service.records_s": latency.get("records", 0.0),
        "service.runs_s": latency.get("runs", 0.0),
        "service.queue_wait_s": median([op["queue_wait"] for op in executed]),
        "service.run_s": median([op["run"] for op in executed]),
        "service.polls_per_job": sum(op["polls"] for op in jobs) / len(jobs),
        "service.dedup_ratio": sum(op["deduplicated"] for op in jobs) / len(jobs),
        "service.daemon_rss_mb": after["VmRSS"],
        # what each kept job adds, from op RSS_AT_OPS to the end of the run
        "service.rss_kb_per_job": 1024.0 * (after["VmRSS"] - at_count["VmRSS"])
        / max(1, _jobs_created(ops) - _jobs_created(ops[:RSS_AT_OPS])),
    }
    if p90 is not None:  # fewer than 100 ops leave it unreported
        outcome.layers["service.op_p90_s"] = p90
    spans_path = ctx.workdir / "daemon-traced-spans.json"
    traced = Daemon(ctx, "daemon-traced", spans=spans_path)
    try:
        traced.warm_up(ctx.seed, defaults)
        recorder = SpanRecorder()
        outcome.traced_ops, _ = _phase(ctx, traced, defaults, sentinel, recorder)
    finally:
        traced.stop()
    _verify(ctx, outcome.traced_ops, "traced")
    placed = analysis.place(recorder.spans)
    placed += analysis.place(json.loads(spans_path.read_text())["spans"], offset=1)
    outcome.layers.update(analysis.layer_metrics(placed, len(outcome.traced_ops)))
    outcome.report = analysis.breakdown_lines(placed, len(outcome.traced_ops))
    return outcome

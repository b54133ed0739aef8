"""``cli-sweep``: every op is a fresh ``python -m repro sweep <scenario>`` process.

A cycle visits every registered scenario (in a seeded order) twice: once
against the cycle's empty cache, then as a 100%-hit resume of the same
spec.  An op runs from spawn until the process has exited, which is after
its artifacts are on disk.  Whole cycles only, so every run weighs each
scenario and each pass equally.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any

from harness import analysis
from harness.checks import check_records, parse_jsonl, parse_scenarios
from harness.host import CHILD, Context, Outcome, Sentinel, cpu_seconds, keep_going, python
from harness.inputs import base_seeds, rotation
from harness.spans import ROOT
from harness.stats import median

#: ``repro scenarios`` set-ups before the measured ops.
SETUPS_BEFORE = 3
#: One more set-up after every this many measured ops, so the set-up samples
#: span the run as the ops do: with 3 samples before and 2 after the ops,
#: setup_s spread 32% over 10 seeds while op_p50_s spread 18%.
SETUP_EVERY = 4
OP_TIMEOUT_S = 120.0


def _setup(ctx: Context, samples: list[float],
           trials: dict[str, int] | None = None) -> dict[str, int]:
    """One set-up sample, a ``repro scenarios`` process, appended to ``samples``.

    Returns the listing (scenario -> default trial count), which must equal
    ``trials`` when given.  In a fresh checkout the first sample also writes
    the bytecode caches; the median of the samples leaves that one out.
    """
    path = ctx.workdir / f"scenarios-{len(samples)}.txt"
    with open(path, "w") as out:
        done = ctx.run([python(), "-m", "repro", "scenarios"], stdout=out)
    if done.code != 0:
        raise RuntimeError(f"'repro scenarios' exited {done.code}")
    listed = parse_scenarios(path.read_text())
    if trials is not None and listed != trials:
        raise RuntimeError("'repro scenarios' listed different scenarios across runs")
    samples.append(done.wall)
    return listed


def _check(op: dict[str, Any], out: Path, trials: int, miss_bytes: bytes | None) -> str | None:
    if op["code"] != 0:
        return f"exit code {op['code']}"
    try:
        data = (out / "results.jsonl").read_bytes()
        stats = json.loads((out / "manifest.json").read_text())["stats"]
    except (OSError, ValueError, KeyError) as error:
        return f"artifacts unreadable: {error}"
    error = check_records(parse_jsonl(data), trials)
    if error is not None:
        return error
    if miss_bytes is None:
        return None if stats.get("executed") == trials else "miss pass hit the cache"
    if stats.get("cache_hits") != trials:
        return "resume was not 100% cache hits"
    return None if data == miss_bytes else "resume results.jsonl differs from the miss pass"


def _cycle(ctx: Context, number: int, trials: dict[str, int], sentinel: Sentinel,
           traced: bool, setup: list[float] | None
           ) -> tuple[list[dict[str, Any]], list[tuple[dict, int]]]:
    """One cycle of ops; with ``traced``, also the spans placed for attribution.

    With ``setup``, a set-up sample is taken after every :data:`SETUP_EVERY` ops.
    """
    names = rotation(ctx.seed, list(trials))
    seeds = base_seeds(ctx.seed, names)
    cycle_dir = ctx.workdir / f"cycle-{number}"
    ops: list[dict[str, Any]] = []
    placed: list[tuple[dict, int]] = []
    for name in names:
        miss_bytes = None
        for kind in ("miss", "hit"):
            ref = sentinel.tick()
            out = cycle_dir / kind / name
            args = ["sweep", name, "--seed", str(seeds[name]),
                    "--cache-dir", str(cycle_dir / "cache"), "--output", str(out)]
            spans_path = cycle_dir / f"spans-{kind}-{name}.json"
            if traced:
                argv = [python(), str(CHILD), "cli", str(spans_path), "--", *args]
            else:
                argv = [python(), "-m", "repro", *args]
            done = ctx.run(argv, timeout=OP_TIMEOUT_S)
            op = {"kind": kind, "scenario": name, "wall": done.wall, "code": done.code,
                  "rss_kb": done.rss_kb, "ref": ref}
            op["error"] = _check(op, out, trials[name], miss_bytes)
            op["records"] = trials[name] if op["error"] is None else 0
            if kind == "miss" and op["error"] is None:
                miss_bytes = (out / "results.jsonl").read_bytes()
            ops.append(op)
            if setup is not None and len(ops) % SETUP_EVERY == 0:
                _setup(ctx, setup, trials)
            if traced and spans_path.exists():
                child = json.loads(spans_path.read_text())
                op_id = f"op-{number}-{kind}-{name}"
                placed.append(({"name": ROOT, "id": op_id, "parent": None,
                                "start": done.start, "end": done.end, "attrs": {}}, 0))
                # interpreter start-up before the script ran, and tear-down after
                placed.append(({"name": "cli.startup", "id": op_id + "-startup",
                                "parent": op_id, "start": done.start,
                                "end": child["start"], "attrs": {}}, 1))
                placed.append(({"name": "cli.exit", "id": op_id + "-exit",
                                "parent": op_id, "start": child["end"],
                                "end": done.end, "attrs": {}}, 1))
                placed.extend(analysis.place(child["spans"], offset=1))
    return ops, placed


def _phase(ctx: Context, trials: dict[str, int], sentinel: Sentinel, traced: bool,
           first_cycle: int, setup: list[float] | None = None
           ) -> tuple[list[dict[str, Any]], list[tuple[dict, int]], float]:
    ops: list[dict[str, Any]] = []
    placed: list[tuple[dict, int]] = []
    started = time.perf_counter()
    cpu = cpu_seconds()
    number, last = first_cycle, 0.0
    while not ops or keep_going(started, last, ctx.seconds):
        begin = time.perf_counter()
        cycle_ops, cycle_placed = _cycle(ctx, number, trials, sentinel, traced, setup)
        ops += cycle_ops
        placed += cycle_placed
        last = time.perf_counter() - begin
        number += 1
    sentinel.close()
    cpu_per_wall = (cpu_seconds() - cpu) / (time.perf_counter() - started)
    return ops, placed, cpu_per_wall


def run(ctx: Context, sentinel: Sentinel) -> Outcome:
    setup: list[float] = []
    trials = _setup(ctx, setup)
    for _ in range(SETUPS_BEFORE - 1):
        _setup(ctx, setup, trials)
    ops, _, cpu_per_wall = _phase(ctx, trials, sentinel, traced=False, first_cycle=0,
                                  setup=setup)
    outcome = Outcome(
        setup=setup,
        ops=ops,
        peak_rss_mb=max(op["rss_kb"] for op in ops) / 1024.0,
        cpu_per_wall=cpu_per_wall,
    )
    if ctx.trace:
        traced_ops, placed, _ = _phase(ctx, trials, sentinel, traced=True,
                                       first_cycle=len(ops) // (2 * len(trials)))
        outcome.traced_ops = traced_ops
        outcome.layers = analysis.layer_metrics(placed, len(traced_ops))
        for kind in ("miss", "hit"):
            outcome.layers[f"cli.{kind}_op_p50_s"] = median(
                [op["wall"] for op in ops if op["kind"] == kind]
            )
        outcome.report = analysis.breakdown_lines(placed, len(traced_ops))
    return outcome

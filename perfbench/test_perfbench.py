"""Tests of the benchmark's own arithmetic and checks.

    python -m pytest perfbench -q

They need neither the program nor a run: each builds small inputs by hand.
"""

from __future__ import annotations

import dataclasses
import json
import re
import statistics
import sys
import types
from pathlib import Path

import pytest

import run
from harness import analysis, checks, cli_sweep, inputs, service_mix
from harness.host import Outcome, Sentinel, import_seconds
from harness.spans import ROOT, UNATTRIBUTED, SpanRecorder, attribute, depths
from harness.stats import percentile, samples_beyond, spread

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


# --------------------------------------------------------------------------- #
# percentile rule
# --------------------------------------------------------------------------- #
def test_p90_needs_ten_samples_beyond_it():
    assert samples_beyond(100, 0.9) == 10
    assert samples_beyond(99, 0.9) == 9
    assert percentile(list(range(99)), 0.9) is None
    assert percentile(list(range(100)), 0.9) == pytest.approx(89.1)


def test_median_needs_twenty_samples_as_a_percentile():
    assert percentile(list(range(19)), 0.5) is None
    assert percentile(list(range(20)), 0.5) == pytest.approx(9.5)


def test_spread_is_interquartile_range_over_median():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert spread(values) == pytest.approx((q3 - q1) / q2)


# --------------------------------------------------------------------------- #
# op times in reference-process times
# --------------------------------------------------------------------------- #
def _metrics(scale: float) -> dict[str, float]:
    """End-to-end metrics of two ops on a host ``scale`` times slower."""
    sentinel = Sentinel(ctx=None)
    sentinel.samples = [0.2 * scale, 0.4 * scale, 0.1 * scale]
    ops = [{"wall": 3.0 * scale, "records": 6, "ref": 0},
           {"wall": 1.0 * scale, "records": 2, "ref": 1}]
    outcome = Outcome(setup=[1.0, 2.0, 9.0], ops=ops, peak_rss_mb=100.0, cpu_per_wall=1.0)
    return run.end_to_end(outcome, sentinel)


def test_an_op_counts_in_the_mean_of_the_samples_around_it():
    metrics = _metrics(1.0)
    # op 0 lies between samples 0.2 and 0.4 (3.0 / 0.3), op 1 between 0.4 and 0.1 (1.0 / 0.25)
    assert metrics["op_p50_ref"] == pytest.approx((10.0 + 4.0) / 2)
    assert metrics["trials_per_ref"] == pytest.approx(8 / 14.0)
    assert metrics["setup_s"] == 2.0 and metrics["peak_rss_mb"] == 100.0


def test_a_uniformly_slower_host_leaves_the_relative_metrics_alone():
    fast, slow = _metrics(1.0), _metrics(1.4)
    for name in ("op_p50_ref", "trials_per_ref"):
        assert slow[name] == pytest.approx(fast[name])


# --------------------------------------------------------------------------- #
# self time and the unattributed row
# --------------------------------------------------------------------------- #
def _span(name, span_id, parent, start, end, **attrs):
    return {"name": name, "id": span_id, "parent": parent, "start": start,
            "end": end, "attrs": attrs}


def test_self_time_is_duration_minus_children():
    spans = [
        _span(ROOT, "op", None, 0.0, 10.0),
        _span("a", "a", "op", 1.0, 6.0),
        _span("b", "b", "a", 2.0, 4.0),
        _span("c", "c", "op", 7.0, 9.0),
    ]
    totals = attribute(analysis.place(spans))
    assert totals == pytest.approx({"a": 3.0, "b": 2.0, "c": 2.0, UNATTRIBUTED: 3.0})
    assert sum(totals.values()) == pytest.approx(10.0)


def test_time_outside_ops_is_not_counted():
    ops = [_span(ROOT, "op1", None, 0.0, 2.0), _span(ROOT, "op2", None, 5.0, 6.0)]
    daemon = [_span("a", "a", None, 1.0, 5.5)]  # another process, across both ops
    totals = attribute(analysis.place(ops) + analysis.place(daemon, offset=1))
    assert totals == pytest.approx({"a": 1.5, UNATTRIBUTED: 1.5})


def test_overlapping_processes_still_add_up_to_op_time():
    client = [_span(ROOT, "op", None, 0.0, 10.0), _span("poll", "p", "op", 2.0, 8.0)]
    daemon = [_span("run", "r", None, 1.0, 9.0), _span("engine", "e", "r", 3.0, 5.0)]
    placed = analysis.place(client) + analysis.place(daemon, offset=1)
    assert [depth for _, depth in placed] == [0, 1, 1, 2]
    totals = attribute(placed)
    # the poll started later than the daemon's run, so it owns 2..3 and 5..8
    assert totals == pytest.approx({"run": 2.0, "poll": 4.0, "engine": 2.0,
                                    UNATTRIBUTED: 2.0})
    assert sum(totals.values()) == pytest.approx(10.0)


def test_depths_follow_parents_with_offset():
    spans = [_span("x", "1", None, 0, 1), _span("y", "2", "1", 0, 1),
             _span("z", "3", "2", 0, 1)]
    assert depths(spans, offset=2) == [2, 3, 4]


def test_layer_metrics_per_op_and_shares():
    spans = [
        _span(ROOT, "op1", None, 0.0, 4.0),
        _span("runner.run_sweep", "s1", "op1", 0.0, 4.0, scenario="x", executed=2),
        _span("runner.trial", "t1", "s1", 0.0, 2.0),
        _span("core.ipcore", "e1", "t1", 0.5, 1.5, rows=3),
        _span("runner.trial", "t2", "s1", 2.0, 4.0),
        _span("core.ipcore", "e2", "t2", 2.5, 3.5, rows=1),
    ]
    spans += [  # a resume: read from the cache, so not a sweep_s sample
        _span(ROOT, "op2", None, 5.0, 6.0),
        _span("runner.run_sweep", "s2", "op2", 5.0, 6.0, scenario="x", executed=0,
              cache_hits=2),
    ]
    warm_up = [_span("core.ipcore", "w", None, -2.0, -1.0, rows=7)]  # before the ops
    metrics = analysis.layer_metrics(analysis.place(spans) + analysis.place(warm_up), ops=2)
    assert metrics["core.ipcore.s"] == pytest.approx(1.0)
    assert metrics["core.ipcore.calls"] == 1
    assert metrics["core.ipcore.rows_per_call"] == 2
    assert metrics["runner.trial_self_s"] == pytest.approx(1.0)
    assert metrics["runner.self_s"] == pytest.approx(0.5)
    assert metrics["runner.trials_per_call"] == 1
    assert metrics["runner.sweep_s.x"] == pytest.approx(4.0)
    assert metrics["trace.engine_share"] == pytest.approx(0.4)
    assert metrics["trace.unattributed_share"] == 0


# --------------------------------------------------------------------------- #
# wrappers are undone exactly
# --------------------------------------------------------------------------- #
@pytest.fixture
def fake_modules():
    home = types.ModuleType("repro._perfbench_home")
    alias = types.ModuleType("repro._perfbench_alias")

    def work(x):
        return x + 1

    home.work = work
    alias.work = work
    sys.modules[home.__name__] = home
    sys.modules[alias.__name__] = alias
    try:
        yield home, alias, work
    finally:
        del sys.modules[home.__name__], sys.modules[alias.__name__]


def test_function_wrapper_patches_aliases_and_restores(fake_modules):
    home, alias, work = fake_modules
    recorder = SpanRecorder()
    recorder.wrap(home, "work", "layer.work")
    assert home.work is not work and alias.work is home.work
    with recorder.span(ROOT):
        assert alias.work(1) == 2
    recorder.restore()
    assert home.work is work and alias.work is work
    inner, outer = recorder.spans
    assert inner["name"] == "layer.work" and inner["parent"] == outer["id"]


def test_method_and_instance_wrappers_restore():
    class Base:
        def run(self):
            return "base"

    class Child(Base):
        def go(self):
            return "go"

    @dataclasses.dataclass(frozen=True)
    class Frozen:
        fn: object

    original_go = Child.__dict__["go"]
    frozen = Frozen(fn=len)
    recorder = SpanRecorder()
    recorder.wrap(Child, "go", "go")
    recorder.wrap(Child, "run", "inherited")
    recorder.wrap(frozen, "fn", "field", lambda args, kwargs, result: {"n": result})
    assert Child().go() == "go" and Child().run() == "base" and frozen.fn("abc") == 3
    recorder.restore()
    assert Child.__dict__["go"] is original_go
    assert "run" not in Child.__dict__ and Child().run() == "base"
    assert frozen.fn is len
    assert [span["name"] for span in recorder.spans] == ["go", "inherited", "field"]
    assert recorder.spans[-1]["attrs"] == {"n": 3}


# --------------------------------------------------------------------------- #
# a tampered record fails its op
# --------------------------------------------------------------------------- #
RECORDS = [{"trial_index": 0, "value": 0.25}, {"trial_index": 1, "value": 0.5}]


def test_check_records_catches_tampering_and_short_output():
    reference = checks.digest(RECORDS)
    assert checks.check_records(RECORDS, 2, reference) is None
    tampered = [RECORDS[0], {**RECORDS[1], "value": 0.5000001}]
    assert checks.check_records(tampered, 2, reference) is not None
    assert checks.check_records(RECORDS[:1], 2) is not None


def test_digest_ignores_key_order_only():
    assert checks.digest([{"a": 1, "b": 2}]) == checks.digest([{"b": 2, "a": 1}])
    assert checks.digest([{"a": 1}]) != checks.digest([{"a": 1.0000001}])


def test_cli_resume_with_a_tampered_record_fails(tmp_path):
    trials = len(RECORDS)
    miss = "".join(json.dumps(record) + "\n" for record in RECORDS).encode()
    tampered = miss.replace(b"0.5", b"0.6")
    (tmp_path / "results.jsonl").write_bytes(tampered)
    (tmp_path / "manifest.json").write_text(json.dumps({"stats": {"cache_hits": trials}}))
    op = {"code": 0}
    assert cli_sweep._check(op, tmp_path, trials, miss) is not None
    (tmp_path / "results.jsonl").write_bytes(miss)
    assert cli_sweep._check(op, tmp_path, trials, miss) is None


class _StubApi:
    """Answers like the service, returning ``records`` for every job."""

    def __init__(self, records):
        self.records = records

    def call(self, kind, method, path, payload=None):
        job = {"job_id": "job-1", "state": "done", "submitted_s": 0.0,
               "started_s": 0.0, "finished_s": 0.0}
        if kind == "submit":
            return 200, {"job": job, "deduplicated": True}
        return 200, {"records": self.records}


def test_service_dedup_with_a_tampered_record_fails():
    spec = {"grid": {"x": [1, 2]}, "zipped": {}, "seed": {"replicates": 1}}
    done = {0: {"job_id": "job-1", "digest": checks.digest(RECORDS)}}
    op = {"kind": "dedup", "index": 5, "of": 0, "spec": spec}
    assert service_mix.run_op(_StubApi(RECORDS), op, done)["error"] is None
    tampered = [RECORDS[0], {**RECORDS[1], "value": 0.75}]
    result = service_mix.run_op(_StubApi(tampered), op, done)
    assert result["error"] is not None and result["records"] == 0


# --------------------------------------------------------------------------- #
# inputs and parsers
# --------------------------------------------------------------------------- #
def _defaults():
    return {name: {"scenario": name, "grid": {"x": [1, 2, 3]}, "zipped": {},
                   "base": {}, "seed": {"base_seed": 0, "replicates": 2, "vary_with": []}}
            for name in inputs.SERVICE_SCENARIOS}


def _take(seed, count):
    sequence = inputs.service_ops(seed, _defaults())
    return [next(sequence) for _ in range(count)]


def test_service_ops_are_seeded_and_same_mix_for_every_seed():
    assert _take(3, 48) == _take(3, 48)
    assert _take(3, 48) != _take(4, 48)
    kinds = [[op["kind"] for op in _take(seed, 48)] for seed in (3, 4)]
    assert kinds[0] == kinds[1]
    assert kinds[0].count("runs") == 12 and kinds[0][3::4] == ["runs"] * 12


def test_overlap_adds_one_replicate_and_dedup_repeats_a_fresh_spec():
    ops = _take(7, 48)
    fresh = {op["index"]: op["spec"] for op in ops if op["kind"] == "fresh"}
    for op in ops:
        if op["kind"] == "overlap":
            matches = [spec for spec in fresh.values()
                       if spec["seed"]["base_seed"] == op["spec"]["seed"]["base_seed"]]
            assert matches[0]["seed"]["replicates"] + 1 == op["spec"]["seed"]["replicates"]
        if op["kind"] == "dedup":
            assert op["spec"] == fresh[op["of"]]


def test_num_trials_counts_grid_zipped_and_replicates():
    spec = {"grid": {"a": [1, 2], "b": [1, 2, 3]}, "zipped": {"p": [1, 2, 3, 4, 5]},
            "seed": {"replicates": 2}}
    assert inputs.num_trials(spec) == 60


def test_import_seconds_sums_top_level_repro_entries():
    stderr = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:       100 |        100 |   site\n"
        "import time:        50 |         50 |     numpy\n"
        "import time:       200 |        250 |   repro\n"
        "import time:       300 |       1000 |   repro.cli\n"
    )
    assert import_seconds(stderr) == pytest.approx(0.00125)


def test_parse_scenarios_reads_names_and_trials():
    listing = ("Sweepable experiment scenarios\n"
               "Scenario | Layers | Trials | Axes\n"
               "---------+--------+--------+-----\n"
               "alpha    | core   | 72     | w[6]\n"
               "beta     | net    | 5      | p[5]\n")
    assert checks.parse_scenarios(listing) == {"alpha": 72, "beta": 5}


# --------------------------------------------------------------------------- #
# BENCHMARK.json stays within its contract
# --------------------------------------------------------------------------- #
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_shape():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in BENCHMARK[key]]
    assert len(names) == len(set(names)) and all(NAME.match(name) for name in names)
    assert 2 <= len(BENCHMARK["workloads"]) <= 8
    assert all(len(entry["why"]) <= 200 for entry in BENCHMARK["workloads"])
    for entry in BENCHMARK["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25 and UNIT.match(entry["unit"])
    setup = next(e for e in BENCHMARK["end_to_end"] if e["name"] == "setup_s")
    assert setup["bound"] == max(e["bound"] for e in BENCHMARK["end_to_end"])
    for entry in BENCHMARK["per_layer"]:
        assert set(entry) == {"name", "unit", "better"} and UNIT.match(entry["unit"])


def test_plan_maps_every_workload_and_per_layer_metric():
    plan = json.loads((Path(__file__).resolve().parent / "plan.json").read_text())
    assert {entry["name"] for entry in BENCHMARK["workloads"]} <= set(plan["workloads"])
    assert list(plan["per_layer"]) == [entry["name"] for entry in BENCHMARK["per_layer"]]
    assert set(plan["end_to_end"]) - {"not_included"} == {
        entry["name"] for entry in BENCHMARK["end_to_end"]}

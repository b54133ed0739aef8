"""``kill -9`` crash safety for adaptive sweeps and their segmented store.

Extends the fixed-count crash contract (``test_crash_safety.py``) to the
sequential-stopping path: SIGKILL an adaptive sweep mid-wave, and

* every segment file on disk is complete, valid JSONL sorted by
  ``trial_index`` (atomic segment writes mean the kill can only lose the
  in-flight temp file, never leave a torn segment);
* a resumed adaptive run over the same output directory and cache completes,
  re-using the killed run's cached trials and *appending* new segments (the
  sequence numbering continues — nothing is overwritten);
* the merged results are byte-identical to an uninterrupted adaptive run of
  the same spec and stopping rule.

SIGKILL runs no ``finally`` blocks — the final-flush path in
``run_adaptive_sweep`` never executes, so everything the test finds on disk
was placed there by the per-wave atomic flushes alone.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.experiments import (
    ResultCache,
    Scenario,
    SegmentedResultStore,
    get_scenario,
    register,
    run_adaptive_sweep,
)
from repro.experiments.adaptive import AdaptiveConfig
from repro.experiments.segments import segment_files
from repro.experiments.spec import SweepSpec

SRC = str(Path(__file__).resolve().parents[2] / "src")

SCENARIO = "adaptive-crash-test"
NUM_POINTS = 4
#: A rule no point can satisfy before the ceiling, so the child keeps
#: sampling waves until killed: ~0.01 half-width needs far more than 24
#: trials of evidence.
CONFIG = AdaptiveConfig(
    metric="success", ci_width=0.01, max_trials=24, min_trials=4, wave_trials=4
)

#: The same never-converging rule on a continuous metric of the two
#: batch-native scenarios (each wave reaches them as one ``run_batch`` call).
BATCHED_CONFIG = AdaptiveConfig(
    metric="normalized_error", ci_width=1e-9, max_trials=24, min_trials=4, wave_trials=4
)

CHILD_SCRIPT = f"""
import dataclasses, json, sys, time
sys.path.insert(0, {SRC!r})
from repro.experiments import (
    Scenario, get_scenario, register, ResultCache, SegmentedResultStore,
    run_adaptive_sweep,
)
from repro.experiments.adaptive import AdaptiveConfig
from repro.experiments.spec import SweepSpec

def run_trial(params, seed):
    time.sleep(0.03)
    return {{"success": float(seed % 2)}}

register(Scenario(
    name={SCENARIO!r}, description="adaptive crash-safety probe",
    layers=("test",), version="1", run_trial=run_trial,
    default_spec=SweepSpec(scenario={SCENARIO!r},
                           grid={{"x": tuple(range({NUM_POINTS}))}}),
))
spec = SweepSpec.from_json(sys.argv[3])
scenario = get_scenario(spec.scenario)
if scenario.run_batch is not None:
    def slow_batch(points, run_batch=scenario.run_batch):
        time.sleep(0.1)
        return run_batch(points)
    # same name and version, so the cache keys are the real scenario's
    register(dataclasses.replace(scenario, run_batch=slow_batch))
run_adaptive_sweep(
    spec, AdaptiveConfig.from_dict(json.loads(sys.argv[4])),
    cache=ResultCache(sys.argv[1]),
    store=SegmentedResultStore(sys.argv[2], flush_trials=4),
)
"""


def _register_parent_side() -> SweepSpec:
    """The same scenario (same name/version) in this process, for the resume."""

    def run_trial(params, seed):
        return {"success": float(seed % 2)}

    scenario = register(Scenario(
        name=SCENARIO, description="adaptive crash-safety probe",
        layers=("test",), version="1", run_trial=run_trial,
        default_spec=SweepSpec(scenario=SCENARIO,
                               grid={"x": tuple(range(NUM_POINTS))}),
    ))
    return scenario.spec


def _case(name: str) -> tuple[SweepSpec, AdaptiveConfig]:
    """A NUM_POINTS-point sweep of scenario ``name`` and its stopping rule."""
    if name == SCENARIO:
        return _register_parent_side(), CONFIG
    spec = get_scenario(name).spec
    if name == "fixedpoint-bitwidth":
        spec = spec.with_axis("word_length", (4, 6, 8, 12))
    else:
        spec = spec.with_axis("num_fc_blocks", (1, 14)).with_axis("word_length", (8, 12))
    return spec, BATCHED_CONFIG


def _run_child_until_killed(
    cache_dir: Path, store_dir: Path, spec: SweepSpec, config: AdaptiveConfig
) -> None:
    """Start the child sweep, SIGKILL it once >= 2 segments hit disk."""
    child = subprocess.Popen(
        [sys.executable, "-c", CHILD_SCRIPT, str(cache_dir), str(store_dir),
         spec.to_json(), json.dumps(config.to_dict())],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if len(segment_files(store_dir)) >= 2:
                break
            if child.poll() is not None:
                pytest.fail("child sweep finished before it could be killed")
            time.sleep(0.02)
        else:
            pytest.fail("child sweep never flushed a segment")
        os.kill(child.pid, signal.SIGKILL)
    finally:
        child.wait(timeout=30)
    assert child.returncode == -signal.SIGKILL


class TestKillDashNineAdaptive:
    @pytest.mark.parametrize(
        "name", [SCENARIO, "fixedpoint-bitwidth", "ipcore-parallelism"]
    )
    def test_segments_survive_and_resume_merges_byte_identical(self, tmp_path, name):
        spec, config = _case(name)
        cache_dir = tmp_path / "cache"
        store_dir = tmp_path / "results"
        _run_child_until_killed(cache_dir, store_dir, spec, config)

        # 1) nothing torn: every surviving segment is complete, valid JSONL,
        #    internally sorted by trial_index
        survivors = segment_files(store_dir)
        assert len(survivors) >= 2
        for path in survivors:
            indexes = []
            for line in path.read_text().splitlines():
                record = json.loads(line)  # a torn line would raise here
                assert record["scenario"] == name
                indexes.append(record["trial_index"])
            assert indexes == sorted(indexes)

        # 2) the resumed run appends — segment numbering continues past the
        #    killed run's files, and every pre-kill segment is left untouched
        before = {path.name: path.read_bytes() for path in survivors}
        resumed = run_adaptive_sweep(
            spec, config,
            cache=ResultCache(cache_dir),
            store=SegmentedResultStore(store_dir, flush_trials=4),
        )
        assert resumed.stats.cache_hits > 0  # it really resumed from the kill
        after = segment_files(store_dir)
        assert len(after) > len(survivors)
        for path in after[: len(survivors)]:
            assert path.read_bytes() == before[path.name]

        # 3) the merged artefacts byte-match an uninterrupted adaptive run
        #    (duplicate trials from the re-executed wave dedupe in the merge)
        merged = SegmentedResultStore(store_dir).merge()
        clean_dir = tmp_path / "clean"
        clean = run_adaptive_sweep(
            spec, config, store=SegmentedResultStore(clean_dir, flush_trials=4)
        )
        clean_merged = SegmentedResultStore(clean_dir).merge()
        assert merged["jsonl"].read_bytes() == clean_merged["jsonl"].read_bytes()
        assert merged["csv"].read_bytes() == clean_merged["csv"].read_bytes()
        assert resumed.records == clean.records
        assert resumed.stats.num_trials == clean.stats.num_trials

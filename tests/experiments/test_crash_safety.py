"""``kill -9`` crash safety: a killed sweep leaves no torn artefacts.

The acceptance contract for the sweep service (and any long-running user of
the artifact layer): SIGKILL a sweep mid-run, and

* every cache file on disk is a complete, valid record (atomic writes mean
  the kill can only lose the in-flight temp file, never corrupt a ``.json``);
* a resubmission of the same spec completes, picking the already-executed
  trials up from the cache.

SIGKILL runs no ``finally`` blocks and no atexit hooks — this is the
strongest interruption the filesystem contract has to survive.
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
    get_scenario,
    register,
    run_sweep,
    trial_key,
)
from repro.experiments.cache import code_version_tag
from repro.experiments.spec import SweepSpec

SRC = str(Path(__file__).resolve().parents[2] / "src")

#: The sweep the child runs: slow enough to be killed mid-flight.
NUM_TRIALS = 40
SCENARIO = "crash-test"

#: Kill a per-trial probe and both batch-native scenarios (whose cache
#: entries land one ``run_batch`` chunk at a time).
SCENARIOS = (SCENARIO, "fixedpoint-bitwidth", "ipcore-parallelism")

CHILD_SCRIPT = f"""
import dataclasses, sys, time
sys.path.insert(0, {SRC!r})
from repro.experiments import Scenario, get_scenario, register, ResultCache, run_sweep
from repro.experiments.spec import SweepSpec

def run_trial(params, seed):
    time.sleep(0.05)
    return {{"value": params["x"] * 2.0}}

register(Scenario(
    name={SCENARIO!r}, description="crash-safety probe", layers=("test",),
    version="1", run_trial=run_trial,
    default_spec=SweepSpec(scenario={SCENARIO!r},
                           grid={{"x": tuple(range({NUM_TRIALS}))}}),
))
spec = SweepSpec.from_json(sys.argv[2])
scenario = get_scenario(spec.scenario)
if scenario.run_batch is not None:
    def slow_batch(points, run_batch=scenario.run_batch):
        time.sleep(0.1)
        return run_batch(points)
    # same name and version, so the cache keys are the real scenario's
    register(dataclasses.replace(scenario, run_batch=slow_batch))
run_sweep(spec, cache=ResultCache(sys.argv[1]), chunk_size=2)
"""


def _register_parent_side() -> SweepSpec:
    """The same scenario (same name/version) in this process, for the resume."""

    def run_trial(params, seed):
        return {"value": params["x"] * 2.0}

    scenario = register(Scenario(
        name=SCENARIO, description="crash-safety probe", layers=("test",),
        version="1", run_trial=run_trial,
        default_spec=SweepSpec(scenario=SCENARIO,
                               grid={"x": tuple(range(NUM_TRIALS))}),
    ))
    return scenario.spec


def _spec(name: str) -> SweepSpec:
    """A NUM_TRIALS-trial sweep of scenario ``name``."""
    if name == SCENARIO:
        return _register_parent_side()
    spec = get_scenario(name).spec.with_seed(replicates=NUM_TRIALS // 2)
    if name == "fixedpoint-bitwidth":
        return spec.with_axis("word_length", (6, 8))
    return spec.with_axis("num_fc_blocks", (1, 14)).with_axis("word_length", (8,))


def _start_child(cache_dir: Path, spec: SweepSpec) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-c", CHILD_SCRIPT, str(cache_dir), spec.to_json()],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )


def _lines(records) -> list[str]:
    """Records as the result store writes them (one sorted-key JSON line each)."""
    return [json.dumps(record, sort_keys=True) for record in records]


@pytest.mark.parametrize("name", SCENARIOS)
class TestKillDashNine:
    def test_sigkill_leaves_no_torn_cache_and_resume_completes(self, tmp_path, name):
        spec = _spec(name)
        assert spec.num_trials == NUM_TRIALS
        cache_dir = tmp_path / "cache"
        child = _start_child(cache_dir, spec)
        try:
            # wait until some trials landed, then kill -9 mid-sweep
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                done = len(list(cache_dir.rglob("*.json"))) if cache_dir.exists() else 0
                if done >= 3:
                    break
                if child.poll() is not None:
                    pytest.fail("child sweep finished before it could be killed")
                time.sleep(0.02)
            else:
                pytest.fail("child sweep never wrote a cache file")
            os.kill(child.pid, signal.SIGKILL)
        finally:
            child.wait(timeout=30)
        assert child.returncode == -signal.SIGKILL

        # 1) nothing torn: every surviving cache file is complete, valid JSON
        cached_files = list(cache_dir.rglob("*.json"))
        assert cached_files, "the kill window saw >= 3 files"
        for path in cached_files:
            payload = json.loads(path.read_text())
            assert isinstance(payload["record"], dict)
        survivors = len(cached_files)
        assert survivors < NUM_TRIALS  # it really died mid-run

        # 2) a resubmitted sweep completes, resuming from the cached trials,
        #    byte-identical to an uninterrupted run
        cache = ResultCache(cache_dir)
        resumed = run_sweep(spec, cache=cache)
        assert resumed.stats.num_trials == NUM_TRIALS
        assert resumed.stats.cache_hits == survivors
        assert resumed.stats.executed == NUM_TRIALS - survivors
        assert _lines(resumed.records) == _lines(run_sweep(spec).records)
        # and nothing was quarantined along the way: no torn files existed
        assert cache.stats.quarantined == 0
        assert list(cache_dir.rglob("*.corrupt")) == []

    def test_cached_records_match_uninterrupted_run(self, tmp_path, name):
        """Trials cached by the killed child byte-match a fresh in-process run."""
        spec = _spec(name)
        fresh = run_sweep(spec)
        cache_dir = tmp_path / "cache"
        child = _start_child(cache_dir, spec)
        try:
            while len(list(cache_dir.rglob("*.json")) if cache_dir.exists() else []) < 2:
                assert child.poll() is None, "child finished too fast"
                time.sleep(0.02)
            os.kill(child.pid, signal.SIGKILL)
        finally:
            child.wait(timeout=30)

        cache = ResultCache(cache_dir)
        code_tag = code_version_tag()
        version = get_scenario(spec.scenario).version
        seen = 0
        for trial in spec.expand():
            key = trial_key(spec.scenario, version, trial.params, trial.seed, code_tag)
            record = cache.get(spec.scenario, key)
            if record is not None:
                seen += 1
                assert _lines([record]) == _lines([fresh.records[trial.index]])
        assert seen >= 2

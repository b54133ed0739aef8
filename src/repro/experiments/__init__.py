"""Experiment orchestration: declarative sweeps, parallel execution, caching.

The subsystem splits an experiment into four orthogonal pieces:

* :mod:`repro.experiments.spec` — *what* to run: :class:`SweepSpec` with grid
  and zipped parameter axes and a deterministic :class:`SeedPolicy`;
* :mod:`repro.experiments.registry` — *which code* runs each point: named
  :class:`Scenario` objects wrapping the repro layers (five built-ins);
* :mod:`repro.experiments.runner` — *how* it runs: :func:`run_sweep` with a
  multiprocessing pool, serial fallback and per-trial result caching;
* :mod:`repro.experiments.cache` / :mod:`repro.experiments.store` — *where*
  results live: a content-addressed trial cache plus tidy JSONL/CSV outputs.

Quick start::

    from repro.experiments import get_scenario, run_sweep, ResultCache

    spec = get_scenario("fixedpoint-bitwidth").spec.with_axis("word_length", (6, 8))
    result = run_sweep(spec, jobs=4, cache=ResultCache(".repro_cache"))
    result.group_mean(by="word_length", metric="normalized_error")
"""

from repro._lazy import lazy_exports

__all__ = [
    "SweepSpec",
    "SeedPolicy",
    "TrialPoint",
    "stable_hash",
    "Scenario",
    "register",
    "get_scenario",
    "list_scenarios",
    "scenario_names",
    "run_sweep",
    "execute_trials",
    "SweepResult",
    "SweepStats",
    "run_adaptive_sweep",
    "AdaptiveConfig",
    "AdaptivePointSummary",
    "AdaptiveSweepResult",
    "ResultCache",
    "CacheStats",
    "trial_key",
    "code_version_tag",
    "ResultStore",
    "SegmentedResultStore",
    "iter_merged_records",
    "run_fingerprint",
    "segment_files",
    "write_jsonl",
    "read_jsonl",
    "iter_jsonl",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "adaptive": (
        "AdaptiveConfig", "AdaptivePointSummary", "AdaptiveSweepResult", "run_adaptive_sweep",
    ),
    "cache": ("CacheStats", "ResultCache", "code_version_tag", "trial_key"),
    "registry": ("Scenario", "get_scenario", "list_scenarios", "register", "scenario_names"),
    "runner": ("SweepResult", "SweepStats", "execute_trials", "run_sweep"),
    "segments": ("SegmentedResultStore", "iter_merged_records", "run_fingerprint", "segment_files"),
    "spec": ("SeedPolicy", "SweepSpec", "TrialPoint", "stable_hash"),
    "store": ("ResultStore", "iter_jsonl", "read_jsonl", "write_jsonl"),
})

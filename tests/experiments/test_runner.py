"""Tests for the sweep engine: determinism, parallelism, record hygiene."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.experiments import ResultCache, get_scenario, run_sweep
from repro.experiments import registry as registry_module
from repro.experiments.runner import _chunk_size, plain_value
from repro.experiments.store import read_jsonl, tidy_headers
from repro.experiments.store import ResultStore


@pytest.fixture(scope="module")
def small_bitwidth_spec():
    """A cheap but non-trivial spec: 2 word lengths x 3 replicates."""
    return (
        get_scenario("fixedpoint-bitwidth").spec
        .with_axis("word_length", (6, 8))
        .with_seed(replicates=3)
    )


class TestSerialExecution:
    def test_records_in_canonical_order_with_identity_columns(self, small_bitwidth_spec):
        result = run_sweep(small_bitwidth_spec, jobs=1)
        assert [r["trial_index"] for r in result.records] == list(range(6))
        assert all(r["scenario"] == "fixedpoint-bitwidth" for r in result.records)
        assert result.stats.jobs == 1
        assert result.stats.executed == 6

    def test_metrics_are_plain_scalars(self, small_bitwidth_spec):
        result = run_sweep(small_bitwidth_spec, jobs=1)
        for record in result.records:
            for value in record.values():
                assert value is None or isinstance(value, (bool, int, float, str))

    def test_deterministic_across_runs(self, small_bitwidth_spec):
        assert run_sweep(small_bitwidth_spec).records == run_sweep(small_bitwidth_spec).records


class TestParallelExecution:
    def test_parallel_equals_serial(self, small_bitwidth_spec):
        serial = run_sweep(small_bitwidth_spec, jobs=1)
        parallel = run_sweep(small_bitwidth_spec, jobs=3)
        assert parallel.records == serial.records
        assert parallel.stats.jobs == 3

    def test_small_batches_fall_back_to_serial(self):
        spec = get_scenario("platform-energy").spec.with_axis(
            "platform", ("MicroBlaze", "TI C6713 DSP")
        )
        result = run_sweep(spec, jobs=8)
        assert result.stats.jobs == 1  # 2 trials < MIN_TRIALS_FOR_POOL

    def test_parallel_with_cache_stores_all_trials(self, small_bitwidth_spec, tmp_path):
        cache = ResultCache(tmp_path)
        run_sweep(small_bitwidth_spec, jobs=3, cache=cache)
        assert cache.count("fixedpoint-bitwidth") == 6
        rerun = run_sweep(small_bitwidth_spec, jobs=3, cache=cache)
        assert rerun.stats.cache_hits == 6

    def test_explicit_chunk_size(self, small_bitwidth_spec):
        serial = run_sweep(small_bitwidth_spec, jobs=1)
        chunked = run_sweep(small_bitwidth_spec, jobs=2, chunk_size=2)
        assert chunked.records == serial.records


class TestBatchNativeScenarios:
    """Scenarios with ``run_batch`` get their cache misses in one call."""

    @staticmethod
    def _spec(name):
        spec = get_scenario(name).spec.with_seed(replicates=3)
        if name == "fixedpoint-bitwidth":
            return spec.with_axis("word_length", (6, 8))
        return spec.with_axis("num_fc_blocks", (1, 14)).with_axis("word_length", (8,))

    @pytest.fixture()
    def calls(self, monkeypatch):
        """Record every run_batch call of both scenarios (same name and version)."""
        seen: list[list] = []
        for name in ("fixedpoint-bitwidth", "ipcore-parallelism"):
            scenario = get_scenario(name)

            def recording(points, run_batch=scenario.run_batch):
                seen.append(list(points))
                return run_batch(points)

            monkeypatch.setitem(
                registry_module._REGISTRY, name, replace(scenario, run_batch=recording)
            )
        return seen

    @pytest.mark.parametrize("name", ["fixedpoint-bitwidth", "ipcore-parallelism"])
    def test_partly_cached_run_passes_only_the_misses(self, name, calls, tmp_path):
        spec = self._spec(name)
        cache = ResultCache(tmp_path)
        first = run_sweep(spec.with_seed(replicates=1), cache=cache)
        assert len(calls) == 1 and len(calls[0]) == first.stats.num_trials
        calls.clear()

        result = run_sweep(spec, cache=cache)
        assert result.stats.cache_hits == first.stats.num_trials == 2
        assert result.stats.executed == 4
        assert len(calls) == 1  # every miss in one run_batch call
        # paired seeds: replicate 0 of every point is the first run's trial
        misses = [(t.params, t.seed) for t in spec.expand() if t.replicate > 0]
        assert calls[0] == misses
        assert result.records == run_sweep(spec).records

    @pytest.mark.parametrize("name", ["fixedpoint-bitwidth", "ipcore-parallelism"])
    def test_one_chunk_per_worker(self, name, calls):
        spec = self._spec(name)
        result = run_sweep(spec, jobs=2)
        assert result.stats.jobs == 2
        assert len(calls) == 0  # the calls ran in the workers
        assert result.records == run_sweep(spec).records
        assert len(calls) == 1

    def test_serial_chunk_size_bounds_each_call(self, calls):
        spec = self._spec("fixedpoint-bitwidth")
        run_sweep(spec, chunk_size=4)
        assert [len(points) for points in calls] == [4, 2]

    def test_run_batch_length_mismatch_raises(self, monkeypatch):
        scenario = get_scenario("fixedpoint-bitwidth")
        monkeypatch.setitem(
            registry_module._REGISTRY, scenario.name,
            replace(scenario, run_batch=lambda points: []),
        )
        with pytest.raises(ValueError, match="run_batch returned 0 results for 6"):
            run_sweep(self._spec("fixedpoint-bitwidth"))


class TestHelpers:
    def test_chunk_size_targets_four_chunks_per_worker(self):
        assert _chunk_size(pending=64, jobs=4) == 4
        assert _chunk_size(pending=3, jobs=4) == 1

    def test_plain_rejects_compound_values(self):
        with pytest.raises(TypeError, match="flat dicts"):
            plain_value([1, 2, 3])

    def test_unknown_scenario_raises(self):
        from repro.experiments.spec import SweepSpec

        with pytest.raises(KeyError, match="unknown scenario"):
            run_sweep(SweepSpec(scenario="does-not-exist"))

    def test_group_mean(self, small_bitwidth_spec):
        result = run_sweep(small_bitwidth_spec)
        means = result.group_mean(by="word_length", metric="normalized_error")
        assert set(means) == {6, 8}
        assert all(value >= 0 for value in means.values())

    def test_group_mean_skips_none(self):
        """None is a scenario's undefined value: skipped like a missing key,
        and a group with no defined value is absent from the result."""
        from repro.experiments.runner import SweepResult
        from repro.experiments.spec import SweepSpec

        result = SweepResult(spec=SweepSpec(scenario="x"), records=[
            {"g": 1, "m": 2.0}, {"g": 1, "m": None}, {"g": 1, "m": 4.0},
            {"g": 2, "m": None}, {"g": 3},
        ])
        assert result.group_mean(by="g", metric="m") == {1: 3.0}

    def test_group_mean_of_censored_lifetimes(self):
        # no node dies within this scenario's horizon: every lifetime is None
        result = run_sweep(get_scenario("network-pdr-vs-density").spec)
        assert result.group_mean(by="num_nodes", metric="lifetime_days") == {}
        assert set(result.group_mean(by="num_nodes", metric="delivery_ratio")) == {
            9, 16, 25, 36
        }


def _register_poison_scenario(name: str, poison: int) -> None:
    """Register a scenario whose trial raises for ``x == poison``."""
    from repro.experiments import Scenario, register
    from repro.experiments.spec import SweepSpec

    def run_trial(params, seed):
        if params["x"] == poison:
            raise RuntimeError(f"poisoned trial x={poison}")
        return {"doubled": params["x"] * 2.0}

    register(Scenario(
        name=name,
        description="raises mid-sweep (test only)",
        layers=("test",),
        version="1",
        run_trial=run_trial,
        default_spec=SweepSpec(scenario=name, grid={"x": (0, 1, 2, 3, 4, 5)}),
    ))


class TestRaisingTrial:
    """A trial raising mid-pool must not lose the final heartbeat or the
    partial cache flush (the sweep service polls for a terminal event)."""

    def test_final_progress_event_fires_on_serial_failure(self, tmp_path):
        _register_poison_scenario("poison-serial", poison=3)
        spec = get_scenario("poison-serial").spec
        events = []
        cache = ResultCache(tmp_path)
        with pytest.raises(RuntimeError, match="poisoned"):
            run_sweep(spec, cache=cache, progress=events.append)
        assert events, "no progress events delivered"
        final = events[-1]
        assert final.final is True
        # trials 0..2 completed (serial, canonical order) and were flushed
        assert final.executed == 3
        assert cache.count("poison-serial") == 3

    def test_partial_results_resume_from_cache(self, tmp_path):
        _register_poison_scenario("poison-resume", poison=5)
        spec = get_scenario("poison-resume").spec
        cache = ResultCache(tmp_path)
        with pytest.raises(RuntimeError):
            run_sweep(spec, cache=cache)
        # drop the poisoned point: the surviving trials are all cache hits
        healthy = spec.with_axis("x", (0, 1, 2, 3, 4))
        resumed = run_sweep(healthy, cache=cache)
        assert resumed.stats.cache_hits == 5
        assert resumed.stats.executed == 0

    def test_final_progress_event_fires_on_pool_failure(self, tmp_path):
        # the default (fork) context lets workers see the locally-registered
        # scenario; the raise propagates out of imap_unordered
        _register_poison_scenario("poison-pool", poison=0)
        spec = get_scenario("poison-pool").spec
        events = []
        with pytest.raises(RuntimeError, match="poisoned"):
            run_sweep(spec, jobs=2, progress=events.append)
        assert events[-1].final is True


class TestHeterogeneousAggregation:
    """Regressions for the heterogeneous-record aggregation bugs."""

    def test_group_mean_skips_records_missing_either_key(self):
        from repro.experiments.runner import SweepResult
        from repro.experiments.spec import SweepSpec

        result = SweepResult(
            spec=SweepSpec(scenario="hetero"),
            records=[
                {"snr_db": 0, "ser": 0.4},
                {"snr_db": 0, "ser": 0.2},
                {"snr_db": 0},              # metric missing: must not KeyError
                {"ser": 0.9},               # group key missing: must not KeyError
                {"snr_db": 6, "ser": 0.1},
            ],
        )
        means = result.group_mean(by="snr_db", metric="ser")
        assert means == {0: pytest.approx(0.3), 6: pytest.approx(0.1)}

    def test_trials_per_second_counts_executed_not_cache_hits(self):
        from repro.experiments.runner import SweepStats

        # a 100%-cache-hit resume did no work: its rate must be 0, not 1000/s
        resumed = SweepStats(
            num_trials=1000, executed=0, cache_hits=1000, jobs=1, elapsed_s=1.0
        )
        assert resumed.trials_per_second == 0.0
        mixed = SweepStats(
            num_trials=100, executed=40, cache_hits=60, jobs=1, elapsed_s=2.0
        )
        assert mixed.trials_per_second == 20.0
        assert mixed.to_dict()["trials_per_second"] == 20.0
        # zero elapsed serialises as null, not the non-JSON `Infinity` literal
        instant = SweepStats(
            num_trials=1, executed=1, cache_hits=0, jobs=1, elapsed_s=0.0
        )
        assert instant.to_dict()["trials_per_second"] is None

    def test_result_store_write_accepts_a_one_shot_generator(self, tmp_path):
        # a generator is consumed by the JSONL pass; the CSV pass must still
        # see every record (the store materialises exactly once)
        records = (
            {"scenario": "gen", "trial_index": i, "replicate": 0, "seed": i, "m": i * 1.0}
            for i in range(5)
        )
        written = ResultStore(tmp_path).write(records)
        assert len(read_jsonl(written["jsonl"])) == 5
        csv_lines = written["csv"].read_text().splitlines()
        assert len(csv_lines) == 1 + 5  # header + one row per record
        assert csv_lines[0].split(",") == ["scenario", "trial_index", "replicate", "seed", "m"]


class TestResultStore:
    def test_writes_jsonl_csv_and_manifest(self, small_bitwidth_spec, tmp_path):
        result = run_sweep(small_bitwidth_spec)
        written = ResultStore(tmp_path).write(
            result.records, spec=result.spec.to_dict(), stats=result.stats.to_dict()
        )
        assert set(written) == {"jsonl", "csv", "manifest"}
        assert read_jsonl(written["jsonl"]) == result.records
        header = written["csv"].read_text().splitlines()[0].split(",")
        assert header == tidy_headers(result.records)
        assert header[:4] == ["scenario", "trial_index", "replicate", "seed"]

"""Sequential-stopping sweeps: the rule, the waves, the fixed-run pairing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.intervals import BinomialAccumulator
from repro.experiments import (
    ResultCache,
    Scenario,
    SegmentedResultStore,
    get_scenario,
    register,
    run_adaptive_sweep,
    run_sweep,
)
from repro.experiments.adaptive import (
    BINOMIAL_COUNT_KEYS,
    AdaptiveConfig,
    _fold_record,
    _PointState,
)
from repro.experiments.spec import SweepSpec
from repro.experiments.store import ResultStore
from repro.telemetry.tracing import start_trace

COIN = "adaptive-coin"


def _coin_trial(params, seed):
    """One Bernoulli draw; paired across points via the shared seed stream."""
    rng = np.random.default_rng(seed)
    return {"success": float(rng.random() < params["p"])}


def _register_coin() -> None:
    register(Scenario(
        name=COIN,
        description="Bernoulli trials with a controllable proportion (test only)",
        layers=("test",),
        version="1",
        run_trial=_coin_trial,
        default_spec=SweepSpec(scenario=COIN, grid={"p": (0.0, 0.5)}),
    ))


@pytest.fixture(autouse=True)
def coin_scenario():
    _register_coin()


# With the Wilson interval on 0/n successes the half-width is
# z^2 / (2 (n + z^2)) with z^2 ~ 3.8415: 0.245 at n=4, 0.121 at n=12.  A
# ci_width of 0.13 therefore stops the p=0 point exactly at wave two
# (12 replicates) regardless of seeds — the convergence is deterministic.
CONVERGING = AdaptiveConfig(
    metric="success", ci_width=0.13, max_trials=64, min_trials=4, wave_trials=8
)


class TestAdaptiveConfig:
    def test_defaults_and_validation(self):
        config = AdaptiveConfig(metric="ser", ci_width=0.01, max_trials=100)
        assert config.method == "wilson"
        assert config.confidence == 0.95
        assert config.min_trials == 4

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"metric": "", "ci_width": 0.1, "max_trials": 10},
            {"metric": "m", "ci_width": 0.0, "max_trials": 10},
            {"metric": "m", "ci_width": 1.5, "max_trials": 10},
            {"metric": "m", "ci_width": 0.1, "max_trials": 10, "confidence": 1.0},
            {"metric": "m", "ci_width": 0.1, "max_trials": 10, "method": "wald"},
            {"metric": "m", "ci_width": 0.1, "max_trials": 10, "min_trials": 0},
            {"metric": "m", "ci_width": 0.1, "max_trials": 10, "wave_trials": 0},
            {"metric": "m", "ci_width": 0.1, "max_trials": 3, "min_trials": 4},
            {"metric": "m", "ci_width": 0.1, "max_trials": 10, "successes_key": "k"},
        ],
    )
    def test_invalid_configs_raise(self, kwargs):
        with pytest.raises(ValueError):
            AdaptiveConfig(**kwargs)

    def test_round_trip_through_dict(self):
        config = AdaptiveConfig(
            metric="symbol_error_rate", ci_width=0.005, max_trials=512,
            confidence=0.99, method="clopper-pearson", min_trials=8,
            wave_trials=16, successes_key="errs", trials_key="sent",
        )
        assert AdaptiveConfig.from_dict(config.to_dict()) == config

    def test_from_dict_rejects_unknown_and_missing_keys(self):
        with pytest.raises(ValueError, match="unknown adaptive option"):
            AdaptiveConfig.from_dict(
                {"metric": "m", "ci_width": 0.1, "max_trials": 10, "warp": 9}
            )
        with pytest.raises(ValueError, match="require metric"):
            AdaptiveConfig.from_dict({"metric": "m"})

    def test_count_keys_resolution(self):
        # the modem SER metric has registered count columns
        assert "symbol_error_rate" in BINOMIAL_COUNT_KEYS
        implicit = AdaptiveConfig(
            metric="symbol_error_rate", ci_width=0.1, max_trials=10
        )
        assert implicit.count_keys == ("symbol_errors", "symbols_sent")
        explicit = AdaptiveConfig(
            metric="whatever", ci_width=0.1, max_trials=10,
            successes_key="k", trials_key="n",
        )
        assert explicit.count_keys == ("k", "n")
        assert CONVERGING.count_keys is None  # per-trial proportion fallback


class TestFoldRecord:
    def _state(self):
        return _PointState(ordinal=0, params={}, accumulator=BinomialAccumulator())

    def test_prefers_exact_count_columns(self):
        config = AdaptiveConfig(
            metric="rate", ci_width=0.1, max_trials=10,
            successes_key="k", trials_key="n",
        )
        state = self._state()
        _fold_record(state, {"rate": 0.9, "k": 3, "n": 100}, config)
        assert state.accumulator.successes == 3.0
        assert state.accumulator.trials == 100.0
        assert state.trials == 1

    def test_falls_back_to_the_metric_as_a_proportion(self):
        state = self._state()
        _fold_record(state, {"success": 1.0}, CONVERGING)
        assert state.accumulator.successes == 1.0
        assert state.accumulator.trials == 1.0

    def test_skips_records_without_evidence(self):
        state = self._state()
        _fold_record(state, {"other_metric": 5.0}, CONVERGING)
        _fold_record(state, {"success": "corrupt"}, CONVERGING)
        assert state.trials == 2  # realised trials still count
        assert state.metric_records == 0
        assert state.accumulator.trials == 0.0

    def test_rejects_non_proportion_metric_values(self):
        with pytest.raises(ValueError, match="not a proportion"):
            _fold_record(self._state(), {"success": 3.5}, CONVERGING)


class TestSequentialStopping:
    def test_certain_point_stops_early_uncertain_point_keeps_sampling(self):
        spec = get_scenario(COIN).spec
        result = run_adaptive_sweep(spec, CONVERGING)
        by_p = {point.params["p"]: point for point in result.points}

        certain = by_p[0.0]
        assert certain.stopped_early is True
        assert certain.reason == "converged"
        assert certain.trials == 12  # deterministic: see CONVERGING comment
        assert certain.interval.half_width <= CONVERGING.ci_width

        uncertain = by_p[0.5]
        assert uncertain.trials > certain.trials
        if uncertain.reason == "converged":
            assert uncertain.interval.half_width <= CONVERGING.ci_width

        assert result.stats.num_trials == sum(p.trials for p in result.points)
        assert result.stats.num_trials < result.ceiling_trials
        assert result.stats.executed == result.stats.num_trials  # no cache
        assert result.waves >= 2

    def test_tiny_ci_width_drives_every_point_to_the_ceiling(self):
        spec = get_scenario(COIN).spec
        config = AdaptiveConfig(
            metric="success", ci_width=0.01, max_trials=8,
            min_trials=4, wave_trials=4,
        )
        result = run_adaptive_sweep(spec, config)
        assert all(point.reason == "ceiling" for point in result.points)
        assert result.points_stopped_early == 0
        assert all(point.trials == 8 for point in result.points)
        assert result.stats.num_trials == result.ceiling_trials == 16

    def test_records_carry_canonical_ceiling_indexes(self):
        result = run_adaptive_sweep(get_scenario(COIN).spec, CONVERGING)
        indexes = [record["trial_index"] for record in result.records]
        assert indexes == sorted(indexes)
        by_p = {point.params["p"]: point for point in result.points}
        for record in result.records:
            ordinal = record["trial_index"] // CONVERGING.max_trials
            replicate = record["trial_index"] % CONVERGING.max_trials
            assert record["replicate"] == replicate
            assert replicate < by_p[record["p"]].trials
            assert ordinal == next(
                point.ordinal for point in result.points
                if point.params["p"] == record["p"]
            )

    def test_stats_payload_carries_the_adaptive_block(self):
        result = run_adaptive_sweep(get_scenario(COIN).spec, CONVERGING)
        payload = result.stats_payload()
        assert payload["num_trials"] == result.stats.num_trials
        adaptive = payload["adaptive"]
        assert adaptive["config"] == CONVERGING.to_dict()
        assert adaptive["points_total"] == 2
        assert adaptive["waves"] == result.waves
        assert adaptive["points_stopped_early"] == result.points_stopped_early
        assert adaptive["ceiling_trials"] == 128
        assert len(adaptive["points"]) == 2
        assert adaptive["points"][0]["interval"]["half_width"] is not None

    def test_result_is_a_sweep_result(self):
        # every fixed-count consumer (group_mean, the store) works unchanged
        result = run_adaptive_sweep(get_scenario(COIN).spec, CONVERGING)
        means = result.group_mean(by="p", metric="success")
        assert means[0.0] == 0.0
        assert 0.0 <= means[0.5] <= 1.0

    def test_metric_absent_from_every_record_raises_after_wave_one(self):
        # a typo'd metric must not silently sample every point to the ceiling
        config = AdaptiveConfig(
            metric="succes", ci_width=0.13, max_trials=64,
            min_trials=4, wave_trials=8,
        )
        with pytest.raises(ValueError, match="never appeared") as excinfo:
            run_adaptive_sweep(get_scenario(COIN).spec, config)
        # the error names the keys the user could have meant
        assert "success" in str(excinfo.value)


#: Batch-native scenarios (waves reach them as one ``run_batch`` call): a
#: rule on a continuous metric that stops some points early.
BATCHED = AdaptiveConfig(
    metric="normalized_error", ci_width=0.25, max_trials=12, min_trials=4, wave_trials=4
)


def _prefix_case(name):
    """A small sweep of scenario ``name`` and the stopping rule it runs under."""
    if name == COIN:
        return get_scenario(COIN).spec, CONVERGING
    spec = get_scenario(name).spec
    if name == "fixedpoint-bitwidth":
        return spec.with_axis("word_length", (4, 12)), BATCHED
    return spec.with_axis("num_fc_blocks", (1, 14)).with_axis("word_length", (8,)), BATCHED


class TestFixedRunPairing:
    """An adaptive run is a byte-for-byte prefix of the ceiling fixed run."""

    @pytest.mark.parametrize("name", [COIN, "fixedpoint-bitwidth", "ipcore-parallelism"])
    def test_merged_store_matches_fixed_run_over_realised_trials(self, tmp_path, name):
        spec, config = _prefix_case(name)
        store = SegmentedResultStore(tmp_path / "adaptive", flush_trials=8)
        adaptive = run_adaptive_sweep(spec, config, store=store)
        merged = store.merge(
            spec=spec.to_dict(), stats=adaptive.stats_payload()
        )

        fixed = run_sweep(spec.with_seed(replicates=config.max_trials))
        realised = {record["trial_index"] for record in adaptive.records}
        subset = [
            record for record in fixed.records if record["trial_index"] in realised
        ]
        written = ResultStore(tmp_path / "fixed").write(subset)
        assert merged["jsonl"].read_bytes() == written["jsonl"].read_bytes()
        assert merged["csv"].read_bytes() == written["csv"].read_bytes()

    def test_adaptive_and_fixed_sweeps_share_the_cache(self, tmp_path):
        spec = get_scenario(COIN).spec
        cache = ResultCache(tmp_path)
        adaptive = run_adaptive_sweep(spec, CONVERGING, cache=cache)
        assert adaptive.stats.executed == adaptive.stats.num_trials

        # a fixed run over the first min_trials replicates re-uses every trial
        fixed = run_sweep(spec.with_seed(replicates=CONVERGING.min_trials), cache=cache)
        assert fixed.stats.cache_hits == 2 * CONVERGING.min_trials
        assert fixed.stats.executed == 0

    def test_adaptive_rerun_is_all_cache_hits(self, tmp_path):
        spec = get_scenario(COIN).spec
        cache = ResultCache(tmp_path)
        first = run_adaptive_sweep(spec, CONVERGING, cache=cache)
        second = run_adaptive_sweep(spec, CONVERGING, cache=cache)
        assert second.stats.executed == 0
        assert second.stats.cache_hits == first.stats.num_trials
        assert second.records == first.records
        assert [p.to_dict() for p in second.points] == [
            p.to_dict() for p in first.points
        ]


class TestSegmentsAndProgress:
    def test_waves_flush_to_labelled_segments(self, tmp_path):
        store = SegmentedResultStore(tmp_path, flush_trials=1000)
        result = run_adaptive_sweep(get_scenario(COIN).spec, CONVERGING, store=store)
        segments = store.segments()
        assert len(segments) == result.waves  # one flush per completed wave
        assert segments[0].name.endswith("-wave-000.jsonl")
        assert store.record_count() == result.stats.num_trials

    def test_run_sweep_store_hook_flushes_segments(self, tmp_path):
        spec = get_scenario(COIN).spec.with_seed(replicates=3)  # 6 trials
        store = SegmentedResultStore(tmp_path, flush_trials=2)
        result = run_sweep(spec, store=store)
        assert len(store.segments()) == 3
        assert list(store.iter_records()) == result.records

    def test_final_progress_event_reports_realised_totals(self):
        events = []
        result = run_adaptive_sweep(
            get_scenario(COIN).spec, CONVERGING, progress=events.append
        )
        assert events[-1].final is True
        assert events[-1].completed == result.stats.num_trials
        assert events[-1].executed == result.stats.executed
        # the ceiling is the only total known up front
        assert events[-1].total == result.ceiling_trials


class TestTelemetry:
    def test_traces_waves_and_counts_stopping_decisions(self):
        with start_trace() as tracer:
            result = run_adaptive_sweep(get_scenario(COIN).spec, CONVERGING)
        names = [record.name for record in tracer.records]
        assert names.count("adaptive.wave") == result.waves
        assert names.count("sweep") == 1
        # one trial span per realised trial — `repro trace --check` relies
        # on this equalling the manifest's stats.num_trials
        assert names.count("trial") == result.stats.num_trials

        metrics = result.stats.metrics
        assert metrics["adaptive.waves"] == result.waves
        assert metrics["adaptive.points_stopped_early"] == result.points_stopped_early
        assert metrics["adaptive.trials_saved"] == (
            result.ceiling_trials - result.stats.num_trials
        )

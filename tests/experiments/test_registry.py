"""Tests for the scenario registry and the built-in scenarios."""

from __future__ import annotations

import math

import pytest

from repro.experiments import Scenario, get_scenario, list_scenarios, register, run_sweep
from repro.experiments.spec import SeedPolicy, SweepSpec
from tests.experiments.oracle import oracle_records, scalar_oracles

REQUIRED_SCENARIOS = {
    "modem-ser-vs-snr",
    "fixedpoint-bitwidth",
    "ipcore-parallelism",
    "platform-energy",
    "mp-refinement",
    "network-lifetime",
    "network-contention",
    "network-pdr-vs-density",
}


class TestRegistryCompleteness:
    def test_at_least_five_builtin_scenarios(self):
        assert REQUIRED_SCENARIOS.issubset({s.name for s in list_scenarios()})

    def test_every_layer_is_covered(self):
        layers = {layer for s in list_scenarios() for layer in s.layers}
        assert {"core", "fixedpoint", "modem", "network", "hardware", "channel"} <= layers

    def test_specs_reference_their_scenario_and_expand(self):
        for scenario in list_scenarios():
            assert scenario.spec.scenario == scenario.name
            assert scenario.spec.num_trials > 0

    def test_specs_round_trip_through_json(self):
        for scenario in list_scenarios():
            restored = SweepSpec.from_json(scenario.spec.to_json())
            assert restored == scenario.spec

    def test_unknown_name_lists_available(self):
        with pytest.raises(KeyError, match="fixedpoint-bitwidth"):
            get_scenario("nope")

    def test_register_and_run_custom_scenario(self):
        scenario = Scenario(
            name="test-affine",
            description="x -> a*x + seed parity",
            layers=("test",),
            version="1",
            run_trial=lambda params, seed: {"y": params["a"] * params["x"] + (seed % 2)},
            default_spec=SweepSpec(
                scenario="test-affine",
                grid={"x": (1, 2, 3)},
                base={"a": 10},
                seed=SeedPolicy(base_seed=0, replicates=1),
            ),
        )
        register(scenario)
        result = run_sweep(scenario.spec)  # serial path: lambda never crosses processes
        assert [r["y"] - r["seed"] % 2 for r in result.records] == [10, 20, 30]


class TestBuiltinTrials:
    """Run one real trial per cheap scenario; heavier ones get a reduced spec."""

    def test_platform_energy_full_default_sweep(self):
        result = run_sweep(get_scenario("platform-energy").spec)
        assert len(result.records) == 5
        by_platform = {r["platform"]: r for r in result.records}
        headline = by_platform["Virtex-4 112FC 8bit"]
        assert headline["energy_uj"] < by_platform["MicroBlaze"]["energy_uj"] / 100
        assert headline["energy_per_packet_uj"] == pytest.approx(
            headline["energy_uj"] * 32
        )

    def test_network_lifetime_ordering(self):
        spec = get_scenario("network-lifetime").spec.with_axis("report_interval_s", (120.0,))
        result = run_sweep(spec)
        lifetime = {r["platform"]: r["lifetime_days"] for r in result.records}
        assert lifetime["Virtex-4 112FC 8bit"] > lifetime["MicroBlaze"]
        assert all(days > 0 and math.isfinite(days) for days in lifetime.values())

    def test_mp_refinement_ls_not_worse_on_residual(self):
        spec = (
            get_scenario("mp-refinement").spec
            .with_axis("num_paths", (6,))
            .with_seed(replicates=3)
        )
        result = run_sweep(spec)
        greedy = result.group_mean(by="estimator", metric="relative_residual")["greedy"]
        refined = result.group_mean(by="estimator", metric="relative_residual")["ls"]
        # LS refinement minimises the residual on the selected support
        assert refined <= greedy + 1e-12

    def test_modem_ser_trial_smoke(self):
        spec = (
            get_scenario("modem-ser-vs-snr").spec
            .with_axis("snr_db", (6.0,))
            .with_axis("scheme", ("DSSS",))
            .with_seed(replicates=1)
            .with_base(num_symbols=12, num_frames=2)
        )
        result = run_sweep(spec)
        (record,) = result.records
        assert 0.0 <= record["symbol_error_rate"] <= 1.0
        assert record["symbols_sent"] > 0

    def test_ipcore_parallelism_accuracy_invariant_cycles_fall(self):
        spec = (
            get_scenario("ipcore-parallelism").spec
            .with_axis("num_fc_blocks", (1, 112))
            .with_axis("word_length", (8,))
            .with_seed(replicates=2)
        )
        result = run_sweep(spec)
        errors = result.group_mean(by="num_fc_blocks", metric="normalized_error")
        cycles = result.group_mean(by="num_fc_blocks", metric="total_cycles")
        # partitioning is a scheduling choice: identical accuracy, Ns/P cycles
        assert errors[1] == errors[112]
        assert cycles[1] == cycles[112] * 112

    def test_network_contention_records_match_event_loop(self, monkeypatch):
        """The vectorised contention engine reproduces the per-packet event
        loop record for record (the invariant the CI contention smoke pins
        end to end), on a run where contention really drops packets."""
        spec = (
            get_scenario("network-contention").spec
            .with_axis("protocol", ("routed",))
            .with_axis("channel_load", (0.3,))
            .with_seed(replicates=1)
            .with_base(num_nodes=9, area_side_m=400.0, max_days=0.2)
        )
        batched = run_sweep(spec)
        scalar_oracles(monkeypatch)
        assert batched.records == oracle_records(spec)
        (record,) = batched.records
        assert record["packets_dropped"] > 0
        assert 0.0 < record["delivery_ratio"] < 1.0

    def test_network_pdr_falls_with_density(self):
        spec = (
            get_scenario("network-pdr-vs-density").spec
            .with_axis("num_nodes", (9, 36))
            .with_seed(replicates=1)
        )
        result = run_sweep(spec)
        ratios = result.group_mean(by="num_nodes", metric="delivery_ratio")
        degrees = result.group_mean(by="num_nodes", metric="mean_degree")
        assert ratios[36] < ratios[9]
        assert degrees[36] > degrees[9]

    def test_fixedpoint_bitwidth_wider_is_closer_to_float(self):
        spec = (
            get_scenario("fixedpoint-bitwidth").spec
            .with_axis("word_length", (4, 12))
            .with_seed(replicates=3)
        )
        result = run_sweep(spec)
        vs_float = result.group_mean(by="word_length", metric="error_vs_float")
        assert vs_float[12] <= vs_float[4]


class TestScalarOracles:
    """Every default sweep equals its scenario's scalar oracle, record for record.

    Batch-native scenarios (``run_batch``) and vectorised engines behind
    ``run_trial`` alike: no user option selects between the default path and
    the oracle, so this pin is what keeps them one contract.
    """

    @pytest.mark.parametrize("name", sorted(REQUIRED_SCENARIOS))
    def test_default_sweep_equals_scalar_oracle(self, name, monkeypatch):
        spec = get_scenario(name).spec
        records = run_sweep(spec).records
        scalar_oracles(monkeypatch)
        assert records == oracle_records(spec)

    def test_batch_native_scenarios(self):
        native = {s.name for s in list_scenarios() if s.run_batch is not None}
        assert native == {"fixedpoint-bitwidth", "ipcore-parallelism"}

    def test_no_scenario_has_a_batch_parameter(self):
        for scenario in list_scenarios():
            spec = scenario.spec
            assert "batch" not in {*spec.grid, *spec.zipped, *spec.base}

"""Seed-locked equivalence: batched network engine vs the event loop.

The batched engine (:mod:`repro.network.batch`) must reproduce the event
loop *exactly* — not approximately — because node accounting is closed form
over integer charge counts and both engines evaluate the same float
expressions.  Every assertion here is ``==`` on floats: death times,
lifetime days, delivery ratios, per-node per-component energy.
"""

from __future__ import annotations

import math

import pytest

from repro.modem.energy_budget import ModemEnergyBudget
from repro.network.batch import generate_report_schedule
from repro.network.lifetime import lifetime_by_platform, lifetime_by_platform_per_node
from repro.network.mac import CsmaMac, SlottedAloha, TDMASchedule
from repro.network.routing import TtlFlooding
from repro.network.simulator import NetworkSimulator
from repro.network.topology import LinearMobility, grid_deployment, random_deployment
from repro.network.traffic import PeriodicTraffic
from repro.utils.rng import as_rng

# three Table 3 platforms spanning the energy range (uJ per estimation)
PLATFORMS = {
    "MicroBlaze": 2000.40,
    "TI C6713 DSP": 500.76,
    "Virtex-4 112FC 8bit": 9.50,
}

TOPOLOGIES = {
    "grid": lambda: grid_deployment(4, 4, spacing_m=200.0),
    "random": lambda: random_deployment(12, area_m=(600.0, 600.0), rng=3),
}


def make_simulator(
    platform_energy_uj: float = 500.76,
    deployment=None,
    seed: int = 0,
    jitter: float = 0.1,
    battery_j: float = 150.0,
    mac=None,
    interval_s: float = 30.0,
    protocol=None,
    mobility=None,
) -> NetworkSimulator:
    kwargs = {}
    if protocol is not None:
        kwargs["protocol"] = protocol
    return NetworkSimulator(
        deployment=deployment if deployment is not None else grid_deployment(4, 4, spacing_m=200.0),
        energy_budget=ModemEnergyBudget(
            transmit_power_w=2.0,
            receive_frontend_power_w=0.05,
            processing_energy_per_estimation_j=platform_energy_uj * 1e-6,
            processing_idle_power_w=0.01,
        ),
        traffic=PeriodicTraffic(
            report_interval_s=interval_s, packet_symbols=16, jitter_fraction=jitter
        ),
        communication_range_m=300.0,
        battery_capacity_j=battery_j,
        mac=mac,
        mobility=mobility,
        rng=seed,
        **kwargs,
    )


def seed_trials(
    deployment, energy_budget, *, seeds, max_time_s, event_loop=False, **simulator_kwargs
):
    """One simulation per seed on a shared deployment and energy model.

    Runs the batched engine (:meth:`NetworkSimulator.run`) or, with
    ``event_loop``, the per-packet reference loop.
    """
    results = []
    for seed in seeds:
        simulator = NetworkSimulator(
            deployment=deployment, energy_budget=energy_budget, rng=seed, **simulator_kwargs
        )
        run = simulator.run_event_loop if event_loop else simulator.run
        results.append(run(max_time_s=max_time_s))
    return results


def assert_identical(reference, batched):
    """Every observable of the two results must be exactly equal."""
    assert batched.first_death_time_s == reference.first_death_time_s
    assert batched.lifetime_days == reference.lifetime_days
    assert batched.simulated_time_s == reference.simulated_time_s
    assert batched.packets_generated == reference.packets_generated
    assert batched.packets_delivered == reference.packets_delivered
    assert batched.packets_dropped == reference.packets_dropped
    # NaN-safe: a zero-packet trial's delivery ratio is NaN on both sides
    assert batched.delivery_ratio == reference.delivery_ratio or (
        math.isnan(batched.delivery_ratio) and math.isnan(reference.delivery_ratio)
    )
    assert batched.node_alive == reference.node_alive
    assert set(batched.node_reports) == set(reference.node_reports)
    for node_id, ref_report in reference.node_reports.items():
        got = batched.node_reports[node_id]
        assert got.transmit_j == ref_report.transmit_j, node_id
        assert got.receive_frontend_j == ref_report.receive_frontend_j, node_id
        assert got.processing_j == ref_report.processing_j, node_id
        assert got.idle_j == ref_report.idle_j, node_id
    assert batched.total_energy_by_component() == reference.total_energy_by_component()


class TestSeedLockedEquivalence:
    @pytest.mark.parametrize("platform,energy_uj", sorted(PLATFORMS.items()))
    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    @pytest.mark.parametrize("seed", [0, 7])
    def test_platforms_and_topologies(self, platform, energy_uj, topology, seed):
        kwargs = dict(platform_energy_uj=energy_uj, seed=seed)
        reference = make_simulator(
            deployment=TOPOLOGIES[topology](), **kwargs
        ).run_event_loop(max_time_s=86_400.0)
        batched = make_simulator(
            deployment=TOPOLOGIES[topology](), **kwargs
        ).run(max_time_s=86_400.0)
        # the workload must actually exercise a death for the comparison to bite
        assert reference.first_death_time_s is not None
        assert_identical(reference, batched)

    @pytest.mark.parametrize("jitter", [0.0, 0.1])
    def test_with_and_without_jitter(self, jitter):
        reference = make_simulator(jitter=jitter).run_event_loop(max_time_s=86_400.0)
        batched = make_simulator(jitter=jitter).run(max_time_s=86_400.0)
        assert_identical(reference, batched)

    @pytest.mark.parametrize(
        "mac",
        [
            None,
            TDMASchedule(num_nodes=15, slot_duration_s=1.0),
            SlottedAloha(offered_load=1.0),  # expected transmissions > 1
        ],
    )
    def test_mac_models(self, mac):
        reference = make_simulator(mac=mac).run_event_loop(max_time_s=86_400.0)
        batched = make_simulator(mac=mac).run(max_time_s=86_400.0)
        assert_identical(reference, batched)

    @pytest.mark.parametrize("jitter", [0.0, 0.1])
    def test_run_past_deaths(self, jitter):
        """stop_at_first_death=False: the engine keeps exact accounting
        through the whole death cascade (alive set shrinking epoch by epoch)."""
        reference = make_simulator(jitter=jitter, battery_j=100.0).run_event_loop(
            max_time_s=4 * 3_600.0, stop_at_first_death=False
        )
        batched = make_simulator(jitter=jitter, battery_j=100.0).run(
            max_time_s=4 * 3_600.0, stop_at_first_death=False
        )
        assert sum(not alive for alive in reference.node_alive.values()) > 1
        assert_identical(reference, batched)

    def test_no_death_horizon_cut(self):
        reference = make_simulator(battery_j=50_000.0).run_event_loop(max_time_s=3_600.0)
        batched = make_simulator(battery_j=50_000.0).run(max_time_s=3_600.0)
        assert reference.first_death_time_s is None
        assert reference.lifetime_days is None
        assert_identical(reference, batched)

    def test_max_events_cap(self):
        reference = make_simulator().run_event_loop(
            max_time_s=86_400.0, stop_at_first_death=False, max_events=100
        )
        batched = make_simulator().run(
            max_time_s=86_400.0, stop_at_first_death=False, max_events=100
        )
        assert reference.packets_generated <= 100
        assert_identical(reference, batched)

    def test_zero_events_degenerate(self):
        reference = make_simulator().run_event_loop(max_time_s=10.0, max_events=0)
        batched = make_simulator().run(max_time_s=10.0, max_events=0)
        assert reference.packets_generated == 0
        # an undefined ratio is NaN, not a fake-perfect (or fake-zero) number
        assert math.isnan(reference.delivery_ratio)
        assert reference.lifetime_days is None
        assert_identical(reference, batched)

    def test_chunked_schedule_continuation(self):
        """A run spanning many schedule chunks (tiny interval) stays exact —
        the periodic stream's cumsum continuation matches the scheduler's
        sequential float accumulation across chunk boundaries."""
        kwargs = dict(jitter=0.0, interval_s=2.0, battery_j=60_000.0)
        reference = make_simulator(**kwargs).run_event_loop(
            max_time_s=30_000.0, stop_at_first_death=False
        )
        batched = make_simulator(**kwargs).run(
            max_time_s=30_000.0, stop_at_first_death=False
        )
        assert reference.packets_generated > 10_000
        assert_identical(reference, batched)


class TestContentionEquivalence:
    """The general (contention / flooding / mobility) batch path must match
    the event loop bit for bit, including the per-packet collision draws and
    the drop counters — the counter-based RNG makes the draws a pure function
    of the event index, so both engines observe identical outcomes."""

    CSMA = CsmaMac(channel_load=0.3, max_attempts=3, capture_probability=0.1)

    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    @pytest.mark.parametrize("seed", [0, 7])
    def test_csma_routed(self, topology, seed):
        kwargs = dict(mac=self.CSMA, seed=seed)
        reference = make_simulator(
            deployment=TOPOLOGIES[topology](), **kwargs
        ).run_event_loop(max_time_s=86_400.0)
        batched = make_simulator(
            deployment=TOPOLOGIES[topology](), **kwargs
        ).run(max_time_s=86_400.0)
        assert reference.packets_dropped > 0  # contention must actually bite
        assert_identical(reference, batched)

    @pytest.mark.parametrize("mac", [None, CSMA, SlottedAloha(offered_load=1.0)])
    def test_flooding(self, mac):
        kwargs = dict(protocol=TtlFlooding(ttl=4), mac=mac)
        reference = make_simulator(**kwargs).run_event_loop(max_time_s=86_400.0)
        batched = make_simulator(**kwargs).run(max_time_s=86_400.0)
        assert reference.packets_generated > 0
        assert_identical(reference, batched)

    @pytest.mark.parametrize(
        "protocol,mac",
        [
            (None, CSMA),
            (TtlFlooding(ttl=3), None),
            (TtlFlooding(ttl=3), CSMA),
        ],
    )
    def test_mobility(self, protocol, mac):
        """Epoch-by-epoch topology rebuild under drift, with and without
        contention; partitioned routed sources count as generated-not-delivered
        on both engines."""
        mobility = LinearMobility(speed_mps=0.05, epoch_s=3_600.0, heading_seed=1)
        kwargs = dict(protocol=protocol, mac=mac, mobility=mobility, battery_j=3_000.0)
        reference = make_simulator(**kwargs).run_event_loop(
            max_time_s=6 * 3_600.0, stop_at_first_death=False
        )
        batched = make_simulator(**kwargs).run(
            max_time_s=6 * 3_600.0, stop_at_first_death=False
        )
        assert_identical(reference, batched)

    def test_mobility_long_horizon_partition(self):
        """Many epoch rollovers until the deployment fully partitions: routed
        packets stop being deliverable but the accounting stays exact."""
        mobility = LinearMobility(speed_mps=0.2, epoch_s=1_800.0, heading_seed=3)
        kwargs = dict(
            mac=self.CSMA, mobility=mobility, battery_j=50_000.0, interval_s=120.0
        )
        reference = make_simulator(**kwargs).run_event_loop(
            max_time_s=12 * 3_600.0, stop_at_first_death=False
        )
        batched = make_simulator(**kwargs).run(
            max_time_s=12 * 3_600.0, stop_at_first_death=False
        )
        assert reference.packets_delivered < reference.packets_generated
        assert_identical(reference, batched)

    def test_csma_death_cascade(self):
        """stop_at_first_death=False under contention: the segmented scan and
        boundary replay stay exact through the whole death cascade."""
        reference = make_simulator(mac=self.CSMA, battery_j=100.0).run_event_loop(
            max_time_s=4 * 3_600.0, stop_at_first_death=False
        )
        batched = make_simulator(mac=self.CSMA, battery_j=100.0).run(
            max_time_s=4 * 3_600.0, stop_at_first_death=False
        )
        assert sum(not alive for alive in reference.node_alive.values()) > 1
        assert_identical(reference, batched)

    def test_trials_with_contention(self):
        """Per-seed trials on the general path match the event loop seed for
        seed."""
        deployment = grid_deployment(3, 3, spacing_m=200.0)
        budget = ModemEnergyBudget(
            transmit_power_w=2.0,
            receive_frontend_power_w=0.05,
            processing_energy_per_estimation_j=500.76e-6,
            processing_idle_power_w=0.01,
        )
        shared = dict(
            traffic=PeriodicTraffic(
                report_interval_s=30.0, packet_symbols=16, jitter_fraction=0.1
            ),
            communication_range_m=300.0,
            battery_capacity_j=150.0,
            seeds=[0, 1, 2],
            max_time_s=86_400.0,
            mac=self.CSMA,
            protocol=TtlFlooding(ttl=3),
        )
        batched = seed_trials(deployment, budget, **shared)
        reference = seed_trials(deployment, budget, event_loop=True, **shared)
        assert len(batched) == len(reference) == 3
        for batch_result, loop_result in zip(batched, reference):
            assert_identical(loop_result, batch_result)


class TestScheduleGeneration:
    def test_rng_stream_replay_matches_event_loop_draws(self):
        """The jittered schedule consumes the simulator's RNG exactly as the
        scheduler does: the same seed yields the same event trajectory."""
        traffic = PeriodicTraffic(report_interval_s=60.0, packet_symbols=16, jitter_fraction=0.1)
        times_a, sources_a = generate_report_schedule(
            traffic, [1, 2, 3], as_rng(42), 3_600.0, 10_000
        )
        times_b, sources_b = generate_report_schedule(
            traffic, [1, 2, 3], as_rng(42), 3_600.0, 10_000
        )
        assert (times_a == times_b).all()
        assert (sources_a == sources_b).all()
        assert (times_a[:-1] <= times_a[1:]).all()
        assert times_a[-1] <= 3_600.0

    def test_periodic_schedule_is_staggered_rounds(self):
        traffic = PeriodicTraffic(report_interval_s=100.0, packet_symbols=16, jitter_fraction=0.0)
        times, sources = generate_report_schedule(traffic, [5, 6, 7, 8], as_rng(0), 350.0, 10_000)
        # 4 nodes staggered at 0/25/50/75 within the 100 s interval; the last
        # node's round-3 report (t=375) falls beyond the 350 s horizon
        assert len(times) == 15
        assert list(sources[:4]) == [5, 6, 7, 8]
        assert times[0] == 0.0
        assert times[-1] == 350.0
        assert (times[:-1] <= times[1:]).all()


class TestPerSeedTrials:
    @pytest.mark.parametrize("jitter", [0.0, 0.1])
    def test_trials_match_event_loop_seed_for_seed(self, jitter):
        deployment = grid_deployment(4, 4, spacing_m=200.0)
        budget = ModemEnergyBudget(
            transmit_power_w=2.0,
            receive_frontend_power_w=0.05,
            processing_energy_per_estimation_j=500.76e-6,
            processing_idle_power_w=0.01,
        )
        traffic = PeriodicTraffic(
            report_interval_s=30.0, packet_symbols=16, jitter_fraction=jitter
        )
        shared = dict(
            traffic=traffic,
            communication_range_m=300.0,
            battery_capacity_j=150.0,
            seeds=[0, 1, 2, 3],
            max_time_s=86_400.0,
        )
        batched = seed_trials(deployment, budget, **shared)
        reference = seed_trials(deployment, budget, event_loop=True, **shared)
        assert len(batched) == len(reference) == 4
        for batch_result, loop_result in zip(batched, reference):
            assert batch_result.first_death_time_s is not None
            assert_identical(loop_result, batch_result)

    def test_trials_mixed_censoring(self):
        """Trials that outlive the horizon finalise cleanly, equal to the event loop."""
        deployment = grid_deployment(3, 3, spacing_m=200.0)
        budget = ModemEnergyBudget(processing_energy_per_estimation_j=9.5e-6)
        shared = dict(
            traffic=PeriodicTraffic(
                report_interval_s=600.0, packet_symbols=16, jitter_fraction=0.1
            ),
            communication_range_m=300.0,
            battery_capacity_j=50_000.0,
            seeds=[0, 1],
            max_time_s=3_600.0,
        )
        results = seed_trials(deployment, budget, **shared)
        assert [r.lifetime_days for r in results] == [None, None]
        assert all(r.delivery_ratio == 1.0 for r in results)
        reference = seed_trials(deployment, budget, event_loop=True, **shared)
        for batch_result, loop_result in zip(results, reference):
            assert_identical(loop_result, batch_result)


class TestAnalyticalLifetimeBatch:
    def test_vectorised_lifetimes_bit_equal_scalar(self):
        deployment = grid_deployment(3, 3, spacing_m=200.0)
        simulator = NetworkSimulator(
            deployment=deployment,
            energy_budget=ModemEnergyBudget(),
            communication_range_m=250.0,
        )
        traffic = PeriodicTraffic(report_interval_s=120.0, packet_symbols=16, jitter_fraction=0.0)
        platforms = {name: uj * 1e-6 for name, uj in PLATFORMS.items()}
        idle = {name: joules / 22.4e-3 for name, joules in platforms.items()}
        scalar = lifetime_by_platform_per_node(
            simulator.routing, traffic, 50_000.0, platforms, platform_idle_power_w=idle,
        )
        vectorised = lifetime_by_platform(
            simulator.routing, traffic, 50_000.0, platforms, platform_idle_power_w=idle,
        )
        assert vectorised == scalar  # exact float equality, platform by platform

"""Unit tests for the contention layer: CSMA MAC, counter-based uniforms,
TTL flooding, drift mobility and the density/PDR coupling.

The end-to-end batch-vs-event-loop equivalence of these features lives in
``test_batch_equivalence.py``; this module pins the building blocks in
isolation against hand-computed examples.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.modem.energy_budget import ModemEnergyBudget
from repro.network.mac import CsmaMac
from repro.network.routing import TtlFlooding, flood_packet
from repro.network.simulator import NetworkSimulator
from repro.network.topology import Deployment, LinearMobility, grid_deployment
from repro.network.traffic import PeriodicTraffic
from repro.utils.rng import counter_uniforms


class TestCsmaMac:
    def test_no_contenders_always_clear(self):
        mac = CsmaMac(channel_load=0.4)
        assert mac.attempt_success_probability(0) == 1.0
        assert mac.delivery_probability(0) == 1.0

    def test_success_falls_with_contenders(self):
        mac = CsmaMac(channel_load=0.2)
        probs = [mac.attempt_success_probability(c) for c in range(6)]
        assert all(a > b for a, b in zip(probs, probs[1:]))
        # hand check: clear = (1 - 0.2)^2 with no capture
        assert probs[2] == pytest.approx(0.64)

    def test_capture_recovers_collisions(self):
        plain = CsmaMac(channel_load=0.3, capture_probability=0.0)
        capture = CsmaMac(channel_load=0.3, capture_probability=0.5)
        assert capture.attempt_success_probability(3) > plain.attempt_success_probability(3)
        # full capture means every attempt decodes regardless of contention
        always = CsmaMac(channel_load=0.9, capture_probability=1.0)
        assert always.attempt_success_probability(10) == 1.0

    def test_delivery_probability_truncated_geometric(self):
        mac = CsmaMac(channel_load=0.5, max_attempts=3)
        p = mac.attempt_success_probability(2)  # 0.25
        assert mac.delivery_probability(2) == pytest.approx(1.0 - (1.0 - p) ** 3)

    def test_expected_transmissions_closed_form(self):
        mac = CsmaMac(channel_load=0.5, max_attempts=4)
        p = mac.attempt_success_probability(2)
        closed_form = (1.0 - (1.0 - p) ** 4) / p
        assert mac.expected_transmissions_per_packet(2) == pytest.approx(
            closed_form, rel=1e-12
        )
        assert mac.expected_transmissions_per_packet(0) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            CsmaMac(channel_load=1.5)
        with pytest.raises(ValueError):
            CsmaMac(max_attempts=0)
        with pytest.raises(ValueError):
            CsmaMac(capture_probability=-0.1)
        with pytest.raises(ValueError):
            CsmaMac().attempt_success_probability(-1)


class TestCounterUniforms:
    def test_deterministic_and_in_range(self):
        a = counter_uniforms(42, np.arange(100), 8)
        b = counter_uniforms(42, np.arange(100), 8)
        assert (a == b).all()
        assert a.shape == (100, 8)
        assert (a >= 0.0).all() and (a < 1.0).all()

    def test_scalar_matches_vector_row(self):
        """The property both engines rely on: a scalar (event-loop) call sees
        exactly the row the vectorised (batch) call sees for that event."""
        matrix = counter_uniforms(7, np.array([3, 11, 900_000]), 6)
        for row, event in enumerate((3, 11, 900_000)):
            scalar = counter_uniforms(7, event, 6)
            assert scalar.shape == (6,)
            assert (scalar == matrix[row]).all()

    def test_prefix_consistency(self):
        """Reading fewer slots yields a prefix of the longer read — the
        event loop can stop early (hop succeeded) without desyncing."""
        long = counter_uniforms(5, 17, 10)
        short = counter_uniforms(5, 17, 4)
        assert (short == long[:4]).all()

    def test_seed_and_event_sensitivity(self):
        assert not (counter_uniforms(1, 0, 8) == counter_uniforms(2, 0, 8)).all()
        assert not (counter_uniforms(1, 0, 8) == counter_uniforms(1, 1, 8)).all()

    def test_roughly_uniform(self):
        values = counter_uniforms(0, np.arange(2_000), 4).ravel()
        assert values.mean() == pytest.approx(0.5, abs=0.01)
        assert values.std() == pytest.approx(1.0 / math.sqrt(12.0), abs=0.01)

    def test_degenerate_slots(self):
        assert counter_uniforms(0, 0, 0).shape == (0,)
        with pytest.raises(ValueError):
            counter_uniforms(0, 0, -1)


CHAIN = {0: [1], 1: [0, 2], 2: [1, 3], 3: [2]}


class TestFloodPacket:
    def test_chain_flood_hand_example(self):
        broadcasts, delivered = flood_packet(
            CHAIN, lambda n: True, source=3, sink=0, ttl=3,
            edge_success=lambda u, v: True,
        )
        assert delivered
        # level-synchronous: 3 floods, then 2 (3 already heard), then 1; the
        # sink never rebroadcasts, and every alive neighbour pays reception
        assert broadcasts == [(3, [2]), (2, [1, 3]), (1, [0, 2])]

    def test_ttl_expires_before_sink(self):
        broadcasts, delivered = flood_packet(
            CHAIN, lambda n: True, source=3, sink=0, ttl=2,
            edge_success=lambda u, v: True,
        )
        assert not delivered
        assert broadcasts == [(3, [2]), (2, [1, 3])]

    def test_failed_decodes_still_charge_receivers(self):
        """Undecoded copies do not propagate, but the broadcast still lists
        (and the simulator still charges) every alive neighbour."""
        broadcasts, delivered = flood_packet(
            CHAIN, lambda n: True, source=3, sink=0, ttl=3,
            edge_success=lambda u, v: False,
        )
        assert not delivered
        assert broadcasts == [(3, [2])]

    def test_dead_relay_partitions_flood(self):
        broadcasts, delivered = flood_packet(
            CHAIN, lambda n: n != 2, source=3, sink=0, ttl=5,
            edge_success=lambda u, v: True,
        )
        assert not delivered
        assert broadcasts == [(3, [])]

    def test_ttl_validation(self):
        with pytest.raises(ValueError):
            TtlFlooding(ttl=0)
        assert TtlFlooding(ttl=2).name == "flooding"

    def test_source_is_sink_no_broadcasts(self):
        broadcasts, delivered = flood_packet(
            CHAIN, lambda n: True, source=0, sink=0, ttl=3,
            edge_success=lambda u, v: True,
        )
        assert delivered
        assert broadcasts == []


class TestLinearMobility:
    DEPLOYMENT = Deployment(
        positions={0: (100.0, 100.0), 1: (0.0, 0.0), 2: (200.0, 0.0)}, sink_id=0
    )

    def test_epoch_zero_is_identity(self):
        mobility = LinearMobility(speed_mps=0.1, epoch_s=3_600.0)
        assert mobility.positions_at(self.DEPLOYMENT, 0) is self.DEPLOYMENT

    def test_sink_is_moored(self):
        mobility = LinearMobility(speed_mps=0.5, epoch_s=3_600.0)
        drifted = mobility.positions_at(self.DEPLOYMENT, 4)
        assert drifted.positions[0] == (100.0, 100.0)
        assert drifted.sink_id == 0

    def test_drift_distance_is_speed_times_elapsed(self):
        mobility = LinearMobility(speed_mps=0.25, epoch_s=1_000.0)
        drifted = mobility.positions_at(self.DEPLOYMENT, 3)
        for node_id in (1, 2):
            x0, y0 = self.DEPLOYMENT.positions[node_id]
            x1, y1 = drifted.positions[node_id]
            assert math.hypot(x1 - x0, y1 - y0) == pytest.approx(0.25 * 3 * 1_000.0)

    def test_headings_deterministic_and_distinct(self):
        mobility = LinearMobility(speed_mps=0.1, heading_seed=9)
        assert mobility.heading_rad(1) == mobility.heading_rad(1)
        assert mobility.heading_rad(1) != mobility.heading_rad(2)
        assert 0.0 <= mobility.heading_rad(1) < 2.0 * math.pi
        other_seed = LinearMobility(speed_mps=0.1, heading_seed=10)
        assert other_seed.heading_rad(1) != mobility.heading_rad(1)

    def test_epoch_index(self):
        mobility = LinearMobility(speed_mps=0.1, epoch_s=100.0)
        assert mobility.epoch_index(0.0) == 0
        assert mobility.epoch_index(99.999) == 0
        assert mobility.epoch_index(100.0) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            LinearMobility(speed_mps=0.0)
        with pytest.raises(ValueError):
            LinearMobility(speed_mps=0.1, epoch_s=0.0)
        with pytest.raises(ValueError):
            LinearMobility(speed_mps=0.1).positions_at(self.DEPLOYMENT, -1)


def density_simulator(side: int, seed: int = 0) -> NetworkSimulator:
    """A fixed-area deployment at side*side nodes under the contention MAC."""
    area = 600.0
    return NetworkSimulator(
        deployment=grid_deployment(side, side, spacing_m=area / (side - 1)),
        energy_budget=ModemEnergyBudget(processing_energy_per_estimation_j=500.76e-6),
        traffic=PeriodicTraffic(report_interval_s=60.0, packet_symbols=16),
        communication_range_m=320.0,
        battery_capacity_j=50_000.0,
        mac=CsmaMac(channel_load=0.1, max_attempts=5),
        rng=seed,
    )


def run_density(side: int, seed: int = 0):
    return density_simulator(side, seed).run(
        max_time_s=0.05 * 86_400.0, stop_at_first_death=False
    )


class TestDensityPdrCoupling:
    def test_pdr_falls_as_density_rises(self):
        """The tentpole's headline behaviour: same area, more nodes, more
        contenders per receiver, lower delivery ratio — and real drops."""
        sparse = run_density(3)
        dense = run_density(6)
        assert sparse.delivery_ratio > dense.delivery_ratio
        assert dense.packets_dropped > sparse.packets_dropped
        assert dense.packets_dropped > 0
        assert (
            dense.packets_delivered + dense.packets_dropped <= dense.packets_generated
        )

    def test_drops_counted_per_node(self):
        simulator = density_simulator(6)
        dense = simulator.run(max_time_s=0.05 * 86_400.0, stop_at_first_death=False)
        per_node = sum(node.packets_dropped for node in simulator.nodes.values())
        assert per_node == dense.packets_dropped

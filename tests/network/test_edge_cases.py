"""Edge-case coverage for topology, routing and degenerate traffic configs."""

from __future__ import annotations

import math

import pytest

from repro.modem.energy_budget import ModemEnergyBudget
from repro.network.lifetime import subtree_sizes
from repro.network.routing import shortest_path_routing
from repro.network.simulator import NetworkSimulator
from repro.network.topology import (
    Deployment,
    connectivity_graph,
    grid_deployment,
    random_deployment,
)
from repro.network.traffic import PeriodicTraffic


class TestSingleNodeNetwork:
    def test_single_node_deployment_rejected(self):
        with pytest.raises(ValueError, match="at least two nodes"):
            Deployment(positions={0: (0.0, 0.0)}, sink_id=0)

    def test_single_node_grid_rejected(self):
        with pytest.raises(ValueError):
            grid_deployment(1, 1)

    def test_single_node_random_rejected(self):
        with pytest.raises(ValueError):
            random_deployment(1)

    def test_minimal_two_node_network_end_to_end(self):
        """Sink + one sensor: one-hop routing, every packet delivered."""
        deployment = Deployment(positions={0: (0.0, 0.0), 1: (100.0, 0.0)}, sink_id=0)
        graph = connectivity_graph(deployment, communication_range_m=150.0)
        routing = shortest_path_routing(graph, 0)
        assert routing.route(1) == [1, 0]
        assert routing.max_hops == 1
        assert subtree_sizes(routing) == {1: 1}
        simulator = NetworkSimulator(
            deployment=deployment,
            energy_budget=ModemEnergyBudget(),
            traffic=PeriodicTraffic(report_interval_s=60.0, packet_symbols=16,
                                    jitter_fraction=0.0),
            communication_range_m=150.0,
            battery_capacity_j=10_000.0,
        )
        result = simulator.run(max_time_s=600.0, stop_at_first_death=False)
        assert result.packets_generated == 11  # t = 0, 60, ..., 600
        assert result.delivery_ratio == 1.0


class TestDisconnectedNode:
    def test_disconnected_node_rejected_and_named(self):
        positions = {0: (0.0, 0.0), 1: (100.0, 0.0), 2: (10_000.0, 0.0)}
        with pytest.raises(ValueError, match=r"\[2\]"):
            connectivity_graph(Deployment(positions=positions, sink_id=0), 150.0)

    def test_disconnected_island_rejected(self):
        # nodes 2 and 3 reach each other but not the sink
        positions = {
            0: (0.0, 0.0), 1: (100.0, 0.0),
            2: (10_000.0, 0.0), 3: (10_100.0, 0.0),
        }
        with pytest.raises(ValueError, match="cannot reach the sink"):
            connectivity_graph(Deployment(positions=positions, sink_id=0), 150.0)

    def test_routing_rejects_graph_missing_sink(self):
        deployment = grid_deployment(2, 2, spacing_m=100.0)
        graph = connectivity_graph(deployment, communication_range_m=150.0)
        with pytest.raises(ValueError, match="sink id 99"):
            shortest_path_routing(graph, 99)


class TestConnectivityVectorisation:
    def test_boundary_distance_is_an_edge(self):
        """A pair at exactly the communication range must keep its edge (the
        vectorised candidate preselection must not drop boundary pairs)."""
        positions = {0: (0.0, 0.0), 1: (300.0, 0.0)}
        graph = connectivity_graph(Deployment(positions=positions, sink_id=0), 300.0)
        assert 1 in graph[0] and 0 in graph[1]
        assert graph[0][1] == graph[1][0] == 300.0

    def test_edges_match_scalar_definition(self):
        deployment = random_deployment(30, area_m=(800.0, 800.0), rng=7)
        communication_range = 320.0
        graph = connectivity_graph(deployment, communication_range)
        ids = list(deployment.positions)
        expected = {
            (a, b)
            for i, a in enumerate(ids)
            for b in ids[i + 1 :]
            if deployment.distance(a, b) <= communication_range
        }
        got = {(min(a, b), max(a, b)) for a in graph for b in graph[a]}
        assert got == {(min(a, b), max(a, b)) for a, b in expected}
        for a in graph:
            for b, weight in graph[a].items():
                assert weight == graph[b][a] == deployment.distance(a, b)

    def test_position_array_roundtrip(self):
        deployment = grid_deployment(2, 3, spacing_m=50.0)
        ids, points = deployment.position_array()
        assert points.shape == (6, 2)
        for row, node_id in enumerate(ids):
            assert tuple(points[row]) == deployment.positions[node_id]
            assert math.hypot(*points[row]) == pytest.approx(
                deployment.distance(0, node_id) if node_id else 0.0
            )


class TestSubtreeSizes:
    def test_line_topology_sizes(self):
        """On a 1 x 4 line every node carries its whole downstream subtree."""
        deployment = grid_deployment(1, 4, spacing_m=100.0)
        graph = connectivity_graph(deployment, communication_range_m=150.0)
        routing = shortest_path_routing(graph, 0)
        assert subtree_sizes(routing) == {1: 3, 2: 2, 3: 1}

    def test_star_topology_sizes(self):
        positions = {
            0: (0.0, 0.0),
            1: (100.0, 0.0), 2: (-100.0, 0.0), 3: (0.0, 100.0),
        }
        graph = connectivity_graph(Deployment(positions=positions, sink_id=0), 150.0)
        routing = shortest_path_routing(graph, 0)
        assert subtree_sizes(routing) == {1: 1, 2: 1, 3: 1}


class TestDegenerateZeroTraffic:
    def test_zero_report_interval_rejected(self):
        with pytest.raises(ValueError):
            PeriodicTraffic(report_interval_s=0.0)

    def test_zero_packet_symbols_rejected(self):
        with pytest.raises(ValueError):
            PeriodicTraffic(packet_symbols=0)

    @pytest.mark.parametrize("entry", ["run_event_loop", "run"])
    def test_no_events_processed(self, entry):
        """max_events=0: the simulation observes no traffic at all — zero
        packets, delivery ratio NaN (undefined, not a division error or a
        fake-perfect 1.0), no lifetime."""
        simulator = NetworkSimulator(
            deployment=grid_deployment(2, 2, spacing_m=100.0),
            energy_budget=ModemEnergyBudget(),
            traffic=PeriodicTraffic(report_interval_s=60.0, packet_symbols=16,
                                    jitter_fraction=0.0),
            communication_range_m=150.0,
            battery_capacity_j=1_000.0,
        )
        result = getattr(simulator, entry)(max_time_s=100.0, max_events=0)
        assert result.packets_generated == 0
        assert result.packets_delivered == 0
        assert math.isnan(result.delivery_ratio)
        assert result.lifetime_days is None
        assert result.simulated_time_s == 0.0
        assert all(result.node_alive.values())

    @pytest.mark.parametrize("entry", ["run_event_loop", "run"])
    def test_horizon_shorter_than_first_reports(self, entry):
        """A horizon inside the stagger window sees only node 1's t=0 report."""
        simulator = NetworkSimulator(
            deployment=grid_deployment(2, 2, spacing_m=100.0),
            energy_budget=ModemEnergyBudget(),
            traffic=PeriodicTraffic(report_interval_s=10_000.0, packet_symbols=16,
                                    jitter_fraction=0.0),
            communication_range_m=150.0,
            battery_capacity_j=10_000.0,
        )
        result = getattr(simulator, entry)(max_time_s=5.0, stop_at_first_death=False)
        assert result.packets_generated == 1
        assert result.delivery_ratio == 1.0

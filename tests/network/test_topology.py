"""Unit tests for deployments and connectivity graphs."""

from __future__ import annotations

import pytest

from repro.network.topology import (
    Deployment,
    connectivity_graph,
    grid_deployment,
    random_deployment,
)


class TestGridDeployment:
    def test_node_count_and_positions(self):
        deployment = grid_deployment(3, 4, spacing_m=100.0)
        assert deployment.num_nodes == 12
        assert deployment.positions[0] == (0.0, 0.0)
        assert deployment.positions[11] == (300.0, 200.0)

    def test_neighbour_distance_is_spacing(self):
        deployment = grid_deployment(2, 2, spacing_m=150.0)
        assert deployment.distance(0, 1) == pytest.approx(150.0)
        assert deployment.distance(0, 3) == pytest.approx(150.0 * 2**0.5)

    def test_max_pairwise_distance(self):
        deployment = grid_deployment(2, 3, spacing_m=100.0)
        assert deployment.max_pairwise_distance() == pytest.approx((200**2 + 100**2) ** 0.5)

    def test_single_node_grid_rejected(self):
        with pytest.raises(ValueError):
            grid_deployment(1, 1)

    def test_paper_scale_deployment(self):
        # "10s to 100s of nodes spaced ... up to a few hundred meters"
        deployment = grid_deployment(10, 10, spacing_m=200.0)
        assert deployment.num_nodes == 100


class TestRandomDeployment:
    def test_reproducible(self):
        a = random_deployment(20, rng=0)
        b = random_deployment(20, rng=0)
        assert a.positions == b.positions

    def test_sink_at_center(self):
        deployment = random_deployment(10, area_m=(800.0, 600.0), rng=1)
        assert deployment.positions[0] == (400.0, 300.0)
        assert deployment.sink_id == 0

    def test_positions_inside_area(self):
        deployment = random_deployment(50, area_m=(500.0, 400.0), rng=2)
        for x, y in deployment.positions.values():
            assert 0.0 <= x <= 500.0
            assert 0.0 <= y <= 400.0

    def test_minimum_two_nodes(self):
        with pytest.raises(ValueError):
            random_deployment(1)


class TestDeploymentValidation:
    def test_sink_must_be_deployed(self):
        with pytest.raises(ValueError):
            Deployment(positions={1: (0.0, 0.0), 2: (1.0, 1.0)}, sink_id=0)


class TestConnectivityGraph:
    def test_grid_with_sufficient_range_is_connected(self):
        deployment = grid_deployment(4, 4, spacing_m=200.0)
        graph = connectivity_graph(deployment, communication_range_m=250.0)
        reached, pending = {0}, [0]
        while pending:
            for neighbour in graph[pending.pop()]:
                if neighbour not in reached:
                    reached.add(neighbour)
                    pending.append(neighbour)
        assert reached == set(graph)
        assert len(graph) == 16

    def test_edge_weights_are_distances(self):
        deployment = grid_deployment(2, 2, spacing_m=100.0)
        graph = connectivity_graph(deployment, communication_range_m=120.0)
        assert graph[0][1] == pytest.approx(100.0)
        assert 3 not in graph[0]  # diagonal (141 m) exceeds the 120 m range

    def test_disconnected_deployment_rejected(self):
        deployment = grid_deployment(1, 3, spacing_m=500.0)
        with pytest.raises(ValueError, match="cannot reach the sink"):
            connectivity_graph(deployment, communication_range_m=300.0)

    def test_larger_range_adds_edges(self):
        deployment = grid_deployment(3, 3, spacing_m=200.0)
        short = connectivity_graph(deployment, communication_range_m=250.0)
        long = connectivity_graph(deployment, communication_range_m=450.0)
        assert sum(map(len, long.values())) > sum(map(len, short.values()))

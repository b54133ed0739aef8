"""Unit tests for static shortest-path routing."""

from __future__ import annotations

import pytest

from repro.network.routing import shortest_path_routing
from repro.network.topology import connectivity_graph, grid_deployment


@pytest.fixture()
def grid_graph():
    deployment = grid_deployment(3, 3, spacing_m=200.0)
    return connectivity_graph(deployment, communication_range_m=250.0)


class TestShortestPathRouting:
    def test_sink_routes_to_itself(self, grid_graph):
        routing = shortest_path_routing(grid_graph, sink_id=0)
        assert routing.next_hop[0] == 0
        assert routing.hops(0) == 0

    def test_every_node_has_route(self, grid_graph):
        routing = shortest_path_routing(grid_graph, sink_id=0)
        assert set(routing.next_hop) == set(grid_graph)
        for node in grid_graph:
            path = routing.route(node)
            assert path[0] == node and path[-1] == 0

    def test_next_hop_is_neighbour_on_path(self, grid_graph):
        routing = shortest_path_routing(grid_graph, sink_id=0)
        for node in grid_graph:
            if node == 0:
                continue
            assert routing.next_hop[node] in grid_graph[node]
            assert routing.route(node)[1] == routing.next_hop[node]

    def test_hop_counts_on_grid(self, grid_graph):
        routing = shortest_path_routing(grid_graph, sink_id=0)
        # node 8 is the far corner of the 3x3 grid -> 4 hops along the lattice
        assert routing.hops(8) == 4
        assert routing.hops(1) == 1
        assert routing.max_hops == 4

    def test_routes_minimise_distance(self, grid_graph):
        nx = pytest.importorskip("networkx")  # the path-length oracle
        routing = shortest_path_routing(grid_graph, sink_id=0)
        oracle = nx.Graph()
        oracle.add_weighted_edges_from(
            (a, b, weight) for a in grid_graph for b, weight in grid_graph[a].items()
        )
        for node in grid_graph:
            path = routing.route(node)
            length = sum(grid_graph[a][b] for a, b in zip(path, path[1:]))
            expected = nx.shortest_path_length(oracle, node, 0, weight="weight")
            assert length == pytest.approx(expected)

    def test_unknown_sink_rejected(self, grid_graph):
        with pytest.raises(ValueError):
            shortest_path_routing(grid_graph, sink_id=99)

    def test_unreachable_node_rejected(self):
        graph = {0: {1: 1.0}, 1: {0: 1.0}, 2: {}}
        with pytest.raises(ValueError):
            shortest_path_routing(graph, sink_id=0)

"""Differential conformance: stdlib connectivity and routing vs networkx.

networkx is the oracle (a test dependency only).  For grid deployments —
where equal-length routes make tie-breaking matter — random deployments and
partitioned ones (``allow_partial=True``), the oracle graph is built from
the deployment by the scalar definition (every pair within range, in
deployment order), and:

* :func:`connectivity_graph` must hold exactly its edges and weights;
* :func:`shortest_path_routing` must return path dicts ``==``
  ``nx.shortest_path(graph, target=sink, weight="weight")``, and leave out
  exactly the nodes networkx finds no path for.

CI runs this under the pinned, derandomised ``ci`` profile.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")
nx = pytest.importorskip("networkx")

from hypothesis import given, strategies as st  # noqa: E402

from repro.network.routing import shortest_path_routing  # noqa: E402
from repro.network.topology import (  # noqa: E402
    connectivity_graph,
    grid_deployment,
    random_deployment,
)


def _oracle_graph(deployment, communication_range_m):
    """The connectivity graph as networkx builds it from the scalar definition."""
    graph = nx.Graph()
    graph.add_nodes_from(deployment.positions)
    ids = list(deployment.positions)
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            distance = deployment.distance(a, b)
            if distance <= communication_range_m:
                graph.add_edge(a, b, weight=distance)
    return graph


def _assert_conforms(deployment, communication_range_m):
    oracle = _oracle_graph(deployment, communication_range_m)
    graph = connectivity_graph(deployment, communication_range_m, require_connected=False)
    assert list(graph) == list(oracle.nodes)
    for node in graph:
        # same neighbours, same weights, same (deployment) order
        assert list(graph[node].items()) == [
            (neighbour, data["weight"]) for neighbour, data in oracle.adj[node].items()
        ]
    sink = deployment.sink_id
    routing = shortest_path_routing(graph, sink, allow_partial=True)
    expected = nx.shortest_path(oracle, target=sink, weight="weight")
    assert routing.paths == expected
    assert set(routing.next_hop) == set(expected)
    for node, path in expected.items():
        assert routing.next_hop[node] == (path[1] if len(path) > 1 else sink)
    unreachable = [node for node in oracle if node not in expected]
    if unreachable:
        with pytest.raises(ValueError, match="cannot reach the sink"):
            connectivity_graph(deployment, communication_range_m)
        with pytest.raises(ValueError, match="no route to the sink"):
            shortest_path_routing(graph, sink)
    else:
        assert connectivity_graph(deployment, communication_range_m) == graph


@given(
    rows=st.integers(1, 6),
    cols=st.integers(2, 6),
    spacing_m=st.sampled_from([50.0, 100.0, 137.5, 200.0]),
    # ranges between 1x and 3x the spacing admit diagonals and multi-cell
    # hops: many equal-length routes, so ties decide the paths
    range_factor=st.floats(1.0, 3.0),
    sink_id=st.integers(0, 35),
)
def test_grid_routing_matches_networkx(rows, cols, spacing_m, range_factor, sink_id):
    deployment = grid_deployment(rows, cols, spacing_m=spacing_m, sink_id=sink_id % (rows * cols))
    _assert_conforms(deployment, spacing_m * range_factor)


@given(
    num_nodes=st.integers(2, 30),
    side_m=st.floats(200.0, 2000.0),
    seed=st.integers(0, 2**32 - 1),
    communication_range_m=st.floats(100.0, 600.0),
)
def test_random_routing_matches_networkx(num_nodes, side_m, seed, communication_range_m):
    # wide areas with short ranges partition: covers allow_partial=True
    deployment = random_deployment(num_nodes, area_m=(side_m, side_m), rng=seed)
    _assert_conforms(deployment, communication_range_m)


def test_partitioned_deployment_is_covered():
    """A fixed partitioned case: the island is left out of the partial table."""
    deployment = random_deployment(12, area_m=(2000.0, 2000.0), rng=5)
    oracle = _oracle_graph(deployment, 300.0)
    assert not nx.is_connected(oracle)
    _assert_conforms(deployment, 300.0)

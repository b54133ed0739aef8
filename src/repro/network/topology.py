"""Deployment geometries, acoustic connectivity graphs and node mobility.

The paper targets deployments of "10s to 100s of nodes spaced a relatively
small distance apart (up to a few hundred meters)".  Two deployment
generators are provided — a regular grid and a uniform random scatter over a
rectangular area — plus the connectivity graph induced by a maximum acoustic
communication range (built with networkx, so routing can reuse its
shortest-path machinery), and :class:`LinearMobility`, a current-drift model
that displaces sensor positions over time (the moored sink stays put) so the
topology and routes can be rebuilt epoch by epoch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.utils.rng import as_rng, counter_uniforms
from repro.utils.validation import check_integer, check_positive

if TYPE_CHECKING:
    import networkx as nx

__all__ = [
    "Deployment",
    "LinearMobility",
    "grid_deployment",
    "random_deployment",
    "connectivity_graph",
]


@dataclass(frozen=True)
class Deployment:
    """A set of node positions plus the designated sink.

    Attributes
    ----------
    positions:
        Mapping from node id to (x, y) position in metres.
    sink_id:
        The node acting as the data sink / gateway.
    """

    positions: dict[int, tuple[float, float]]
    sink_id: int = 0

    def __post_init__(self) -> None:
        if self.sink_id not in self.positions:
            raise ValueError(f"sink id {self.sink_id} is not among the deployed nodes")
        if len(self.positions) < 2:
            raise ValueError("a deployment needs at least two nodes (sink + one sensor)")

    @property
    def num_nodes(self) -> int:
        """Number of deployed nodes, sink included."""
        return len(self.positions)

    def position_array(self) -> tuple[list[int], np.ndarray]:
        """Node ids (in insertion order) and their positions as an (N, 2) array."""
        ids = list(self.positions)
        return ids, np.asarray([self.positions[node_id] for node_id in ids], dtype=np.float64)

    def distance(self, a: int, b: int) -> float:
        """Euclidean distance between two nodes in metres."""
        xa, ya = self.positions[a]
        xb, yb = self.positions[b]
        return math.hypot(xa - xb, ya - yb)

    def max_pairwise_distance(self) -> float:
        """Largest node-to-node distance (the deployment's diameter)."""
        ids = list(self.positions)
        return max(
            self.distance(a, b) for i, a in enumerate(ids) for b in ids[i + 1 :]
        )


def grid_deployment(
    rows: int,
    cols: int,
    spacing_m: float = 200.0,
    sink_id: int = 0,
) -> Deployment:
    """Regular ``rows x cols`` grid with ``spacing_m`` between neighbours.

    Node ids are assigned row-major starting at 0; the sink defaults to node 0
    (a grid corner).
    """
    check_integer("rows", rows, minimum=1)
    check_integer("cols", cols, minimum=1)
    check_positive("spacing_m", spacing_m)
    if rows * cols < 2:
        raise ValueError("grid must contain at least two nodes")
    positions = {
        r * cols + c: (c * spacing_m, r * spacing_m)
        for r in range(rows)
        for c in range(cols)
    }
    return Deployment(positions=positions, sink_id=sink_id)


def random_deployment(
    num_nodes: int,
    area_m: tuple[float, float] = (1000.0, 1000.0),
    rng: np.random.Generator | int | None = None,
    sink_at_center: bool = True,
) -> Deployment:
    """Uniform random scatter of ``num_nodes`` nodes over a rectangle.

    The sink (node 0) is placed at the centre of the area by default, which is
    the usual gateway placement for a moored buoy.
    """
    check_integer("num_nodes", num_nodes, minimum=2)
    width, height = area_m
    check_positive("area width", width)
    check_positive("area height", height)
    rng = as_rng(rng)
    positions: dict[int, tuple[float, float]] = {}
    start = 0
    if sink_at_center:
        positions[0] = (width / 2.0, height / 2.0)
        start = 1
    for node_id in range(start, num_nodes):
        positions[node_id] = (float(rng.uniform(0, width)), float(rng.uniform(0, height)))
    return Deployment(positions=positions, sink_id=0)


@dataclass(frozen=True)
class LinearMobility:
    """Constant-velocity drift of the sensor nodes (ocean-current mobility).

    Each sensor drifts at ``speed_mps`` along a fixed per-node heading derived
    deterministically from ``heading_seed`` (a counter-based hash, so no RNG
    stream state is consumed); the sink is a moored buoy and never moves.
    Positions are piecewise constant over epochs of ``epoch_s`` seconds — the
    granularity at which the simulator rebuilds connectivity and routing.
    Drifted deployments may disconnect; the simulator builds the graph in
    non-strict mode and treats partitioned sources as undeliverable.

    Parameters
    ----------
    speed_mps:
        Drift speed magnitude applied to every sensor node.
    epoch_s:
        Topology refresh period in seconds.
    heading_seed:
        Seed of the per-node heading hash.
    """

    speed_mps: float
    epoch_s: float = 21_600.0
    heading_seed: int = 0

    def __post_init__(self) -> None:
        check_positive("speed_mps", self.speed_mps)
        check_positive("epoch_s", self.epoch_s)

    def epoch_index(self, time_s: float) -> int:
        """The epoch containing absolute time ``time_s``."""
        return int(time_s // self.epoch_s)

    def heading_rad(self, node_id: int) -> float:
        """The node's fixed drift heading in radians (deterministic per node)."""
        return float(2.0 * math.pi * counter_uniforms(self.heading_seed, node_id, 1)[0])

    def positions_at(self, deployment: Deployment, epoch: int) -> Deployment:
        """The deployment as displaced at the *start* of ``epoch``."""
        check_integer("epoch", epoch, minimum=0)
        if epoch == 0:
            return deployment
        distance = self.speed_mps * epoch * self.epoch_s
        positions: dict[int, tuple[float, float]] = {}
        for node_id, (x, y) in deployment.positions.items():
            if node_id == deployment.sink_id:
                positions[node_id] = (x, y)
                continue
            heading = self.heading_rad(node_id)
            positions[node_id] = (
                x + distance * math.cos(heading),
                y + distance * math.sin(heading),
            )
        return Deployment(positions=positions, sink_id=deployment.sink_id)


def connectivity_graph(
    deployment: Deployment,
    communication_range_m: float,
    require_connected: bool = True,
) -> nx.Graph:
    """Build the connectivity graph: an edge joins nodes within acoustic range.

    Edge weights carry the inter-node distance (metres), which the routing
    layer uses as its path metric.  ``require_connected=False`` permits nodes
    with no path to the sink (drifted/mobile deployments partition routinely;
    the simulator then treats partitioned sources as undeliverable).

    Raises
    ------
    ValueError
        If ``require_connected`` and the graph leaves any node disconnected
        from the sink — an unusable deployment for a data-collection network.
    """
    import networkx as nx

    check_positive("communication_range_m", communication_range_m)
    graph = nx.Graph()
    graph.add_nodes_from(deployment.positions)
    ids, points = deployment.position_array()
    # vectorised candidate selection (squared distances, with a small margin
    # against rounding), then the exact per-pair hypot check so the edge set
    # and weights match the scalar definition bit for bit
    deltas = points[:, np.newaxis, :] - points[np.newaxis, :, :]
    squared = np.einsum("ijk,ijk->ij", deltas, deltas)
    margin = (communication_range_m * (1.0 + 1e-9)) ** 2
    candidates = np.argwhere(np.triu(squared <= margin, k=1))
    for i, j in candidates:
        a, b = ids[i], ids[j]
        distance = deployment.distance(a, b)
        if distance <= communication_range_m:
            graph.add_edge(a, b, weight=distance)
    unreachable = [
        n for n in graph.nodes
        if n != deployment.sink_id and not nx.has_path(graph, n, deployment.sink_id)
    ]
    if unreachable and require_connected:
        raise ValueError(
            f"nodes {unreachable} cannot reach the sink with range {communication_range_m} m; "
            "increase the range or densify the deployment"
        )
    return graph

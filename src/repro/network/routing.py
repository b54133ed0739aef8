"""Routing and forwarding protocols toward the sink.

Routing protocols are out of scope for the paper (they live in the layers
above the modem, Figure 1), so a simple static scheme is sufficient: every
node forwards toward the sink along the minimum-total-distance path computed
once over the connectivity graph.

Two *protocol models* select how a generated report travels:

* :class:`RoutedForwarding` — hop-by-hop unicast along the shortest-path tree
  (the default, and the only mode prior to the contention layer);
* :class:`TtlFlooding` — TTL-bounded broadcast flooding: every node that
  first hears a packet rebroadcasts it once (while the TTL allows), every
  in-range neighbour pays reception energy, and delivery means the sink heard
  any copy.  Flooding needs no routing state, so it keeps working on
  partitioned/mobile topologies where unicast routes do not exist.

:func:`flood_packet` is the executable specification of one flood — the
event-loop simulator charges energy from its broadcast list, and the batched
engine reproduces the identical outcome vectorised over whole event chunks.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import count, islice
from typing import TYPE_CHECKING, Callable

from repro.utils.validation import check_integer

if TYPE_CHECKING:
    from repro.network.topology import Graph

__all__ = [
    "RoutingTable",
    "RoutedForwarding",
    "TtlFlooding",
    "flood_packet",
    "shortest_path_routing",
]


@dataclass(frozen=True)
class RoutingTable:
    """Next-hop table toward a single sink.

    Attributes
    ----------
    sink_id:
        Destination of every route.
    next_hop:
        Mapping from node id to the neighbour it forwards to (the sink maps to
        itself).
    paths:
        Full node-id path from each node to the sink (inclusive).  Built with
        ``allow_partial=True``, nodes without a path to the sink are simply
        absent (check :meth:`has_route` before :meth:`route`).
    """

    sink_id: int
    next_hop: dict[int, int]
    paths: dict[int, list[int]]

    def has_route(self, node_id: int) -> bool:
        """Whether ``node_id`` has a path to the sink in this table."""
        return node_id in self.paths

    def hops(self, node_id: int) -> int:
        """Number of transmissions needed to move a packet from ``node_id`` to the sink."""
        return len(self.paths[node_id]) - 1

    def route(self, node_id: int) -> list[int]:
        """The full path from ``node_id`` to the sink."""
        return list(self.paths[node_id])

    @property
    def max_hops(self) -> int:
        """Depth of the routing tree."""
        return max(self.hops(n) for n in self.paths)


@dataclass(frozen=True)
class RoutedForwarding:
    """Hop-by-hop unicast along the shortest-path routing tree (the default)."""

    name: str = "routed"


@dataclass(frozen=True)
class TtlFlooding:
    """TTL-bounded broadcast flooding.

    Parameters
    ----------
    ttl:
        Maximum number of hops a packet may travel from its source; the
        source's own broadcast consumes the first hop.
    """

    ttl: int = 4
    name: str = "flooding"

    def __post_init__(self) -> None:
        check_integer("ttl", self.ttl, minimum=1)


def flood_packet(
    adjacency: dict[int, list[int]],
    alive: Callable[[int], bool],
    source: int,
    sink: int,
    ttl: int,
    edge_success: Callable[[int, int], bool],
) -> tuple[list[tuple[int, list[int]]], bool]:
    """One level-synchronous TTL flood; the executable flooding specification.

    Nodes that first heard the packet at hop ``k`` rebroadcast (once) at hop
    ``k + 1`` while ``k + 1 <= ttl``; the sink never rebroadcasts.  Every
    broadcast is heard — and paid for — by every *alive* neighbour of the
    broadcaster, whether or not the copy decodes (``edge_success``) or the
    neighbour already held the packet; only successfully decoded first copies
    propagate.  All alive/success decisions are evaluated against the state
    at the start of the event, which makes the outcome independent of
    per-broadcast ordering (the property the batched engine relies on).

    Returns the ordered broadcast list ``[(sender, alive receivers), ...]``
    and whether the sink heard a decodable copy.
    """
    heard = {source}
    frontier = [source]
    broadcasts: list[tuple[int, list[int]]] = []
    for _ in range(ttl):
        next_frontier: list[int] = []
        for sender in frontier:
            if sender == sink or not alive(sender):
                continue
            receivers = [n for n in adjacency.get(sender, ()) if alive(n)]
            broadcasts.append((sender, receivers))
            for receiver in receivers:
                if receiver not in heard and edge_success(sender, receiver):
                    heard.add(receiver)
                    next_frontier.append(receiver)
        frontier = sorted(next_frontier)
        if not frontier:
            break
    return broadcasts, sink in heard


def shortest_path_routing(
    graph: Graph, sink_id: int, allow_partial: bool = False
) -> RoutingTable:
    """Compute minimum-distance routes from every node to the sink.

    One Dijkstra search from the sink over the distance-weighted
    connectivity graph.  Ties resolve as in networkx's
    ``shortest_path(graph, target=sink_id, weight="weight")``: the heap is
    ordered by (distance, push count), a predecessor is replaced only on a
    strictly shorter distance, and the table lists nodes in settle order.
    With ``allow_partial=True`` nodes with no path to the sink are left out
    of the table (mobile topologies partition routinely) instead of raising.
    """
    if sink_id not in graph:
        raise ValueError(f"sink id {sink_id} is not a node of the graph")
    settled: dict[int, float] = {}  # final distances, in settle order
    best: dict[int, float] = {sink_id: 0.0}
    toward_sink: dict[int, int] = {}
    pushes = count()
    fringe = [(0.0, next(pushes), sink_id)]
    while fringe:
        distance, _, node = heapq.heappop(fringe)
        if node in settled:
            continue
        settled[node] = distance
        for neighbour, weight in graph[node].items():
            through = distance + weight
            if neighbour not in settled and (neighbour not in best or through < best[neighbour]):
                best[neighbour] = through
                toward_sink[neighbour] = node
                heapq.heappush(fringe, (through, next(pushes), neighbour))
    full_paths: dict[int, list[int]] = {sink_id: [sink_id]}
    next_hop: dict[int, int] = {sink_id: sink_id}
    for node in islice(settled, 1, None):
        hop = toward_sink[node]
        full_paths[node] = [node, *full_paths[hop]]
        next_hop[node] = hop
    missing = set(graph) - set(full_paths)
    if missing and not allow_partial:
        raise ValueError(f"nodes {sorted(missing)} have no route to the sink")
    return RoutingTable(sink_id=sink_id, next_hop=next_hop, paths=full_paths)

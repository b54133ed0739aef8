"""Underwater sensor-network substrate.

The paper's motivation (Section I) is a small, dense underwater sensor
network — tens to hundreds of nodes, a few hundred metres apart — whose
deployment lifetime is limited by each node's energy budget.  This subpackage
provides the network-level machinery needed to turn the per-estimation energy
numbers of :mod:`repro.hardware` into deployment lifetimes (experiment E9):

* :mod:`repro.network.events` — a minimal discrete-event scheduler;
* :mod:`repro.network.node` — batteries and sensor nodes with per-component
  energy accounting;
* :mod:`repro.network.topology` — grid / random deployments and the
  connectivity graph induced by the acoustic range (a plain
  ``{node: {neighbour: distance}}`` mapping);
* :mod:`repro.network.routing` — static shortest-path routing to the sink
  (a stdlib ``heapq`` Dijkstra), plus the protocol models (unicast :class:`RoutedForwarding`, TTL-bounded
  :class:`TtlFlooding`);
* :mod:`repro.network.mac` — TDMA, slotted-ALOHA and contention CSMA
  (:class:`CsmaMac`: per-packet collision draws, bounded retries) models;
* :mod:`repro.network.traffic` — periodic sensing traffic;
* :mod:`repro.network.simulator` — the event-driven network simulator;
* :mod:`repro.network.batch` — the vectorised batch engine (round-based
  NumPy accounting; bit-identical to the event loop);
* :mod:`repro.network.lifetime` — analytical lifetime estimation (a fast
  cross-check of the simulator).
"""

from repro._lazy import lazy_exports

__all__ = [
    "BatchNetworkEngine",
    "generate_report_schedule",
    "subtree_sizes",
    "Event",
    "EventQueue",
    "Scheduler",
    "Battery",
    "SensorNode",
    "NodeEnergyReport",
    "Deployment",
    "LinearMobility",
    "grid_deployment",
    "random_deployment",
    "connectivity_graph",
    "shortest_path_routing",
    "RoutedForwarding",
    "RoutingTable",
    "TtlFlooding",
    "flood_packet",
    "TDMASchedule",
    "SlottedAloha",
    "CsmaMac",
    "PeriodicTraffic",
    "NetworkSimulator",
    "NetworkSimulationResult",
    "analytical_node_lifetime",
    "lifetime_by_platform",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "batch": ("BatchNetworkEngine", "generate_report_schedule"),
    "events": ("Event", "EventQueue", "Scheduler"),
    "node": ("Battery", "SensorNode", "NodeEnergyReport"),
    "topology": (
        "Deployment", "LinearMobility", "grid_deployment", "random_deployment",
        "connectivity_graph",
    ),
    "routing": (
        "RoutedForwarding", "RoutingTable", "TtlFlooding", "flood_packet", "shortest_path_routing",
    ),
    "mac": ("TDMASchedule", "SlottedAloha", "CsmaMac"),
    "traffic": ("PeriodicTraffic",),
    "simulator": ("NetworkSimulator", "NetworkSimulationResult"),
    "lifetime": ("analytical_node_lifetime", "lifetime_by_platform", "subtree_sizes"),
})

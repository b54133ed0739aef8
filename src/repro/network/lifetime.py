"""Analytical deployment-lifetime estimation.

A fast closed-form cross-check of the event-driven simulator: given the
per-packet energy costs, the traffic pattern and the routing tree, the
average power of each node is

``P_node = P_idle + (E_tx * tx_rate) + (E_rx * rx_rate)``

where the transmit/receive rates follow from the node's own reports plus the
traffic it forwards for its subtree.  The node lifetime is then simply the
battery capacity divided by that average power, and the deployment lifetime
is the minimum over the sensor nodes (usually a bottleneck node next to the
sink).

:func:`lifetime_by_platform` runs this estimate for a set of hardware
platforms that differ only in their signal-processing energy — the bridge
between the paper's per-estimation energy numbers and the sensor-network
motivation of its introduction (experiment E9).  It evaluates every
platform and every node in one NumPy broadcast (``platforms x nodes``);
:func:`lifetime_by_platform_per_node`, the per-node scalar loop of
:func:`analytical_node_lifetime`, is kept as the executable specification —
both produce identical floats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.modem.energy_budget import ModemEnergyBudget
from repro.network.routing import RoutingTable
from repro.network.traffic import PeriodicTraffic
from repro.utils.validation import check_positive

__all__ = [
    "NodeLifetimeEstimate",
    "analytical_node_lifetime",
    "lifetime_by_platform",
    "lifetime_by_platform_per_node",
    "subtree_sizes",
]


@dataclass(frozen=True)
class NodeLifetimeEstimate:
    """Average power and lifetime of one node."""

    node_id: int
    average_power_w: float
    lifetime_s: float
    transmissions_per_interval: float
    receptions_per_interval: float


def subtree_sizes(routing: RoutingTable) -> dict[int, int]:
    """Number of source nodes whose traffic passes through (or originates at) each node.

    This is the routing-subtree size that drives both the analytical model
    below and the batched simulation engine's charge model: per report
    interval a node transmits ``subtree_size`` packets and receives
    ``subtree_size - 1``.
    """
    sizes: dict[int, int] = {}
    for node in routing.next_hop:
        if node == routing.sink_id:
            continue
        # every node on this node's path to the sink carries its traffic
        for carrier in routing.route(node)[:-1]:
            sizes[carrier] = sizes.get(carrier, 0) + 1
    return sizes


def analytical_node_lifetime(
    routing: RoutingTable,
    energy_budget: ModemEnergyBudget,
    traffic: PeriodicTraffic,
    battery_capacity_j: float,
    mac_transmissions_per_packet: float = 1.0,
) -> dict[int, NodeLifetimeEstimate]:
    """Closed-form lifetime estimate for every sensor node.

    Parameters
    ----------
    routing:
        The static routing tree.
    energy_budget:
        Per-packet modem energy model.
    traffic:
        Periodic traffic pattern (every source generates one packet per interval).
    battery_capacity_j:
        Usable battery energy per node.
    mac_transmissions_per_packet:
        Expected transmissions per delivered packet (1.0 for TDMA, ``e^G``-ish
        for ALOHA).
    """
    check_positive("battery_capacity_j", battery_capacity_j)
    check_positive("mac_transmissions_per_packet", mac_transmissions_per_packet)

    symbols = traffic.packet_symbols
    interval = traffic.report_interval_s
    tx_energy = energy_budget.transmit_energy_j(symbols) * mac_transmissions_per_packet
    rx_breakdown = energy_budget.receive_energy_j(symbols)
    rx_energy = rx_breakdown.total_j * mac_transmissions_per_packet
    idle_power = energy_budget.idle_power_w()

    carried = subtree_sizes(routing)
    estimates: dict[int, NodeLifetimeEstimate] = {}
    for node in routing.next_hop:
        if node == routing.sink_id:
            continue
        # packets transmitted per interval = own packet + packets forwarded
        transmitted = float(carried.get(node, 1))
        # packets received per interval = packets forwarded (traffic from children)
        received = transmitted - 1.0
        average_power = (
            idle_power
            + transmitted * tx_energy / interval
            + received * rx_energy / interval
        )
        lifetime = battery_capacity_j / average_power if average_power > 0 else float("inf")
        estimates[node] = NodeLifetimeEstimate(
            node_id=node,
            average_power_w=average_power,
            lifetime_s=lifetime,
            transmissions_per_interval=transmitted,
            receptions_per_interval=received,
        )
    return estimates


def _platform_budget(
    base: ModemEnergyBudget,
    processing_energy_j: float,
    platform_idle_power_w: dict[str, float] | None,
    label: str,
) -> ModemEnergyBudget:
    idle = (
        platform_idle_power_w.get(label, base.processing_idle_power_w)
        if platform_idle_power_w
        else base.processing_idle_power_w
    )
    return ModemEnergyBudget(
        config=base.config,
        transmit_power_w=base.transmit_power_w,
        receive_frontend_power_w=base.receive_frontend_power_w,
        processing_energy_per_estimation_j=processing_energy_j,
        processing_idle_power_w=idle,
        estimations_per_symbol=base.estimations_per_symbol,
    )


def lifetime_by_platform(
    routing: RoutingTable,
    traffic: PeriodicTraffic,
    battery_capacity_j: float,
    platform_processing_energy_j: dict[str, float],
    platform_idle_power_w: dict[str, float] | None = None,
    base_budget: ModemEnergyBudget | None = None,
) -> dict[str, float]:
    """Deployment lifetime (seconds) for each candidate processing platform.

    Parameters
    ----------
    routing, traffic, battery_capacity_j:
        Network configuration shared by all platforms.
    platform_processing_energy_j:
        Mapping from platform label to its energy per channel estimation
        (e.g. the Table 3 values converted to joules).
    platform_idle_power_w:
        Optional per-platform idle power of the processing hardware.
    base_budget:
        Template for the non-processing parameters (transmit power, front end);
        defaults to :class:`ModemEnergyBudget`'s defaults.
    """
    if not platform_processing_energy_j:
        raise ValueError("at least one platform must be given")
    base = base_budget if base_budget is not None else ModemEnergyBudget()
    check_positive("battery_capacity_j", battery_capacity_j)
    symbols = traffic.packet_symbols
    interval = traffic.report_interval_s
    carried = subtree_sizes(routing)
    sensors = [node for node in routing.next_hop if node != routing.sink_id]
    transmitted = np.asarray([float(carried.get(node, 1)) for node in sensors])
    received = transmitted - 1.0

    labels = list(platform_processing_energy_j)
    tx_energy = np.empty(len(labels))
    rx_energy = np.empty(len(labels))
    idle_power = np.empty(len(labels))
    for index, label in enumerate(labels):
        budget = _platform_budget(
            base, platform_processing_energy_j[label], platform_idle_power_w, label
        )
        # * 1.0 keeps the expression identical to analytical_node_lifetime's
        # mac_transmissions_per_packet scaling
        tx_energy[index] = budget.transmit_energy_j(symbols) * 1.0
        rx_energy[index] = budget.receive_energy_j(symbols).total_j * 1.0
        idle_power[index] = budget.idle_power_w()

    # (platforms x nodes) broadcast of the scalar expression, term for term
    power = (
        idle_power[:, np.newaxis]
        + transmitted[np.newaxis, :] * tx_energy[:, np.newaxis] / interval
        + received[np.newaxis, :] * rx_energy[:, np.newaxis] / interval
    )
    with np.errstate(divide="ignore"):
        lifetime = np.where(power > 0, battery_capacity_j / power, np.inf)
    return {label: float(np.min(lifetime[index])) for index, label in enumerate(labels)}


def lifetime_by_platform_per_node(
    routing: RoutingTable,
    traffic: PeriodicTraffic,
    battery_capacity_j: float,
    platform_processing_energy_j: dict[str, float],
    platform_idle_power_w: dict[str, float] | None = None,
    base_budget: ModemEnergyBudget | None = None,
) -> dict[str, float]:
    """:func:`lifetime_by_platform` as a per-node scalar loop (the executable spec).

    Runs :func:`analytical_node_lifetime` once per platform; the broadcast in
    :func:`lifetime_by_platform` reproduces these floats exactly.
    """
    if not platform_processing_energy_j:
        raise ValueError("at least one platform must be given")
    base = base_budget if base_budget is not None else ModemEnergyBudget()
    results: dict[str, float] = {}
    for label, processing_energy in platform_processing_energy_j.items():
        budget = _platform_budget(base, processing_energy, platform_idle_power_w, label)
        estimates = analytical_node_lifetime(routing, budget, traffic, battery_capacity_j)
        results[label] = min(e.lifetime_s for e in estimates.values())
    return results

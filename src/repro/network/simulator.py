"""Event-driven simulation of an underwater sensor network deployment.

Each sensor node periodically generates a report packet that travels to the
sink either hop-by-hop along the static routing tree
(:class:`~repro.network.routing.RoutedForwarding`) or by TTL-bounded
broadcast flooding (:class:`~repro.network.routing.TtlFlooding`).  Every
transmission charges the sender its transmit energy and each receiver its
front-end plus signal-processing energy (with the processing cost set by the
chosen hardware platform); idle listening energy accrues continuously.

Contention comes in two flavours: the legacy expected-retransmission
multiplier (:class:`~repro.network.mac.SlottedAloha` /
:class:`~repro.network.mac.TDMASchedule`), and the per-packet
:class:`~repro.network.mac.CsmaMac`, where every hop's attempts are drawn
from a counter-based uniform stream (:func:`repro.utils.rng.counter_uniforms`
keyed by the report event's index) — collisions then actually lose packets,
coupling delivery ratio to density.  With a
:class:`~repro.network.topology.LinearMobility` model attached, sensor
positions drift and the topology, routes and contention tables are rebuilt
once per mobility epoch.

The simulation runs until a stop condition (first node death or a maximum
simulated time) and reports per-node energy attribution and the deployment
lifetime — the quantity experiment E9 compares across hardware platforms.

:meth:`NetworkSimulator.run` executes on the vectorised
:class:`repro.network.batch.BatchNetworkEngine`, which replaces the
per-packet event loop with round-based NumPy accounting.  The original event
loop, :meth:`NetworkSimulator.run_event_loop`, is kept as the executable
specification (the same role the per-frame loop plays for the batched link
engine) and is pinned bit-for-bit equal to the batched engine by
``tests/network/test_batch_equivalence.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.modem.energy_budget import ModemEnergyBudget
from repro.network.events import Scheduler
from repro.network.mac import CsmaMac, SlottedAloha, TDMASchedule
from repro.network.node import Battery, NodeEnergyReport, SensorNode
from repro.network.routing import (
    RoutedForwarding,
    RoutingTable,
    TtlFlooding,
    flood_packet,
    shortest_path_routing,
)
from repro.network.topology import Deployment, LinearMobility, connectivity_graph
from repro.network.traffic import PeriodicTraffic
from repro.telemetry.metrics import counter
from repro.utils.rng import as_rng, counter_uniforms
from repro.utils.validation import check_positive

__all__ = ["NetworkSimulationResult", "NetworkSimulator"]

#: topology/routing rebuilds triggered by mobility epoch changes
_TOPOLOGY_REFRESHES = counter("network.topology_refreshes")
#: packets dropped after exhausting contention-MAC retries
_PACKETS_DROPPED = counter("network.packets_dropped")


@dataclass
class NetworkSimulationResult:
    """Outcome of one network simulation."""

    first_death_time_s: float | None
    simulated_time_s: float
    packets_generated: int
    packets_delivered: int
    node_reports: dict[int, NodeEnergyReport]
    node_alive: dict[int, bool]
    #: packets abandoned after exhausting contention-MAC retries (0 unless a
    #: CsmaMac with routed forwarding is in effect)
    packets_dropped: int = 0

    @property
    def delivery_ratio(self) -> float:
        """Fraction of generated packets that reached the sink.

        With zero generated packets the ratio is undefined and reported as
        ``nan`` (matching the ``LinkResult.symbol_error_rate`` convention) —
        a vacuously lossless run must not read as total loss.  Aggregators
        must skip NaN explicitly: sweep records carry it as ``None``, which
        :meth:`repro.experiments.runner.SweepResult.group_mean` skips.
        """
        if self.packets_generated == 0:
            return float("nan")
        return self.packets_delivered / self.packets_generated

    @property
    def lifetime_days(self) -> float | None:
        """Deployment lifetime (first node death) in days, None if no node died.

        Callers aggregating across trials must handle the ``None`` explicitly
        (a censored observation: the deployment outlived the horizon), not
        coerce it to 0 — see
        :meth:`repro.experiments.runner.SweepResult.group_mean`.
        """
        if self.first_death_time_s is None:
            return None
        return self.first_death_time_s / 86_400.0

    def total_energy_by_component(self) -> dict[str, float]:
        """Network-wide energy attribution (joules) summed over all nodes."""
        totals = {"transmit_j": 0.0, "receive_frontend_j": 0.0, "processing_j": 0.0, "idle_j": 0.0}
        for report in self.node_reports.values():
            totals["transmit_j"] += report.transmit_j
            totals["receive_frontend_j"] += report.receive_frontend_j
            totals["processing_j"] += report.processing_j
            totals["idle_j"] += report.idle_j
        return totals


@dataclass
class NetworkSimulator:
    """Simulates a data-collection sensor network.

    Parameters
    ----------
    deployment:
        Node positions and the sink.
    energy_budget:
        Per-packet modem energy model (shared by every node); the processing
        energy inside it is what distinguishes hardware platforms.
    traffic:
        Report generation pattern.
    communication_range_m:
        Acoustic range used to build the connectivity graph.
    battery_capacity_j:
        Usable battery energy per node (e.g. ~10 kJ for a small alkaline pack,
        ~200 kJ for a D-cell lithium pack).
    mac:
        A :class:`~repro.network.mac.TDMASchedule` or
        :class:`~repro.network.mac.SlottedAloha` (expected-retransmission
        multiplier only), or a :class:`~repro.network.mac.CsmaMac` for
        per-packet stochastic contention with bounded retries.
    rng:
        Seed or generator for traffic jitter (and, with a contention MAC, the
        contention stream's seed draw).
    protocol:
        :class:`~repro.network.routing.RoutedForwarding` (default) or
        :class:`~repro.network.routing.TtlFlooding`.
    mobility:
        Optional :class:`~repro.network.topology.LinearMobility`; when set,
        topology and routes are rebuilt once per mobility epoch and
        partitioned sources simply fail to deliver.
    """

    deployment: Deployment
    energy_budget: ModemEnergyBudget
    traffic: PeriodicTraffic = field(default_factory=PeriodicTraffic)
    communication_range_m: float = 300.0
    battery_capacity_j: float = 50_000.0
    mac: TDMASchedule | SlottedAloha | CsmaMac | None = None
    rng: np.random.Generator | int | None = None
    protocol: RoutedForwarding | TtlFlooding = field(default_factory=RoutedForwarding)
    mobility: LinearMobility | None = None

    def __post_init__(self) -> None:
        check_positive("communication_range_m", self.communication_range_m)
        check_positive("battery_capacity_j", self.battery_capacity_j)
        self.rng = as_rng(self.rng)
        self._base_deployment = self.deployment
        self._epoch = 0
        # a static routed deployment must be connected (the legacy contract);
        # mobility partitions routinely, so it builds in non-strict mode
        self._strict_topology = self.mobility is None
        self._build_topology(self.deployment)
        self.nodes: dict[int, SensorNode] = {
            node_id: SensorNode(
                node_id=node_id,
                position=position,
                battery=Battery(self.battery_capacity_j),
                energy_budget=self.energy_budget,
                is_sink=(node_id == self.deployment.sink_id),
            )
            for node_id, position in self.deployment.positions.items()
        }
        self._contention: CsmaMac | None = self.mac if isinstance(self.mac, CsmaMac) else None
        self._tx_multiplier = (
            self.mac.expected_transmissions_per_packet()
            if self.mac is not None and self._contention is None
            else 1.0
        )
        # drawn only for contention MACs, so legacy RNG trajectories (and the
        # seed-locked tests pinned to them) are untouched; both engines share
        # this __post_init__, so the draw is aligned by construction
        self._contention_seed = (
            int(self.rng.integers(2**63)) if self._contention is not None else 0
        )
        self._rebuild_link_tables()
        self._event_index = 0
        self._packets_generated = 0
        self._packets_delivered = 0
        self._packets_dropped = 0
        self._first_death: float | None = None

    def _build_topology(self, deployment: Deployment) -> None:
        self.graph = connectivity_graph(
            deployment,
            self.communication_range_m,
            require_connected=self._strict_topology,
        )
        self.routing: RoutingTable = shortest_path_routing(
            self.graph, deployment.sink_id, allow_partial=not self._strict_topology
        )
        self._adjacency: dict[int, list[int]] = {
            node_id: sorted(neighbours) for node_id, neighbours in self.graph.items()
        }

    def _rebuild_link_tables(self) -> None:
        """Per-directed-edge contention success probabilities and draw slots.

        The slot index — the position of the edge in the sorted directed-edge
        enumeration — addresses the packet's counter-based uniform for that
        edge, identically in both engines.  Contenders at a receiver are its
        other in-range neighbours (``degree - 1``), which is what couples
        contention losses to deployment density.
        """
        self._edge_slots: dict[tuple[int, int], int] = {}
        self._edge_success: dict[tuple[int, int], float] = {}
        if self._contention is None:
            return
        edges = sorted((u, v) for u, neighbours in self.graph.items() for v in neighbours)
        for slot, (u, v) in enumerate(edges):
            self._edge_slots[(u, v)] = slot
            self._edge_success[(u, v)] = self._contention.attempt_success_probability(
                len(self.graph[v]) - 1
            )

    def _refresh_topology(self, now: float) -> None:
        """Rebuild connectivity/routes when ``now`` enters a new mobility epoch."""
        if self.mobility is None:
            return
        epoch = self.mobility.epoch_index(now)
        if epoch == self._epoch:
            return
        self._epoch = epoch
        self.deployment = self.mobility.positions_at(self._base_deployment, epoch)
        self._build_topology(self.deployment)
        for node_id, position in self.deployment.positions.items():
            self.nodes[node_id].position = position
        self._rebuild_link_tables()
        _TOPOLOGY_REFRESHES.inc()

    # ------------------------------------------------------------------ #
    @property
    def sensor_ids(self) -> list[int]:
        """Sensor (non-sink) node ids in scheduling order."""
        return [n for n in self.nodes if n != self.deployment.sink_id]

    def _record_deaths(self, now: float) -> None:
        """Record the first battery depletion among the sensor nodes."""
        if self._first_death is not None:
            return
        for node in self.nodes.values():
            if not node.is_sink and node.battery.is_empty:
                self._first_death = now
                return

    def _advance_all(self, now: float) -> None:
        for node in self.nodes.values():
            if node.is_alive:
                node.advance_time(now)
        self._record_deaths(now)

    def _note_death(self, now: float, node: SensorNode) -> None:
        if node.battery.is_empty and not node.is_sink and self._first_death is None:
            self._first_death = now

    def _deliver_packet(self, now: float, source_id: int, event_index: int) -> None:
        """Deliver one packet according to the protocol and MAC models."""
        if isinstance(self.protocol, TtlFlooding):
            self._deliver_flooded(now, source_id, event_index)
            return
        if not self.routing.has_route(source_id):
            # partitioned source (mobility): generated, never delivered,
            # no transmissions attempted
            return
        path = self.routing.route(source_id)
        if self._contention is not None:
            self._deliver_routed_contended(now, path, event_index)
            return
        symbols = self.traffic.packet_symbols
        attempts = self._tx_multiplier
        delivered = True
        for sender_id, receiver_id in zip(path, path[1:]):
            sender = self.nodes[sender_id]
            receiver = self.nodes[receiver_id]
            if not sender.is_alive or not receiver.is_alive:
                delivered = False
                break
            # the MAC multiplier charges the expected retransmissions
            for _ in range(int(np.ceil(attempts))):
                sender.account_transmit(symbols)
                receiver.account_receive(symbols, forwarded=(receiver_id != self.routing.sink_id))
            self._note_death(now, sender)
            self._note_death(now, receiver)
        if delivered:
            self._packets_delivered += 1

    def _deliver_routed_contended(
        self, now: float, path: list[int], event_index: int
    ) -> None:
        """Routed forwarding under the contention MAC: per-hop retry draws.

        Hop ``h``'s attempt ``a`` reads the packet's counter-based uniform at
        slot ``h * max_attempts + a``; every attempt (failed or not) charges
        the sender a transmission and the receiver a reception.  A hop whose
        retries exhaust drops the packet at that sender.
        """
        assert self._contention is not None
        mac = self._contention
        symbols = self.traffic.packet_symbols
        hops = len(path) - 1
        draws = counter_uniforms(
            self._contention_seed, event_index, hops * mac.max_attempts
        )
        delivered = True
        for hop, (sender_id, receiver_id) in enumerate(zip(path, path[1:])):
            sender = self.nodes[sender_id]
            receiver = self.nodes[receiver_id]
            if not sender.is_alive or not receiver.is_alive:
                delivered = False
                break
            success_p = self._edge_success[(sender_id, receiver_id)]
            success = False
            for attempt in range(mac.max_attempts):
                sender.account_transmit(symbols)
                receiver.account_receive(
                    symbols, forwarded=(receiver_id != self.routing.sink_id)
                )
                if draws[hop * mac.max_attempts + attempt] < success_p:
                    success = True
                    break
            self._note_death(now, sender)
            self._note_death(now, receiver)
            if not success:
                sender.packets_dropped += 1
                self._packets_dropped += 1
                _PACKETS_DROPPED.inc()
                delivered = False
                break
        if delivered:
            self._packets_delivered += 1

    def _deliver_flooded(self, now: float, source_id: int, event_index: int) -> None:
        """TTL flooding: compute the flood, then charge its broadcast list."""
        assert isinstance(self.protocol, TtlFlooding)
        symbols = self.traffic.packet_symbols
        attempts = int(np.ceil(self._tx_multiplier))
        sink_id = self.deployment.sink_id
        draws = None
        if self._contention is not None:
            draws = counter_uniforms(
                self._contention_seed, event_index, len(self._edge_slots)
            )

        def edge_success(sender_id: int, receiver_id: int) -> bool:
            if draws is None:
                return True
            slot = self._edge_slots[(sender_id, receiver_id)]
            return bool(draws[slot] < self._edge_success[(sender_id, receiver_id)])

        broadcasts, delivered = flood_packet(
            self._adjacency,
            lambda node_id: self.nodes[node_id].is_alive,
            source_id,
            sink_id,
            self.protocol.ttl,
            edge_success,
        )
        for sender_id, receivers in broadcasts:
            sender = self.nodes[sender_id]
            for _ in range(attempts):
                sender.account_transmit(symbols)
                for receiver_id in receivers:
                    self.nodes[receiver_id].account_receive(
                        symbols, forwarded=(receiver_id != sink_id)
                    )
            self._note_death(now, sender)
            for receiver_id in receivers:
                self._note_death(now, self.nodes[receiver_id])
        if delivered:
            self._packets_delivered += 1

    def _account_report(
        self, now: float, node_id: int, event_index: int | None = None
    ) -> None:
        """Account one report event: idle accrual, generation, delivery.

        Shared by the event loop and the batched engine (which replays only
        the boundary events — deaths — through this exact per-packet logic,
        passing the event's global schedule index explicitly so the packet's
        counter-based contention draws address the same stream values).
        """
        if event_index is None:
            event_index = self._event_index
        self._event_index = event_index + 1
        self._refresh_topology(now)
        self._advance_all(now)
        node = self.nodes[node_id]
        if node.is_alive:
            self._packets_generated += 1
            self._deliver_packet(now, node_id, event_index)
            self._note_death(now, node)

    def _on_report(self, scheduler: Scheduler, node_id: int) -> None:
        self._account_report(scheduler.now, node_id)
        # schedule the next report regardless (dead nodes simply skip)
        delay = self.traffic.next_interval(self.rng)
        scheduler.schedule_after(delay, self._on_report, node_id)

    def _build_result(self, end_time: float) -> NetworkSimulationResult:
        return NetworkSimulationResult(
            first_death_time_s=self._first_death,
            simulated_time_s=end_time,
            packets_generated=self._packets_generated,
            packets_delivered=self._packets_delivered,
            node_reports={nid: node.report for nid, node in self.nodes.items()},
            node_alive={nid: node.is_alive for nid, node in self.nodes.items()},
            packets_dropped=self._packets_dropped,
        )

    # ------------------------------------------------------------------ #
    def run(
        self,
        max_time_s: float = 30.0 * 86_400.0,
        stop_at_first_death: bool = True,
        max_events: int = 500_000,
    ) -> NetworkSimulationResult:
        """Run the simulation (once per simulator instance) on the batch engine.

        Parameters
        ----------
        max_time_s:
            Simulation horizon.
        stop_at_first_death:
            Stop as soon as any sensor node's battery empties (the usual
            deployment-lifetime definition); otherwise run to ``max_time_s``.
        max_events:
            Safety cap on processed events.
        """
        from repro.network.batch import BatchNetworkEngine

        return BatchNetworkEngine(self).run(
            max_time_s=max_time_s,
            stop_at_first_death=stop_at_first_death,
            max_events=max_events,
        )

    def run_event_loop(
        self,
        max_time_s: float = 30.0 * 86_400.0,
        stop_at_first_death: bool = True,
        max_events: int = 500_000,
    ) -> NetworkSimulationResult:
        """The per-packet reference loop (the executable specification)."""
        check_positive("max_time_s", max_time_s)
        scheduler = Scheduler()
        sensor_ids = self.sensor_ids
        for index, node_id in enumerate(sensor_ids):
            offset = self.traffic.first_offset(index, len(sensor_ids))
            scheduler.schedule_at(offset, self._on_report, node_id)

        while scheduler.queue and scheduler.events_processed < max_events:
            next_time = scheduler.queue.peek_time()
            if next_time is None or next_time > max_time_s:
                break
            scheduler.run(until=next_time, max_events=scheduler.events_processed + 1)
            if stop_at_first_death and self._first_death is not None:
                break

        end_time = min(scheduler.now, max_time_s) if scheduler.now > 0 else scheduler.now
        self._advance_all(end_time)
        return self._build_result(end_time)

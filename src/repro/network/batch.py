"""Vectorised round-based network simulation: the batched lifetime engine.

The event loop in :mod:`repro.network.simulator` prices every packet hop by
hop in Python, which makes platform/topology lifetime sweeps (experiment E9)
wall-clock bound.  This engine replaces the per-packet loop with array
accounting while reproducing the event loop bit-for-bit:

1. **Schedule** — report events (time, source) are generated lazily in
   chunks, in exactly the scheduler's order.  Chunks start at
   ``_FIRST_CHUNK_EVENTS`` and double up to ``_CHUNK_EVENTS``, so a run that
   dies after a few hundred events generates little past its death.
   Jitter-free traffic is generated analytically round-block by round-block
   with sequential ``cumsum`` accumulation (matching the scheduler's
   repeated ``now + delay`` float trajectory); jittered traffic replays the
   scheduler's heap, drawing each chunk's jitter as one block of uniforms —
   the identical values, in the identical order, that the event loop draws
   one per event.
2. **Charge model** — who pays for whose packets is a static function of the
   routing subtree (cf. :func:`repro.network.lifetime.subtree_sizes`):
   per-source transmit/receive indicator matrices over the current alive set.
3. **Death scan** — per-node demanded energy is the closed form
   ``tx_count * tx_energy + rx_count * rx_energy + idle_power * t`` (the same
   expression :attr:`SensorNode.demanded_j` evaluates), so battery-depletion
   events are resolved by one cumulative scan over all nodes.  Because the
   accounting is closed form over integer counts, the scan needs no running
   float state: each chunk starts from the nodes' own counts.
4. **Fast-forward + replay** — a crossing-free span is applied to the node
   states in one bulk update; only the boundary event (where a node dies and
   packet delivery may truncate mid-path) is replayed through the event
   loop's own per-hop accounting, keeping partial-delivery semantics exact.

Contention (:class:`~repro.network.mac.CsmaMac`), TTL flooding
(:class:`~repro.network.routing.TtlFlooding`) and mobility
(:class:`~repro.network.topology.LinearMobility`) run through the *general*
path: charges are no longer a static per-source function, so the engine
builds exact per-event increment matrices instead — contention retry counts
come from the same counter-based uniforms
(:func:`repro.utils.rng.counter_uniforms`, keyed by each event's global
schedule index) the event loop draws, floods are propagated
level-synchronously as 0/1 matrix products (in ``float64``, where BLAS runs
them and every count stays exact), and chunks are segmented at
mobility epoch boundaries so every segment sees one fixed topology.  The
cumulative death scan and boundary-event replay work unchanged on top of the
increments.

Both engines agree exactly on death times, death order, packet counts,
delivery ratios and per-component energy — the seed-locked equivalence suite
(``tests/network/test_batch_equivalence.py``) pins this with ``==``, not
tolerances.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from repro.network.routing import TtlFlooding
from repro.network.simulator import NetworkSimulationResult, NetworkSimulator
from repro.network.traffic import PeriodicTraffic
from repro.telemetry.metrics import counter, histogram
from repro.telemetry.tracing import span
from repro.utils.rng import as_rng, counter_uniforms
from repro.utils.validation import check_positive

__all__ = [
    "BatchNetworkEngine",
    "ScheduleStream",
    "generate_report_schedule",
]

# engine telemetry (one update per chunk or per run, never per event)
#: events generated by the schedule
_EVENTS = counter("engine.network.events")
#: events the engine consumed before the run ended (the rest were generated
#: past a death that stopped the run)
_EVENTS_CONSUMED = counter("engine.network.events_consumed")
_CHUNKS = counter("engine.network.chunks")
#: events processed through the general (contention/flooding/mobility) path
_GENERAL_EVENTS = counter("engine.network.general_events")
#: events per same-topology segment of the general path
_SEGMENT_EVENTS = histogram("engine.network.segment_events")
#: same counter instance the event loop increments (registry-deduplicated)
_PACKETS_DROPPED = counter("network.packets_dropped")

#: Events in a run's first generated/scanned chunk; each later chunk doubles,
#: up to ``_CHUNK_EVENTS``.  Small first chunks bound the schedule wasted past
#: an early death; the doubling keeps the NumPy call overhead amortised.
_FIRST_CHUNK_EVENTS = 256
#: Largest chunk, in events.
_CHUNK_EVENTS = 4096


class ScheduleStream:
    """Lazily yields report-event chunks in exactly the scheduler's order.

    Emits every event the event loop would process: (time, source) pairs with
    ``time <= max_time_s``, capped at ``max_events`` in total, ordered by
    (time, schedule sequence).  With jitter the scheduler's heap is replayed,
    consuming the RNG stream one uniform per event in the identical order;
    without jitter, times are built round-block by round-block with
    sequential ``cumsum`` accumulation, so the float trajectories match the
    event loop's repeated ``now + delay`` bit for bit.
    """

    def __init__(
        self,
        traffic: PeriodicTraffic,
        sensor_ids: list[int],
        rng: np.random.Generator,
        max_time_s: float,
        max_events: int,
    ) -> None:
        check_positive("max_time_s", max_time_s)
        self.traffic = traffic
        self.max_time_s = max_time_s
        self.rng = rng
        self._ids = np.asarray(sensor_ids, dtype=np.int64)
        self._remaining = max(0, max_events)
        num = len(sensor_ids)
        self._num = num
        if num == 0:
            self._remaining = 0
            return
        self._jittered = traffic.jitter_fraction != 0.0
        if self._jittered:
            self._heap: list[tuple[float, int, int]] = []
            for index, node_id in enumerate(sensor_ids):
                heapq.heappush(self._heap, (traffic.first_offset(index, num), index, int(node_id)))
            self._sequence = num
        else:
            # per-node times continue by sequential addition from these values
            self._last_times = np.asarray(
                [traffic.first_offset(index, num) for index in range(num)]
            )
            self._first_round = True
            self._horizon_done = False
            self._pending: tuple[np.ndarray, np.ndarray] = (
                np.empty(0, dtype=np.float64),
                np.empty(0, dtype=np.int64),
            )

    def next_chunk(self, size: int = _CHUNK_EVENTS) -> tuple[np.ndarray, np.ndarray]:
        """Next up-to-``size`` events as (times, source node ids); empty when done."""
        size = min(size, self._remaining)
        if size <= 0:
            return np.empty(0, dtype=np.float64), np.empty(0, dtype=np.int64)
        chunk = self._next_jittered(size) if self._jittered else self._next_periodic(size)
        self._remaining -= len(chunk[0])
        if len(chunk[0]) == 0:
            self._remaining = 0
        return chunk

    def _next_jittered(self, size: int) -> tuple[np.ndarray, np.ndarray]:
        heap = self._heap
        out_times: list[float] = []
        out_sources: list[int] = []
        # every emitted event draws exactly one interval, in emission order,
        # so one block of ``size`` draws is the event loop's stream; draws
        # left unused here end the schedule (the horizon was reached)
        for delay in self.traffic.next_intervals(self.rng, size).tolist():
            now, _, node_id = heapq.heappop(heap)
            if now > self.max_time_s:
                self._remaining = 0
                break
            out_times.append(now)
            out_sources.append(node_id)
            heapq.heappush(heap, (now + delay, self._sequence, node_id))
            self._sequence += 1
        return np.asarray(out_times, dtype=np.float64), np.asarray(out_sources, dtype=np.int64)

    def _generate_rounds(self, rounds: int) -> tuple[np.ndarray, np.ndarray]:
        """Generate ``rounds`` further report rounds (one event per node each)."""
        interval = self.traffic.report_interval_s
        num = self._num
        # the cumsum is seeded with each node's previous time so every emitted
        # value is a strict sequential sum, exactly the scheduler's repeated
        # ``now + delay`` addition
        seeded = np.empty((num, rounds + 1))
        seeded[:, 0] = self._last_times
        seeded[:, 1:] = interval
        times = np.cumsum(seeded, axis=1)
        if self._first_round:
            # round 0 is the staggered first offset itself, not offset+interval
            times = times[:, :-1]
            self._first_round = False
        else:
            times = times[:, 1:]
        self._last_times = times[:, -1].copy()
        node_index = np.repeat(np.arange(num), rounds)
        flat = times.ravel()
        keep = flat <= self.max_time_s
        if not keep.all():
            self._horizon_done = True
        flat = flat[keep]
        node_index = node_index[keep]
        order = np.argsort(flat, kind="stable")
        return flat[order], self._ids[node_index[order]]

    def _next_periodic(self, size: int) -> tuple[np.ndarray, np.ndarray]:
        times, sources = self._pending
        while len(times) < size and not self._horizon_done:
            rounds = max(1, (size - len(times)) // self._num)
            more_times, more_sources = self._generate_rounds(rounds)
            times = np.concatenate([times, more_times])
            sources = np.concatenate([sources, more_sources])
        self._pending = (times[size:], sources[size:])
        return times[:size], sources[:size]


def generate_report_schedule(
    traffic: PeriodicTraffic,
    sensor_ids: list[int],
    rng: np.random.Generator,
    max_time_s: float,
    max_events: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The full event schedule as two arrays (see :class:`ScheduleStream`)."""
    stream = ScheduleStream(traffic, sensor_ids, rng, max_time_s, max_events)
    all_times: list[np.ndarray] = []
    all_sources: list[np.ndarray] = []
    while True:
        times, sources = stream.next_chunk()
        if len(times) == 0:
            break
        all_times.append(times)
        all_sources.append(sources)
    if not all_times:
        return np.empty(0, dtype=np.float64), np.empty(0, dtype=np.int64)
    return np.concatenate(all_times), np.concatenate(all_sources)


def _first_crossing(
    times: np.ndarray,
    src_rows: np.ndarray,
    tx_ind: np.ndarray,
    rx_ind: np.ndarray,
    base_tx: np.ndarray,
    base_rx: np.ndarray,
    scan_rows: np.ndarray,
    attempts: int,
    tx_energy: float,
    rx_energy: float,
    idle_power: float,
    capacity: float,
) -> int | None:
    """First event index where any scanned node's demand reaches capacity.

    ``base_tx``/``base_rx`` are the per-node charge counts at the scan start;
    returns ``None`` when no crossing occurs.  The demand expression mirrors
    :attr:`repro.network.node.SensorNode.demanded_j` term for term, so the
    crossing decision is bit-identical to the event loop's battery checks.
    """
    if scan_rows.size == 0 or len(times) == 0:
        return None
    inc_tx = tx_ind[scan_rows][:, src_rows]  # (scanned, events)
    inc_rx = rx_ind[scan_rows][:, src_rows]
    ntx = base_tx[scan_rows][:, np.newaxis] + attempts * np.cumsum(inc_tx, axis=1)
    nrx = base_rx[scan_rows][:, np.newaxis] + attempts * np.cumsum(inc_rx, axis=1)
    demanded = ntx * tx_energy + nrx * rx_energy + idle_power * times[np.newaxis, :]
    crossed = (demanded >= capacity).any(axis=0)
    if not crossed.any():
        return None
    return int(np.argmax(crossed))


@dataclass
class _EventIncrements:
    """Exact per-event charge increments for one same-topology segment.

    Row ``e`` of each matrix holds the charges event ``e`` inflicts on every
    node (already including retry attempts), computed against the alive set
    at the start of the scan — exact for every event before the first death,
    which is all the scan needs (the boundary event itself is replayed).
    """

    tx: np.ndarray  # (events, nodes) transmit charge counts
    rx: np.ndarray  # (events, nodes) receive charge counts
    fwd: np.ndarray  # (events, nodes) forwarded-packet counts
    generated: np.ndarray  # (events,) whether the source generated
    delivered: np.ndarray  # (events,) whether the sink got the packet
    dropped_row: np.ndarray  # (events,) node row of a retry-exhausted drop, -1 if none


@dataclass
class BatchNetworkEngine:
    """Drives one :class:`NetworkSimulator` with vectorised accounting.

    The engine mutates the simulator's node states exactly as the event loop
    would (``run`` once per simulator instance); results are therefore
    interchangeable with — and bit-identical to —
    :meth:`NetworkSimulator.run_event_loop`.
    """

    simulator: NetworkSimulator

    def __post_init__(self) -> None:
        sim = self.simulator
        self._ids = list(sim.nodes)
        self._rows = {node_id: row for row, node_id in enumerate(self._ids)}
        self._attempts = int(np.ceil(sim._tx_multiplier))
        symbols = sim.traffic.packet_symbols
        self._tx_energy = sim.energy_budget.transmit_energy_j(symbols)
        self._rx_energy = sim.energy_budget.receive_energy_j(symbols).total_j
        self._idle_power = sim.energy_budget.idle_power_w()
        # contention, flooding and mobility make per-event charges dynamic,
        # which selects the increment-matrix path; everything else stays on
        # the (byte-identical) static charge-model path
        self._general = (
            sim._contention is not None
            or isinstance(sim.protocol, TtlFlooding)
            or sim.mobility is not None
        )

    # ------------------------------------------------------------------ #
    def _to_rows(self, sources: np.ndarray) -> np.ndarray:
        """Map source node ids to node rows."""
        if sources.size == 0:
            return sources.astype(np.int64)
        lut = np.full(max(self._ids) + 1, -1, dtype=np.int64)
        for node_id, row in self._rows.items():
            lut[node_id] = row
        return lut[sources]

    def _charge_model(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per-source charge indicators over the current alive set.

        Column ``s`` of the transmit/receive matrices marks which nodes are
        charged when (alive) source ``s`` reports: its routing path truncated
        at the first dead node, mirroring the event loop's hop-by-hop
        aliveness checks.  ``deliverable`` marks sources whose full path to
        the sink is alive.
        """
        sim = self.simulator
        rows = self._rows
        count = len(rows)
        tx_ind = np.zeros((count, count), dtype=np.int64)
        rx_ind = np.zeros((count, count), dtype=np.int64)
        alive_source = np.zeros(count, dtype=bool)
        deliverable = np.zeros(count, dtype=bool)
        for node_id in sim.sensor_ids:
            if not sim.nodes[node_id].is_alive:
                continue
            col = rows[node_id]
            alive_source[col] = True
            path = sim.routing.route(node_id)
            cut = len(path)
            for position, hop_id in enumerate(path):
                if not sim.nodes[hop_id].is_alive:
                    cut = position
                    break
            deliverable[col] = cut == len(path)
            for hop in range(cut - 1):
                tx_ind[rows[path[hop]], col] = 1
                rx_ind[rows[path[hop + 1]], col] = 1
        return tx_ind, rx_ind, alive_source, deliverable

    def _alive_sensor_rows(self) -> np.ndarray:
        sim = self.simulator
        return np.asarray(
            [
                row
                for node_id, row in self._rows.items()
                if node_id != sim.deployment.sink_id and sim.nodes[node_id].is_alive
            ],
            dtype=np.int64,
        )

    def _base_counts(self) -> tuple[np.ndarray, np.ndarray]:
        """Current per-node charge counts (the scan's closed-form state)."""
        sim = self.simulator
        symbols = sim.traffic.packet_symbols
        counts = [sim.nodes[node_id].charge_counts(symbols) for node_id in self._ids]
        base = np.asarray(counts, dtype=np.int64)
        return base[:, 0], base[:, 1]

    def _scan(
        self,
        times: np.ndarray,
        src_rows: np.ndarray,
        tx_ind: np.ndarray,
        rx_ind: np.ndarray,
    ) -> int | None:
        base_tx, base_rx = self._base_counts()
        return _first_crossing(
            times,
            src_rows,
            tx_ind,
            rx_ind,
            base_tx,
            base_rx,
            self._alive_sensor_rows(),
            self._attempts,
            self._tx_energy,
            self._rx_energy,
            self._idle_power,
            self.simulator.battery_capacity_j,
        )

    def _fast_forward(
        self,
        times: np.ndarray,
        src_rows: np.ndarray,
        model: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    ) -> None:
        """Apply a crossing-free span of events to the node states in bulk."""
        if len(times) == 0:
            return
        tx_ind, rx_ind, alive_source, deliverable = model
        sim = self.simulator
        counts = np.bincount(src_rows, minlength=len(self._ids))
        tx_packets = tx_ind @ counts
        rx_packets = rx_ind @ counts
        now = float(times[-1])
        symbols = sim.traffic.packet_symbols
        attempts = self._attempts
        sink_id = sim.deployment.sink_id
        for node_id, row in self._rows.items():
            node = sim.nodes[node_id]
            if not node.is_alive:
                continue
            receive = int(rx_packets[row]) * attempts
            node.apply_charges(
                symbols,
                transmit=int(tx_packets[row]) * attempts,
                receive=receive,
                forwarded=0 if node_id == sink_id else receive,
                now_s=now,
            )
        sim._packets_generated += int(alive_source[src_rows].sum())
        sim._packets_delivered += int(deliverable[src_rows].sum())

    # ----------------------- general (dynamic-charge) path ------------- #
    def _alive_mask(self) -> np.ndarray:
        """Per-row aliveness of every node, in row order."""
        sim = self.simulator
        return np.asarray(
            [sim.nodes[node_id].is_alive for node_id in self._ids], dtype=bool
        )

    def _segment_end(self, times: np.ndarray, position: int) -> int:
        """End (exclusive) of the same-mobility-epoch run starting at ``position``."""
        mobility = self.simulator.mobility
        if mobility is None:
            return len(times)
        epochs = (times[position:] // mobility.epoch_s).astype(np.int64)
        boundary = np.nonzero(epochs != epochs[0])[0]
        return len(times) if boundary.size == 0 else position + int(boundary[0])

    def _event_increments(
        self, src_rows: np.ndarray, event_indices: np.ndarray
    ) -> _EventIncrements:
        if isinstance(self.simulator.protocol, TtlFlooding):
            return self._flood_increments(src_rows, event_indices)
        return self._routed_increments(src_rows, event_indices)

    def _routed_increments(
        self, src_rows: np.ndarray, event_indices: np.ndarray
    ) -> _EventIncrements:
        """Per-event charges for routed forwarding (contended or multiplier).

        Mirrors ``NetworkSimulator._deliver_routed_contended`` /
        ``_deliver_packet`` exactly: hop ``h``'s attempt ``a`` reads the
        event's counter-based uniform at slot ``h * max_attempts + a``, hops
        execute only along the alive path prefix and while every earlier hop
        succeeded, and a hop that exhausts its retries drops the packet at
        its sender.
        """
        sim = self.simulator
        rows = self._rows
        count = len(self._ids)
        num_events = len(src_rows)
        alive = self._alive_mask()
        sink_row = rows[sim.deployment.sink_id]
        contention = sim._contention
        tx = np.zeros((num_events, count), dtype=np.int64)
        rx = np.zeros_like(tx)
        fwd = np.zeros_like(tx)
        generated = alive[src_rows]
        dropped_row = np.full(num_events, -1, dtype=np.int64)
        # per-source path tables under the current alive set
        hops_total = np.zeros(count, dtype=np.int64)
        exec_hops = np.zeros(count, dtype=np.int64)
        routable = np.zeros(count, dtype=bool)
        paths: dict[int, list[int]] = {}
        max_hops = 0
        for node_id in sim.sensor_ids:
            row = rows[node_id]
            if not alive[row] or not sim.routing.has_route(node_id):
                continue
            path_rows = [rows[hop_id] for hop_id in sim.routing.route(node_id)]
            routable[row] = True
            hops_total[row] = len(path_rows) - 1
            cut = len(path_rows)
            for index, hop_row in enumerate(path_rows):
                if not alive[hop_row]:
                    cut = index
                    break
            exec_hops[row] = cut - 1
            paths[row] = path_rows
            max_hops = max(max_hops, len(path_rows) - 1)
        if max_hops == 0:
            return _EventIncrements(
                tx, rx, fwd, generated, np.zeros(num_events, dtype=bool), dropped_row
            )
        path_pad = np.zeros((count, max_hops + 1), dtype=np.int64)
        p_hop = np.zeros((count, max_hops), dtype=np.float64)
        for row, path_rows in paths.items():
            path_pad[row, : len(path_rows)] = path_rows
            if contention is not None:
                for hop in range(len(path_rows) - 1):
                    edge = (self._ids[path_rows[hop]], self._ids[path_rows[hop + 1]])
                    p_hop[row, hop] = sim._edge_success[edge]
        hop_index = np.arange(max_hops)
        real = hop_index[np.newaxis, :] < hops_total[src_rows][:, np.newaxis]
        if contention is not None:
            num_attempts = contention.max_attempts
            draws = counter_uniforms(
                sim._contention_seed, event_indices, max_hops * num_attempts
            ).reshape(num_events, max_hops, num_attempts)
            success = draws < p_hop[src_rows][:, :, np.newaxis]
            hop_ok = success.any(axis=2)
            attempts = np.where(hop_ok, success.argmax(axis=2) + 1, num_attempts)
        else:
            hop_ok = np.ones((num_events, max_hops), dtype=bool)
            attempts = np.full((num_events, max_hops), self._attempts, dtype=np.int64)
        prefix_ok = np.ones((num_events, max_hops), dtype=bool)
        if max_hops > 1:
            prefix_ok[:, 1:] = np.cumprod(hop_ok[:, :-1], axis=1).astype(bool)
        executed = (
            (hop_index[np.newaxis, :] < exec_hops[src_rows][:, np.newaxis])
            & prefix_ok
            & generated[:, np.newaxis]
            & routable[src_rows][:, np.newaxis]
        )
        charge = np.where(executed, attempts, 0)
        event_of = np.repeat(np.arange(num_events), max_hops)
        flat = charge.ravel()
        senders = path_pad[src_rows][:, :max_hops].ravel()
        receivers = path_pad[src_rows][:, 1 : max_hops + 1].ravel()
        nonzero = flat > 0
        np.add.at(tx, (event_of[nonzero], senders[nonzero]), flat[nonzero])
        np.add.at(rx, (event_of[nonzero], receivers[nonzero]), flat[nonzero])
        np.add.at(
            fwd,
            (event_of[nonzero], receivers[nonzero]),
            flat[nonzero] * (receivers[nonzero] != sink_row),
        )
        all_hops_ok = (hop_ok | ~real).all(axis=1)
        delivered = (
            generated
            & routable[src_rows]
            & (exec_hops[src_rows] == hops_total[src_rows])
            & all_hops_ok
        )
        if contention is not None:
            fail = ~hop_ok & real
            has_fail = fail.any(axis=1)
            first_fail = fail.argmax(axis=1)
            drop = (
                generated
                & routable[src_rows]
                & has_fail
                & (first_fail < exec_hops[src_rows])
            )
            dropped_row[drop] = path_pad[src_rows[drop], first_fail[drop]]
        return _EventIncrements(tx, rx, fwd, generated, delivered, dropped_row)

    def _flood_increments(
        self, src_rows: np.ndarray, event_indices: np.ndarray
    ) -> _EventIncrements:
        """Per-event charges for TTL flooding, level-synchronous as matrices.

        Mirrors :func:`repro.network.routing.flood_packet`: each level's
        frontier broadcasts (sink excluded), every alive neighbour pays
        reception whether or not the copy decodes, and only decoded first
        copies (per-edge counter-based draws under contention) propagate.
        """
        sim = self.simulator
        rows = self._rows
        count = len(self._ids)
        num_events = len(src_rows)
        alive = self._alive_mask()
        sink_row = rows[sim.deployment.sink_id]
        attempts = self._attempts
        contention = sim._contention
        adjacency = np.zeros((count, count), dtype=bool)
        for node_id, neighbours in sim._adjacency.items():
            for neighbour in neighbours:
                adjacency[rows[node_id], rows[neighbour]] = True
        # 0/1 products summed over at most ``count`` terms are exact in a
        # double, and float64 matmuls run in BLAS (integer ones do not)
        adj_alive = (adjacency & alive[np.newaxis, :]).astype(np.float64)
        generated = alive[src_rows]
        tx = np.zeros((num_events, count), dtype=np.int64)
        rx = np.zeros_like(tx)
        heard = np.zeros((num_events, count), dtype=bool)
        heard[np.arange(num_events), src_rows] = generated
        frontier = heard.copy()
        if contention is not None:
            # slot order == insertion order of the sorted directed-edge dict
            edge_list = list(sim._edge_slots)
            u_rows = np.asarray([rows[u] for u, _ in edge_list], dtype=np.int64)
            v_rows = np.asarray([rows[v] for _, v in edge_list], dtype=np.int64)
            probs = np.asarray([sim._edge_success[edge] for edge in edge_list])
            draws = counter_uniforms(
                sim._contention_seed, event_indices, len(edge_list)
            )
            edge_ok = (draws < probs[np.newaxis, :]) & alive[v_rows][np.newaxis, :]
            v_onehot = np.zeros((len(edge_list), count), dtype=np.float64)
            if edge_list:
                v_onehot[np.arange(len(edge_list)), v_rows] = 1
        for _ in range(sim.protocol.ttl):
            senders = frontier.copy()
            senders[:, sink_row] = False
            if not senders.any():
                break
            hearers = senders.astype(np.float64) @ adj_alive
            tx += attempts * senders
            rx += attempts * hearers.astype(np.int64)
            if contention is not None:
                decoded = (senders[:, u_rows] & edge_ok).astype(np.float64)
                reached = (decoded @ v_onehot) > 0
            else:
                reached = hearers > 0
            frontier = reached & ~heard
            heard |= frontier
        fwd = rx.copy()
        fwd[:, sink_row] = 0
        delivered = heard[:, sink_row].copy()
        return _EventIncrements(
            tx, rx, fwd, generated, delivered, np.full(num_events, -1, dtype=np.int64)
        )

    def _scan_increments(self, times: np.ndarray, inc: _EventIncrements) -> int | None:
        """First event index whose cumulative increments kill a node, or None.

        Same closed-form demand expression as :func:`_first_crossing` (and
        :attr:`repro.network.node.SensorNode.demanded_j`), with the retry
        attempts already folded into the increment counts.
        """
        scan_rows = self._alive_sensor_rows()
        if scan_rows.size == 0 or len(times) == 0:
            return None
        base_tx, base_rx = self._base_counts()
        ntx = base_tx[scan_rows][np.newaxis, :] + np.cumsum(inc.tx[:, scan_rows], axis=0)
        nrx = base_rx[scan_rows][np.newaxis, :] + np.cumsum(inc.rx[:, scan_rows], axis=0)
        demanded = (
            ntx * self._tx_energy
            + nrx * self._rx_energy
            + self._idle_power * times[:, np.newaxis]
        )
        crossed = (demanded >= self.simulator.battery_capacity_j).any(axis=1)
        if not crossed.any():
            return None
        return int(np.argmax(crossed))

    def _apply_increments(
        self, times: np.ndarray, inc: _EventIncrements, stop: int
    ) -> None:
        """Bulk-apply the first ``stop`` events' increments to the node states."""
        sim = self.simulator
        symbols = sim.traffic.packet_symbols
        tx_total = inc.tx[:stop].sum(axis=0)
        rx_total = inc.rx[:stop].sum(axis=0)
        fwd_total = inc.fwd[:stop].sum(axis=0)
        now = float(times[stop - 1])
        for node_id, row in self._rows.items():
            node = sim.nodes[node_id]
            if not node.is_alive:
                continue
            node.apply_charges(
                symbols,
                transmit=int(tx_total[row]),
                receive=int(rx_total[row]),
                forwarded=int(fwd_total[row]),
                now_s=now,
            )
        sim._packets_generated += int(inc.generated[:stop].sum())
        sim._packets_delivered += int(inc.delivered[:stop].sum())
        drops = inc.dropped_row[:stop]
        drops = drops[drops >= 0]
        if drops.size:
            for row, count in zip(*np.unique(drops, return_counts=True)):
                sim.nodes[self._ids[int(row)]].packets_dropped += int(count)
            sim._packets_dropped += int(drops.size)
            _PACKETS_DROPPED.inc(int(drops.size))

    def _consume_general(
        self,
        times: np.ndarray,
        sources: np.ndarray,
        src_rows: np.ndarray,
        stop_at_first_death: bool,
        offset: int,
    ) -> tuple[float | None, int]:
        """The general-path chunk consumer: segment, scan increments, replay.

        ``offset`` is the global schedule index of ``times[0]`` — the key
        into the counter-based contention stream, which is how the two
        engines observe identical per-packet draws without any stream state.
        """
        sim = self.simulator
        last_time: float | None = None
        position = 0
        _GENERAL_EVENTS.inc(len(times))
        while position < len(times):
            sim._refresh_topology(float(times[position]))
            segment_end = self._segment_end(times, position)
            seg_times = times[position:segment_end]
            seg_rows = src_rows[position:segment_end]
            _SEGMENT_EVENTS.observe(len(seg_times))
            event_indices = offset + np.arange(position, segment_end, dtype=np.int64)
            inc = self._event_increments(seg_rows, event_indices)
            crossing = self._scan_increments(seg_times, inc)
            stop = len(seg_times) if crossing is None else crossing
            if stop > 0:
                self._apply_increments(seg_times, inc, stop)
                last_time = float(seg_times[stop - 1])
            position += stop
            if crossing is None:
                continue
            # replay the boundary event through the event loop's own
            # accounting, at its exact global schedule index
            last_time = float(times[position])
            sim._account_report(
                last_time, int(sources[position]), event_index=offset + position
            )
            position += 1
            if stop_at_first_death and sim._first_death is not None:
                break
        return last_time, position

    # ------------------------------------------------------------------ #
    def _consume(
        self,
        times: np.ndarray,
        sources: np.ndarray,
        src_rows: np.ndarray,
        stop_at_first_death: bool,
        offset: int = 0,
    ) -> tuple[float | None, int]:
        """Process one chunk of events; returns (last event time, events consumed).

        A chunk is consumed in full unless ``stop_at_first_death`` ends the
        run inside it.
        """
        sim = self.simulator
        if self._general:
            return self._consume_general(
                times, sources, src_rows, stop_at_first_death, offset
            )
        last_time: float | None = None
        position = 0
        while position < len(times):
            model = self._charge_model()
            crossing = self._scan(times[position:], src_rows[position:], model[0], model[1])
            stop = len(times) if crossing is None else position + crossing
            if stop > position:
                self._fast_forward(times[position:stop], src_rows[position:stop], model)
                last_time = float(times[stop - 1])
            position = stop
            if crossing is None:
                break
            # replay the boundary event through the event loop's own per-hop
            # accounting: partial deliveries and death ordering stay exact
            last_time = float(times[position])
            sim._account_report(last_time, int(sources[position]))
            position += 1
            if stop_at_first_death and sim._first_death is not None:
                break
        return last_time, position

    # ------------------------------------------------------------------ #
    def run(
        self,
        max_time_s: float = 30.0 * 86_400.0,
        stop_at_first_death: bool = True,
        max_events: int = 500_000,
        schedule: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> NetworkSimulationResult:
        """Run the batched simulation (same contract as the event loop).

        Parameters
        ----------
        max_time_s, stop_at_first_death, max_events:
            As in :meth:`NetworkSimulator.run`.
        schedule:
            Optional pre-generated (times, sources) from
            :func:`generate_report_schedule`; by default events are generated
            lazily so a run that dies early never materialises the full
            horizon's schedule.
        """
        sim = self.simulator
        check_positive("max_time_s", max_time_s)
        end_time = 0.0
        generated = consumed = 0
        with span("engine.network.run", nodes=len(self._ids)):
            if schedule is not None:
                chunks = iter([schedule])
            else:
                chunks = self._chunks(
                    ScheduleStream(
                        sim.traffic, sim.sensor_ids, as_rng(sim.rng), max_time_s, max_events
                    )
                )
            for times, sources in chunks:
                _CHUNKS.inc()
                last_time, used = self._consume(
                    times, sources, self._to_rows(sources), stop_at_first_death,
                    offset=generated,
                )
                generated += len(times)
                consumed += used
                if last_time is not None:
                    end_time = last_time
                if stop_at_first_death and sim._first_death is not None:
                    break
            _EVENTS.inc(generated)
            _EVENTS_CONSUMED.inc(consumed)
            sim._advance_all(end_time)
            return sim._build_result(end_time)

    @staticmethod
    def _chunks(stream: ScheduleStream) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """The stream's chunks, ``_FIRST_CHUNK_EVENTS`` long and doubling to the cap."""
        size = _FIRST_CHUNK_EVENTS
        while True:
            times, sources = stream.next_chunk(size)
            if len(times) == 0:
                return
            yield times, sources
            size = min(2 * size, _CHUNK_EVENTS)

"""Traffic models for the sensing workload.

Environmental-monitoring deployments generate low-rate periodic traffic: each
node samples its sensors and reports a short packet toward the sink every few
minutes.  :class:`PeriodicTraffic` captures that pattern (with optional
per-node jitter so nodes do not all transmit at the same instant).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.rng import as_rng
from repro.utils.validation import check_integer, check_non_negative, check_positive

__all__ = ["PeriodicTraffic"]


@dataclass(frozen=True)
class PeriodicTraffic:
    """Periodic report generation.

    Parameters
    ----------
    report_interval_s:
        Time between consecutive reports from one node.
    packet_symbols:
        Packet length in modem symbols (payload + headers).
    jitter_fraction:
        Uniform jitter applied to each interval, as a fraction of the interval
        (0 disables jitter).
    """

    report_interval_s: float = 300.0
    packet_symbols: int = 32
    jitter_fraction: float = 0.1

    def __post_init__(self) -> None:
        check_positive("report_interval_s", self.report_interval_s)
        check_integer("packet_symbols", self.packet_symbols, minimum=1)
        check_non_negative("jitter_fraction", self.jitter_fraction)
        if self.jitter_fraction >= 1.0:
            raise ValueError("jitter_fraction must be < 1")

    def first_offset(self, node_index: int, num_nodes: int) -> float:
        """Deterministic stagger of the first report so nodes do not collide at t=0.

        ``node_index`` must address one of the ``num_nodes`` transmitters; an
        out-of-range index raises rather than silently wrapping onto another
        node's stagger slot.
        """
        check_integer("num_nodes", num_nodes, minimum=1)
        check_integer("node_index", node_index, minimum=0, maximum=num_nodes - 1)
        return node_index * self.report_interval_s / num_nodes

    def next_interval(self, rng: np.random.Generator | int | None = None) -> float:
        """Draw the time to the next report (interval plus jitter)."""
        if self.jitter_fraction == 0.0:
            return self.report_interval_s
        rng = as_rng(rng)
        jitter = rng.uniform(-self.jitter_fraction, self.jitter_fraction)
        return self.report_interval_s * (1.0 + jitter)

    def next_intervals(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """The next ``count`` intervals as one array, drawn as a block.

        Value for value — and in the generator state left behind — equal to
        ``count`` successive :meth:`next_interval` calls on ``rng``.
        """
        if self.jitter_fraction == 0.0:
            return np.full(count, self.report_interval_s)
        jitter = rng.uniform(-self.jitter_fraction, self.jitter_fraction, size=count)
        return self.report_interval_s * (1.0 + jitter)

    def reports_per_day(self) -> float:
        """Average number of reports per node per day."""
        return 86_400.0 / self.report_interval_s

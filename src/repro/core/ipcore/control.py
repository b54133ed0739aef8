"""Cycle accounting for the IP core's control schedule.

The control unit (implemented as an M-code block in the paper's System
Generator design) sequences three phases:

1. **Matched filter** — each FC block streams the 2*Ns receive samples past
   each of its owned columns, one multiply-accumulate per clock cycle per
   block, so the phase takes ``columns_per_block * window_length`` cycles.
2. **Iterations** — for each of the ``Nf`` paths, every FC block walks its
   owned columns once performing the cancellation and the G/Q updates
   (a small constant number of cycles per column), after which the q-gen
   reduction runs (pipelined with / overlapped by the next iteration's
   column walk in the reference design, hence zero additional cycles by
   default, but configurable).
3. **Drain** — optional pipeline fill/drain overhead.

The default per-phase constants are calibrated so the model reproduces the
paper's Table 2 timings to within 1% (see
``tests/hardware/test_paper_timing.py``): total cycles =
``(Ns / P) * (2*Ns + Nf * 4)``, e.g. 248 cycles for the fully parallel
(112-block) design and 27 776 cycles for the single-block design.

The schedule is *closed form* — it depends only on the core geometry, never
on the data.  It is the only thing P changes: the batched engine
(:class:`~repro.core.ipcore.batch.BatchIPCoreEngine`) is the fixed-point
batch estimator plus one :class:`ScheduleBreakdown` per configuration,
shared by every trial of a batch, and
:func:`repro.hardware.timing.timing_from_schedule` turns the schedule into
an execution time without running the datapath.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.utils.validation import check_integer

__all__ = ["CyclePhase", "ScheduleBreakdown", "ControlUnit"]


class CyclePhase(str, Enum):
    """The phases of the IP core schedule."""

    MATCHED_FILTER = "matched_filter"
    ITERATIONS = "iterations"
    DRAIN = "drain"


@dataclass(frozen=True)
class ScheduleBreakdown:
    """Cycle counts per phase plus the total."""

    matched_filter_cycles: int
    iteration_cycles: int
    drain_cycles: int

    @property
    def total_cycles(self) -> int:
        return self.matched_filter_cycles + self.iteration_cycles + self.drain_cycles

    def as_dict(self) -> dict[str, int]:
        return {
            CyclePhase.MATCHED_FILTER.value: self.matched_filter_cycles,
            CyclePhase.ITERATIONS.value: self.iteration_cycles,
            CyclePhase.DRAIN.value: self.drain_cycles,
            "total": self.total_cycles,
        }


@dataclass(frozen=True)
class ControlUnit:
    """Cycle accountant for a given core geometry.

    Parameters
    ----------
    num_delays:
        Number of hypothesised delay columns (Ns = 112 for the AquaModem).
    window_length:
        Receive-window length in samples (2*Ns = 224).
    num_fc_blocks:
        Level of parallelism P; must divide ``num_delays``.
    num_paths:
        Number of MP iterations (Nf).
    cancel_cycles_per_column:
        Cycles per column for the interference-cancellation MAC (default 1).
    update_cycles_per_column:
        Cycles per column for the G/Q update (one multiply for G, a
        complex-magnitude multiply for Q; default 3).
    qgen_cycles_per_iteration:
        Additional (non-overlapped) cycles for the q-gen reduction per
        iteration; the reference design fully overlaps it (default 0).
    drain_cycles:
        Pipeline fill/drain overhead added once per estimation (default 0).
    """

    num_delays: int
    window_length: int
    num_fc_blocks: int
    num_paths: int = 6
    cancel_cycles_per_column: int = 1
    update_cycles_per_column: int = 3
    qgen_cycles_per_iteration: int = 0
    drain_cycles: int = 0

    def __post_init__(self) -> None:
        check_integer("num_delays", self.num_delays, minimum=1)
        check_integer("window_length", self.window_length, minimum=1)
        check_integer("num_fc_blocks", self.num_fc_blocks, minimum=1, maximum=self.num_delays)
        check_integer("num_paths", self.num_paths, minimum=1)
        check_integer("cancel_cycles_per_column", self.cancel_cycles_per_column, minimum=0)
        check_integer("update_cycles_per_column", self.update_cycles_per_column, minimum=0)
        check_integer("qgen_cycles_per_iteration", self.qgen_cycles_per_iteration, minimum=0)
        check_integer("drain_cycles", self.drain_cycles, minimum=0)
        if self.num_delays % self.num_fc_blocks != 0:
            raise ValueError(
                f"num_fc_blocks ({self.num_fc_blocks}) must divide num_delays ({self.num_delays})"
            )

    # ------------------------------------------------------------------ #
    @property
    def columns_per_block(self) -> int:
        """How many delay columns each FC block is time-multiplexed over."""
        return self.num_delays // self.num_fc_blocks

    @property
    def serialization_factor(self) -> int:
        """Alias for :attr:`columns_per_block`; the paper's area/time trade knob."""
        return self.columns_per_block

    def schedule(self) -> ScheduleBreakdown:
        """Cycle counts for a full channel estimation."""
        mf = self.columns_per_block * self.window_length
        per_iteration = self.columns_per_block * (
            self.cancel_cycles_per_column + self.update_cycles_per_column
        ) + self.qgen_cycles_per_iteration
        return ScheduleBreakdown(
            matched_filter_cycles=mf,
            iteration_cycles=self.num_paths * per_iteration,
            drain_cycles=self.drain_cycles,
        )

    def total_cycles(self) -> int:
        """Total clock cycles for one channel estimation."""
        return self.schedule().total_cycles

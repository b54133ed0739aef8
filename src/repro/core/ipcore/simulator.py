"""The assembled IP core: FC blocks + q-gen + control.

:class:`IPCoreSimulator` is the software twin of the Figure 5 architecture.
Its datapath is *bit-faithful* to
:class:`~repro.core.fixedpoint_mp.FixedPointMatchingPursuit` at the same word
length, rounding and overflow modes: the blocks store the same globally
quantised matrices, every intermediate is re-quantised through the same
shared calls, and the q-gen's block-ordered reduction realises the same
first-maximum tie-break — so the estimate (down to the raw integer codes)
is identical at *every* parallelism level P, and equal to the reference
fixed-point estimator's (``tests/core/test_ipcore_conformance.py`` pins the
three-way contract).  What P changes is the schedule: the cycle count from
the control unit, which is what the timing column of Table 2 is built from.
The per-block walk is the executable specification of Figure 5; the batched
:class:`~repro.core.ipcore.batch.BatchIPCoreEngine` skips it and runs the
fixed-point batch estimator plus the same schedule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.fixedpoint_mp import FixedPointEstimate, FixedPointMatchingPursuit
from repro.core.ipcore.control import ControlUnit, ScheduleBreakdown
from repro.core.ipcore.fc_block import CoreRegisters, FilterAndCancelBlock
from repro.core.ipcore.qgen import QGenBlock
from repro.dsp.signal_matrix import SignalMatrices
from repro.fixedpoint.metrics import dynamic_range_scale
from repro.fixedpoint.quantize import OverflowMode, RoundingMode
from repro.utils.validation import check_integer, ensure_1d_array

__all__ = ["IPCoreConfig", "IPCoreRun", "IPCoreSimulator"]


@dataclass(frozen=True)
class IPCoreConfig:
    """Static configuration of an IP core instance.

    Parameters
    ----------
    num_fc_blocks:
        Level of parallelism P (1 = fully serial, Ns = fully parallel); must
        divide the number of delay columns.
    word_length:
        Datapath width in bits.
    num_paths:
        Number of MP iterations Nf.
    accumulator_growth_bits:
        Extra bits carried by the matched-filter accumulator beyond the
        input word length (DSP48 accumulators are wide; default 16).
    rounding, overflow:
        Rounding and overflow behaviour of every quantiser in the datapath
        (the System Generator block parameters).
    """

    num_fc_blocks: int = 112
    word_length: int = 8
    num_paths: int = 6
    accumulator_growth_bits: int = 16
    rounding: RoundingMode = RoundingMode.NEAREST
    overflow: OverflowMode = OverflowMode.SATURATE

    def __post_init__(self) -> None:
        check_integer("num_fc_blocks", self.num_fc_blocks, minimum=1)
        check_integer("word_length", self.word_length, minimum=2, maximum=32)
        check_integer("num_paths", self.num_paths, minimum=1)
        check_integer("accumulator_growth_bits", self.accumulator_growth_bits,
                      minimum=0, maximum=32)
        object.__setattr__(self, "rounding", RoundingMode(self.rounding))
        object.__setattr__(self, "overflow", OverflowMode(self.overflow))


@dataclass
class IPCoreRun:
    """Result of one channel estimation on the simulated core."""

    result: FixedPointEstimate
    schedule: ScheduleBreakdown

    @property
    def total_cycles(self) -> int:
        """Clock cycles consumed by the estimation."""
        return self.schedule.total_cycles


class IPCoreSimulator:
    """Software model of the Filter-and-Cancel IP core.

    Parameters
    ----------
    matrices:
        The pre-computed signal matrices (stored, quantised, in the FC blocks'
        block RAM).
    config:
        Core geometry, word length and quantiser modes.
    control_overrides:
        Optional keyword overrides forwarded to
        :class:`~repro.core.ipcore.control.ControlUnit` (e.g. non-zero q-gen
        latency for sensitivity studies).

    The simulator holds only static state: the shared fixed-point
    :attr:`datapath` (quantised matrices, formats, re-quantisers) and the
    :attr:`blocks` that view into it.  Every :meth:`estimate` call allocates
    a fresh :class:`~repro.core.ipcore.fc_block.CoreRegisters` file, so
    repeated calls on one instance are independent by construction.
    """

    def __init__(
        self,
        matrices: SignalMatrices,
        config: IPCoreConfig | None = None,
        **control_overrides: int,
    ) -> None:
        self.matrices = matrices
        self.config = config if config is not None else IPCoreConfig()
        num_delays = matrices.num_delays
        if num_delays % self.config.num_fc_blocks != 0:
            raise ValueError(
                f"num_fc_blocks ({self.config.num_fc_blocks}) must divide the number of "
                f"delay columns ({num_delays})"
            )
        if self.config.num_paths > num_delays:
            raise ValueError("num_paths cannot exceed the number of delay columns")

        #: the shared fixed-point datapath: quantisation points, formats and
        #: re-quantisers — identical to the reference estimator's by
        #: construction (it *is* one)
        self.datapath = FixedPointMatchingPursuit(
            matrices,
            word_length=self.config.word_length,
            num_paths=self.config.num_paths,
            accumulator_growth_bits=self.config.accumulator_growth_bits,
            rounding=self.config.rounding,
            overflow=self.config.overflow,
        )
        self.control = ControlUnit(
            num_delays=num_delays,
            window_length=matrices.window_length,
            num_fc_blocks=self.config.num_fc_blocks,
            num_paths=self.config.num_paths,
            **control_overrides,
        )
        self.blocks = self._build_blocks()

    # ------------------------------------------------------------------ #
    def _build_blocks(self) -> list[FilterAndCancelBlock]:
        """Partition the delay columns across the FC blocks.

        Columns are dealt out in contiguous ascending windows, matching the
        paper's description of doubling up memory contents per block as the
        design is serialised (and the q-gen tie-break theorem's premise).
        """
        per_block = self.matrices.num_delays // self.config.num_fc_blocks
        return [
            FilterAndCancelBlock(b, b * per_block, (b + 1) * per_block, self.datapath)
            for b in range(self.config.num_fc_blocks)
        ]

    def new_registers(self) -> CoreRegisters:
        """A fresh register file covering every block's columns."""
        return CoreRegisters.zeros(self.matrices.num_delays)

    def owner_of(self, global_index: int) -> FilterAndCancelBlock:
        """The FC block whose window contains ``global_index``."""
        per_block = self.matrices.num_delays // self.config.num_fc_blocks
        return self.blocks[int(global_index) // per_block]

    # ------------------------------------------------------------------ #
    def estimate(self, received: np.ndarray) -> IPCoreRun:
        """Run one channel estimation and return the result plus cycle counts."""
        received = ensure_1d_array(
            "received", received, dtype=np.complex128, length=self.matrices.window_length
        )
        datapath = self.datapath
        r_q, r_scale = datapath.quantize_received(received)
        matched = datapath.matched_filter(r_q)
        v_scale = dynamic_range_scale(matched)
        g_scale, q_scale = datapath.coefficient_scales(v_scale)

        registers = self.new_registers()
        qgen = QGenBlock(registers.selected)
        for block in self.blocks:
            block.matched_filter(registers, matched, v_scale)

        num_paths = self.config.num_paths
        path_indices = np.empty(num_paths, dtype=np.int64)
        path_gains = np.empty(num_paths, dtype=np.complex128)
        decisions = np.empty(num_paths, dtype=np.float64)

        previous: int | None = None
        for j in range(num_paths):
            if previous is not None:
                coefficient = registers.F[previous]
                for block in self.blocks:
                    block.cancel(registers, previous, coefficient, v_scale)
            for block in self.blocks:
                block.update_decision(registers, g_scale, q_scale)
            winner = qgen.select([block.local_candidate(registers) for block in self.blocks])
            committed = self.owner_of(winner.index).commit(registers, winner.index)

            path_indices[j] = winner.index
            path_gains[j] = committed
            decisions[j] = winner.decision_value
            previous = winner.index

        result = datapath.assemble_estimate(
            registers.F, path_indices, path_gains, decisions, r_scale, g_scale, q_scale
        )
        return IPCoreRun(result=result, schedule=self.control.schedule())

    # ------------------------------------------------------------------ #
    def cycle_count(self) -> int:
        """Cycles per estimation without running the datapath (used by the DSE)."""
        return self.control.total_cycles()

    @property
    def num_fc_blocks(self) -> int:
        """Level of parallelism of this instance."""
        return self.config.num_fc_blocks

    @property
    def word_length(self) -> int:
        """Datapath width in bits."""
        return self.config.word_length

    @property
    def dsp48_per_fc_block(self) -> int:
        """Embedded multipliers per FC block (real + imaginary datapaths)."""
        return 2

    @property
    def total_dsp48(self) -> int:
        """Total DSP48 usage (the resource that rules out the Spartan-3 112-block design)."""
        return self.dsp48_per_fc_block * self.config.num_fc_blocks

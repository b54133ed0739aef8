"""Three-way cross-layer conformance: IP core == fixed-point MP == reference.

The paper's Table 2/3 results are only meaningful if the partitioned,
quantised FC-block datapath computes the *same* estimates as the Matching
Pursuits algorithm at every parallelism level P and word length w.  This
module makes that claim executable:

1. **IP core == fixed-point MP** — the scalar
   :class:`~repro.core.ipcore.simulator.IPCoreSimulator` must equal
   :class:`~repro.core.fixedpoint_mp.FixedPointMatchingPursuit` with ``==``
   on raw integer codes (no float tolerances).  The datapaths coincide by
   construction wherever the quantiser modes match — at *every* P, since
   partitioning is a scheduling choice that cannot move a quantisation
   point (P=1 is the degenerate case where the two are the same machine).
2. **the batched IP core is the fixed-point batch estimator plus P's
   schedule** — :class:`~repro.core.ipcore.batch.BatchIPCoreEngine` must
   equal a loop of scalar estimations, again with ``==`` on raw codes
   (``tests/conformance/test_ipcore_engine.py`` checks it on generated
   configurations).
3. **fixed point ≈ float** — against the floating-point
   :func:`~repro.core.matching_pursuit.matching_pursuit` the quantised
   estimate can only agree within quantisation bounds;
   :data:`FLOAT_ERROR_BOUNDS` documents those bounds per word length.

:func:`check_conformance` sweeps a P × w grid over a common stack of receive
vectors and returns a :class:`ConformanceReport`;
``tests/core/test_ipcore_conformance.py`` drives it across the full
P ∈ {1, 2, 4, 8, 14, 28, 56, 112} × w ∈ {2, 8, 12, 16, 32} cross.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.fixedpoint_mp import FixedPointMatchingPursuit
from repro.core.ipcore.batch import BatchIPCoreEngine
from repro.core.ipcore.simulator import IPCoreConfig
from repro.core.matching_pursuit import matching_pursuit
from repro.core.metrics import normalized_channel_error
from repro.dsp.signal_matrix import SignalMatrices
from repro.fixedpoint.quantize import OverflowMode, RoundingMode
from repro.utils.validation import ensure_2d_array

__all__ = [
    "ConformanceCell",
    "ConformanceReport",
    "check_conformance",
    "DEFAULT_PARALLELISM_LEVELS",
    "DEFAULT_WORD_LENGTHS",
    "FLOAT_ERROR_BOUNDS",
]

#: Every power-of-two-ish divisor of Ns = 112 the paper's design space spans.
DEFAULT_PARALLELISM_LEVELS: tuple[int, ...] = (1, 2, 4, 8, 14, 28, 56, 112)

#: The conformance word-length sweep: the paper's 8/12/16 plus both extremes.
DEFAULT_WORD_LENGTHS: tuple[int, ...] = (2, 8, 12, 16, 32)

#: Documented quantisation bounds on the normalised error of the fixed-point
#: estimate against the floating-point reference, per word length — empirical
#: envelopes (with margin) over well-conditioned sparse-channel problems at
#: >= 25 dB SNR, the conformance harness's problem family.  At w=2 the
#: datapath carries one magnitude bit, so only the order of magnitude
#: survives; by w=16 the two agree to ~1e-4.
FLOAT_ERROR_BOUNDS: dict[int, float] = {
    2: 2.0,
    8: 0.6,
    12: 0.25,
    16: 1e-3,
    32: 1e-7,
}


@dataclass(frozen=True)
class ConformanceCell:
    """Outcome of the three-way check at one (P, w) design point."""

    num_fc_blocks: int
    word_length: int
    #: scalar IP core == FixedPointMatchingPursuit, ``==`` on raw codes
    ipcore_equals_fixedpoint: bool
    #: BatchIPCoreEngine == loop of scalar IPCoreSimulator, ``==`` on raw codes
    batch_equals_scalar: bool
    #: closed-form cycles per estimation at this P
    total_cycles: int
    #: max over trials of this cell's IP-core estimates' normalised error
    #: against the float reference
    max_error_vs_float: float

    @property
    def exact(self) -> bool:
        """True when both exact (integer-code) pins of this cell hold."""
        return self.ipcore_equals_fixedpoint and self.batch_equals_scalar

    @property
    def float_error_within_bounds(self) -> bool:
        """True when the float deviation respects the documented bound."""
        bound = FLOAT_ERROR_BOUNDS.get(self.word_length)
        return bound is None or self.max_error_vs_float <= bound


@dataclass(frozen=True)
class ConformanceReport:
    """The full P × w conformance grid over one stack of receive vectors."""

    cells: tuple[ConformanceCell, ...]
    num_trials: int

    @property
    def all_exact(self) -> bool:
        """Every cell's integer-code pins hold."""
        return all(cell.exact for cell in self.cells)

    @property
    def all_within_float_bounds(self) -> bool:
        """Every cell's float deviation respects its documented bound."""
        return all(cell.float_error_within_bounds for cell in self.cells)

    def cell(self, num_fc_blocks: int, word_length: int) -> ConformanceCell:
        """Look up one design point's cell."""
        for cell in self.cells:
            if cell.num_fc_blocks == num_fc_blocks and cell.word_length == word_length:
                return cell
        raise KeyError(f"no conformance cell for P={num_fc_blocks}, w={word_length}")

    def failures(self) -> list[ConformanceCell]:
        """Cells violating an exact pin or a documented float bound."""
        return [
            cell for cell in self.cells
            if not (cell.exact and cell.float_error_within_bounds)
        ]


def check_conformance(
    matrices: SignalMatrices,
    received: np.ndarray,
    parallelism_levels: tuple[int, ...] = DEFAULT_PARALLELISM_LEVELS,
    word_lengths: tuple[int, ...] = DEFAULT_WORD_LENGTHS,
    num_paths: int = 6,
    rounding: RoundingMode = RoundingMode.NEAREST,
    overflow: OverflowMode = OverflowMode.SATURATE,
) -> ConformanceReport:
    """Run the three-way check over a P × w grid on a common trial stack.

    ``received`` is a ``(trials, window)`` stack shared by every design
    point, so the cells are directly comparable.  The quantiser modes are
    applied to both the IP cores and the fixed-point reference (the
    conformance contract only holds where the modes match).
    """
    received = ensure_2d_array(
        "received", received, dtype=np.complex128,
        shape=(None, matrices.window_length),
    )
    trials = received.shape[0]
    float_references = [
        matching_pursuit(received[t], matrices, num_paths=num_paths)
        for t in range(trials)
    ]

    cells: list[ConformanceCell] = []
    for word_length in word_lengths:
        fixed_point = FixedPointMatchingPursuit(
            matrices, word_length=word_length, num_paths=num_paths,
            rounding=rounding, overflow=overflow,
        )
        reference_estimates = [fixed_point.estimate(received[t]) for t in range(trials)]
        for num_fc_blocks in parallelism_levels:
            engine = BatchIPCoreEngine(
                matrices,
                IPCoreConfig(
                    num_fc_blocks=num_fc_blocks, word_length=word_length,
                    num_paths=num_paths, rounding=rounding, overflow=overflow,
                ),
            )
            scalar_runs = [engine.core.estimate(received[t]) for t in range(trials)]
            batch_run = engine.estimate_batch(received)
            # measured from THIS cell's IP-core estimates, so a conformance
            # break at one P shows up in its own float-deviation number too
            max_error = 0.0
            for reference, run in zip(float_references, scalar_runs):
                if float(np.linalg.norm(reference.coefficients)) > 0.0:
                    max_error = max(
                        max_error,
                        normalized_channel_error(
                            reference.coefficients, run.result.coefficients
                        ),
                    )
            cells.append(ConformanceCell(
                num_fc_blocks=num_fc_blocks,
                word_length=word_length,
                ipcore_equals_fixedpoint=all(
                    run.result == reference
                    for run, reference in zip(scalar_runs, reference_estimates)
                ),
                batch_equals_scalar=all(
                    batch_run.result[t] == scalar_runs[t].result for t in range(trials)
                ),
                total_cycles=batch_run.total_cycles,
                max_error_vs_float=max_error,
            ))
    return ConformanceReport(cells=tuple(cells), num_trials=trials)

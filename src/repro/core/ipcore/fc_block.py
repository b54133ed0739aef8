"""One Filter-and-Cancel (FC) block of the IP core, plus the shared register file.

Each FC block owns a *contiguous* window ``[start, stop)`` of the delay
columns.  For every owned column ``k`` it stores (in block RAM) column ``k``
of ``S``, row ``k`` of ``A`` and element ``k`` of ``a`` — all quantised to
the datapath word length — and it operates the registers the paper names
VKR/VKI (matched-filter output), GKR/GKI (temporary coefficient), FKR/FKI
(committed coefficient) and QK (decision variable).

Two design decisions make the model conformant across every parallelism
level *and* against :class:`~repro.core.fixedpoint_mp.FixedPointMatchingPursuit`:

* **Global quantisation points.**  The stored matrices are views of the
  shared datapath's globally-scaled quantised ``S_q``/``A_q``/``a_q``
  (one dynamic-range scale per matrix, a design-time constant of the core —
  not one per block slice), so the block RAM contents of a P=14 core are
  bit-for-bit the concatenation of the P=112 core's.  Partitioning is purely
  a scheduling choice; it cannot move a quantisation point.
* **A shared register file.**  The V/G/F/Q registers of *all* blocks live in
  one :class:`CoreRegisters` array per estimation, each block addressing its
  ``[start, stop)`` window.  Every block operation is an element-wise
  float64 expression over its window — and element-wise IEEE 754 arithmetic
  is deterministic, so operating on a window produces the same bits as
  operating on the whole array.  That is why the batched engine
  (:class:`~repro.core.ipcore.batch.BatchIPCoreEngine`) needs no blocks at
  all: it runs the whole-array fixed-point batch estimator, and P picks only
  the schedule.

The real and imaginary datapaths are duplicated in hardware; in the model
the complex arithmetic captures both at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.fixedpoint_mp import FixedPointMatchingPursuit
from repro.utils.validation import check_integer

__all__ = ["CoreRegisters", "FilterAndCancelBlock"]


@dataclass
class CoreRegisters:
    """The register file of one estimation, shared by every FC block.

    Arrays are ``(num_delays,)``; block ``b`` addresses the window
    ``[start_b, stop_b)``.  A fresh file is allocated
    per estimation (steps 2–4 of the algorithm zero every register), which
    is what guarantees repeated calls on one simulator instance can never
    see stale decision metrics.
    """

    V: np.ndarray
    G: np.ndarray
    F: np.ndarray
    Q: np.ndarray
    selected: np.ndarray

    @classmethod
    def zeros(cls, num_delays: int) -> "CoreRegisters":
        """A zeroed register file for ``num_delays`` columns."""
        check_integer("num_delays", num_delays, minimum=1)
        return cls(
            V=np.zeros(num_delays, dtype=np.complex128),
            G=np.zeros(num_delays, dtype=np.complex128),
            F=np.zeros(num_delays, dtype=np.complex128),
            Q=np.zeros(num_delays, dtype=np.float64),
            selected=np.zeros(num_delays, dtype=bool),
        )

    @property
    def num_delays(self) -> int:
        """Number of delay columns covered by the file."""
        return int(self.V.shape[-1])


class FilterAndCancelBlock:
    """One FC block responsible for the delay columns ``[start, stop)``.

    Parameters
    ----------
    block_id:
        Index of this block within the core (0-based).
    start, stop:
        The contiguous global delay window owned by this block.
    datapath:
        The shared fixed-point datapath.  The block's stored matrices are
        views of its globally-quantised ``S_q``/``A_q``/``a_q``, and every
        re-quantisation goes through its
        :meth:`~repro.core.fixedpoint_mp.FixedPointMatchingPursuit.requantize`
        — the same calls the reference estimator makes, which is what the
        ``==``-on-raw-codes conformance contract rests on.

    All datapath methods take the estimation's :class:`CoreRegisters` (and
    the scales derived from its receive vector) explicitly: the block holds
    only static storage, never per-call state.
    """

    def __init__(
        self,
        block_id: int,
        start: int,
        stop: int,
        datapath: FixedPointMatchingPursuit,
    ) -> None:
        self.block_id = check_integer("block_id", block_id, minimum=0)
        num_delays = datapath.matrices.num_delays
        self.start = check_integer("start", start, minimum=0, maximum=num_delays - 1)
        self.stop = check_integer("stop", stop, minimum=start + 1, maximum=num_delays)
        self.datapath = datapath
        #: quantised block-RAM contents (views of the shared global matrices)
        self.S = datapath.S_q[:, start:stop]
        self.A = datapath.A_q[start:stop, :]
        self.a = datapath.a_q[start:stop]

    # ------------------------------------------------------------------ #
    @property
    def num_columns(self) -> int:
        """Number of delay columns owned by this block."""
        return self.stop - self.start

    @property
    def column_indices(self) -> np.ndarray:
        """The global delay indices owned by this block."""
        return np.arange(self.start, self.stop, dtype=np.int64)

    @property
    def word_length(self) -> int:
        """Datapath width in bits (the shared datapath's word length)."""
        return self.datapath.word_length

    def owns(self, global_index: int) -> bool:
        """True if the given delay column lives in this block."""
        return self.start <= int(global_index) < self.stop

    def _window(self, values: np.ndarray) -> np.ndarray:
        """This block's window of a register array."""
        return values[self.start:self.stop]

    # ------------------------------------------------------------------ #
    # Datapath operations
    # ------------------------------------------------------------------ #
    def matched_filter(self, registers: CoreRegisters, matched: np.ndarray, v_scale) -> None:
        """Steps 1–5: load V_k from the matched-filter outputs, re-quantised.

        ``matched`` is the canonical matched-filter output ``S_q^T r_q``
        computed by the shared datapath (the per-column MAC of the hardware
        is the same per-column dot product; evaluating it through the one
        canonical call keeps the bits independent of the partition).
        """
        self._window(registers.V)[...] = self.datapath.requantize(
            self._window(matched), v_scale
        )

    def cancel(self, registers: CoreRegisters, previous, coefficient, v_scale) -> None:
        """Step 8: subtract the selected path's interference from owned V_k.

        ``previous`` is the delay selected in the previous iteration and
        ``coefficient`` its committed value F_q.
        """
        window = self._window(registers.V)
        window[...] = self.datapath.requantize(
            window - self.A[:, int(previous)] * coefficient, v_scale
        )

    def update_decision(self, registers: CoreRegisters, g_scale, q_scale) -> None:
        """Steps 10–11: G_k = V_k a_k and Q_k = Re{G_k^* V_k} for owned columns."""
        V = self._window(registers.V)
        G = self.datapath.requantize(V * self.a, g_scale)
        self._window(registers.G)[...] = G
        self._window(registers.Q)[...] = self.datapath.requantize(
            np.real(np.conj(G) * V), q_scale
        )

    def local_candidate(self, registers: CoreRegisters) -> tuple[int, float, complex]:
        """The block's best not-yet-selected (global index, Q, G) candidate.

        First-maximum tie-break over the owned window — combined with the
        q-gen's in-order strict-``>`` reduction over the (ascending,
        contiguous) blocks, the winner is exactly ``argmax`` over the full
        masked Q array, the reference estimator's selection rule.
        """
        masked = np.where(self._window(registers.selected), -np.inf, self._window(registers.Q))
        local = int(np.argmax(masked))
        return (
            self.start + local,
            float(masked[local]),
            complex(self._window(registers.G)[local]),
        )

    def commit(self, registers: CoreRegisters, global_index: int) -> complex:
        """Step 14: latch F_q = G_q for the winning delay (must be owned here)."""
        index = int(global_index)
        if not self.owns(index):
            raise ValueError(
                f"column {index} is not owned by block {self.block_id} "
                f"(owns [{self.start}, {self.stop}))"
            )
        registers.F[index] = registers.G[index]
        return complex(registers.F[index])

    # ------------------------------------------------------------------ #
    def coefficients(self, registers: CoreRegisters) -> tuple[np.ndarray, np.ndarray]:
        """(global column indices, committed F values) of this block."""
        return self.column_indices, self._window(registers.F).copy()

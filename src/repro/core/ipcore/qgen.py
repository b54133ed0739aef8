"""The q-gen block: global arg-max reduction over the FC blocks' candidates.

Steps 13–14 of the algorithm: among all delays not yet selected, find the one
with the largest decision variable Q, and forward its index and temporary
coefficient G back to the FC blocks for commitment and for the next
iteration's interference cancellation.

The q-gen shares the estimation's ``selected`` mask (a view of
:attr:`~repro.core.ipcore.fc_block.CoreRegisters.selected`) with the FC
blocks: marking the winner there is what masks the column out of every
block's next local candidate, exactly as the reference estimator's
``selected[q] = True`` does.

**Tie-break theorem.**  Each block submits its *first* local maximum
(``argmax`` over its window) and :meth:`QGenBlock.select` reduces the
candidates in block order with a strict ``>`` comparison, so among equal Q
values the earliest block — and within it the earliest column — wins.
Because the blocks partition the delay axis into ascending contiguous
windows, that winner is precisely ``np.argmax`` over the full masked Q
array: the selection rule of :func:`~repro.core.matching_pursuit.matching_pursuit`
and of :class:`~repro.core.fixedpoint_mp.FixedPointMatchingPursuit`.  The
theorem is why the batched IP core
(:class:`~repro.core.ipcore.batch.BatchIPCoreEngine`) needs no q-gen: it is
the fixed-point batch estimator, whose per-trial ``argmax`` is this
reduction at every P.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["QGenBlock", "QGenDecision"]


@dataclass(frozen=True)
class QGenDecision:
    """The winning candidate of one iteration."""

    index: int
    decision_value: float
    coefficient: complex


@dataclass
class QGenBlock:
    """Compares per-block candidates and marks winners in the shared mask.

    Parameters
    ----------
    selected:
        The estimation's shared boolean mask (one flag per delay column);
        :meth:`select` marks each winner here, which both the q-gen's own
        already-selected check and the FC blocks' local masking read.
    """

    selected: np.ndarray
    selection_order: list[int] = field(default_factory=list)

    def reset(self) -> None:
        """Clear the mask and history (start of a new estimation)."""
        self.selected[...] = False
        self.selection_order.clear()

    def select(self, candidates: list[tuple[int, float, complex]]) -> QGenDecision:
        """Pick the best candidate among those offered by the FC blocks.

        Each candidate is ``(global delay index, Q value, G value)``.  Indices
        already selected in earlier iterations are skipped — the FC blocks
        also mask them locally, but the q-gen performs the check again
        because a block whose every column has been selected still submits a
        (masked, -inf) candidate.
        """
        if not candidates:
            raise ValueError("q-gen received no candidates")
        best: QGenDecision | None = None
        for index, q_value, g_value in candidates:
            if self.selected[int(index)]:
                continue
            if best is None or q_value > best.decision_value:
                best = QGenDecision(index=int(index), decision_value=float(q_value),
                                    coefficient=complex(g_value))
        if best is None:
            raise ValueError("all candidate delays have already been selected")
        self.selected[best.index] = True
        self.selection_order.append(best.index)
        return best

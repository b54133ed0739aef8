"""Functional + cycle-level simulator of the Matching Pursuits IP core (Figure 5).

The paper's IP core replicates a "Filter and Cancel" (FC) block once per
hypothesised delay column (fully parallel: 112 blocks) or time-multiplexes a
smaller number of blocks over the columns (14 blocks process 8 columns each,
a single block processes all 112).  A "q-gen" block reduces the per-column
decision variables to the global winner each iteration, and a small control
FSM sequences the matched-filter phase and the ``Nf`` cancel/select
iterations.

This package mirrors that structure in software:

* :class:`~repro.core.ipcore.fc_block.FilterAndCancelBlock` — one FC block:
  views of the globally-quantised S/A/a columns (block RAM) plus the
  matched-filter, cancellation and decision-variable updates over its
  window of the shared :class:`~repro.core.ipcore.fc_block.CoreRegisters`
  register file.
* :class:`~repro.core.ipcore.qgen.QGenBlock` — the arg-max reduction with the
  "not already selected" exclusion of step 13.
* :class:`~repro.core.ipcore.control.ControlUnit` — the cycle accountant: it
  knows how many clock cycles each phase of the schedule takes for a given
  level of parallelism.
* :class:`~repro.core.ipcore.simulator.IPCoreSimulator` — wires the blocks
  together; its estimate is bit-identical (raw integer codes) to
  :class:`~repro.core.fixedpoint_mp.FixedPointMatchingPursuit` at matching
  quantiser modes, plus an exact cycle count.
* :class:`~repro.core.ipcore.batch.BatchIPCoreEngine` — the batched engine.
  P splits the delay columns across blocks but never changes the
  arithmetic, so the engine *is* the fixed-point batch estimator
  (:meth:`~repro.core.fixedpoint_mp.FixedPointMatchingPursuit.estimate_batch`)
  plus the closed-form schedule P picks.

``tests/conformance/ipcore.py`` holds the three-way conformance harness (IP
core == fixed-point MP == float reference within documented bounds).
"""

from repro._lazy import lazy_exports

__all__ = [
    "CoreRegisters",
    "FilterAndCancelBlock",
    "QGenBlock",
    "QGenDecision",
    "ControlUnit",
    "CyclePhase",
    "ScheduleBreakdown",
    "IPCoreConfig",
    "IPCoreRun",
    "IPCoreSimulator",
    "BatchIPCoreEngine",
    "BatchIPCoreRun",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "fc_block": ("CoreRegisters", "FilterAndCancelBlock"),
    "qgen": ("QGenBlock", "QGenDecision"),
    "control": ("ControlUnit", "CyclePhase", "ScheduleBreakdown"),
    "simulator": ("IPCoreConfig", "IPCoreRun", "IPCoreSimulator"),
    "batch": ("BatchIPCoreEngine", "BatchIPCoreRun"),
})

"""Batched IP-core engine: many channel estimations at once.

The level of parallelism P of the Figure 5 core only splits the delay
columns across FC blocks: it sets the cycle count (and the area), never the
arithmetic.  The scalar
:class:`~repro.core.ipcore.simulator.IPCoreSimulator` walks the blocks to
show it, and the conformance suite pins its estimate ``==`` (raw integer
codes) to :class:`~repro.core.fixedpoint_mp.FixedPointMatchingPursuit` at
every P.  So :class:`BatchIPCoreEngine` *is* the fixed-point batch
estimator of the core's datapath
(:meth:`~repro.core.fixedpoint_mp.FixedPointMatchingPursuit.estimate_batch`)
plus the closed-form :class:`~repro.core.ipcore.control.ScheduleBreakdown`
that P picks, which every trial of a batch shares: the control schedule
depends on the geometry, never on the data.

``tests/conformance/test_ipcore_engine.py`` pins the engine bit-identical
to a loop of scalar ``IPCoreSimulator.estimate`` calls on generated
configurations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.fixedpoint_mp import BatchFixedPointEstimate
from repro.core.ipcore.control import ScheduleBreakdown
from repro.core.ipcore.simulator import IPCoreConfig, IPCoreRun, IPCoreSimulator
from repro.dsp.signal_matrix import SignalMatrices
from repro.telemetry.metrics import counter, histogram
from repro.telemetry.tracing import span
from repro.utils.validation import ensure_2d_array

__all__ = ["BatchIPCoreEngine", "BatchIPCoreRun"]

# per-batch telemetry (one update per estimate_batch call, never per trial)
_TRIALS = counter("engine.ipcore.trials")
_CYCLES = counter("engine.ipcore.cycles")
_BATCH_TRIALS = histogram("engine.ipcore.batch_trials")


@dataclass
class BatchIPCoreRun:
    """Results of a batch of channel estimations on the simulated core.

    ``result`` carries the per-trial estimates (with raw integer codes) and
    ``schedule`` the closed-form cycle breakdown every trial shares —
    the core is a fixed-latency pipeline, so the cycle count depends only
    on the configuration, never on the data.
    """

    result: BatchFixedPointEstimate
    schedule: ScheduleBreakdown

    @property
    def total_cycles(self) -> int:
        """Clock cycles consumed by each estimation of the batch."""
        return self.schedule.total_cycles

    @property
    def num_trials(self) -> int:
        return self.result.num_trials

    def __len__(self) -> int:
        return self.num_trials

    def __getitem__(self, trial: int) -> IPCoreRun:
        """One trial's estimation as a scalar :class:`IPCoreRun`."""
        return IPCoreRun(result=self.result[trial], schedule=self.schedule)


class BatchIPCoreEngine:
    """Run many estimations on one IP-core configuration at once.

    Parameters
    ----------
    matrices, config, control_overrides:
        As for :class:`~repro.core.ipcore.simulator.IPCoreSimulator`; the
        engine builds (and exposes as :attr:`core`) a scalar simulator and
        estimates through its datapath and control unit — the two paths
        operate on literally the same quantised storage.
    """

    def __init__(
        self,
        matrices: SignalMatrices,
        config: IPCoreConfig | None = None,
        **control_overrides: int,
    ) -> None:
        self.core = IPCoreSimulator(matrices, config, **control_overrides)

    @property
    def config(self) -> IPCoreConfig:
        return self.core.config

    def cycle_count(self) -> int:
        """Cycles per estimation (closed form, shared with the scalar core)."""
        return self.core.cycle_count()

    # ------------------------------------------------------------------ #
    def estimate_batch(self, received: np.ndarray) -> BatchIPCoreRun:
        """Estimate every row of a ``(trials, window)`` stack in one pass.

        Bit-identical to calling :meth:`IPCoreSimulator.estimate` on each
        row (an empty batch is valid and yields empty result arrays).
        """
        core = self.core
        received = ensure_2d_array(
            "received", received, dtype=np.complex128,
            shape=(None, core.matrices.window_length),
        )
        trials = received.shape[0]
        with span("engine.ipcore.estimate_batch", trials=trials,
                  num_fc_blocks=core.config.num_fc_blocks,
                  word_length=core.config.word_length):
            result = core.datapath.estimate_batch(received)
            schedule = core.control.schedule()
        _TRIALS.inc(trials)
        _BATCH_TRIALS.observe(trials)
        _CYCLES.inc(schedule.total_cycles * trials)
        return BatchIPCoreRun(result=result, schedule=schedule)

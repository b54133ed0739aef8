"""Golden raw integer codes and cycle counts of the IP-core datapath.

Follows the ``test_fixedpoint_golden.py`` convention: a fixed, RNG-free
dyadic input whose exact quantised codes are pinned per design point, plus —
new to the IP-core layer — the exact per-phase :class:`ScheduleBreakdown`
cycle counts for the paper's (P, w) corners {(1, 8), (14, 12), (112, 16)}.

The code tables are *shared* with the fixed-point golden test: the IP core
is bit-faithful to ``FixedPointMatchingPursuit`` at every parallelism level
(partitioning cannot move a quantisation point), so the same golden codes
must come out of the serial, the 14-block and the fully parallel core.  Any
silent change to the quantisation rules or the control schedule fails this
test loudly on every platform (the input is exact dyadic arithmetic; see
the fixed-point golden module for the cross-platform argument).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.ipcore import BatchIPCoreEngine, IPCoreConfig, IPCoreSimulator

from tests.core.test_fixedpoint_golden import GOLDEN

#: The paper's design-point corners and their exact per-phase cycle counts:
#: matched filter = (Ns/P) * 2Ns, iterations = Nf * (Ns/P) * 4, drain = 0.
GOLDEN_SCHEDULES = {
    (1, 8): {"matched_filter": 25_088, "iterations": 2_688, "drain": 0, "total": 27_776},
    (14, 12): {"matched_filter": 1_792, "iterations": 192, "drain": 0, "total": 1_984},
    (112, 16): {"matched_filter": 224, "iterations": 24, "drain": 0, "total": 248},
}


@pytest.fixture(scope="module")
def golden_problem(aquamodem_matrices) -> np.ndarray:
    """The fixed-point golden problem: three dyadic taps + dyadic pseudo-noise."""
    n = np.arange(224)
    real = ((n * 2654435761) % 2048 - 1024) / 1024.0
    imag = ((n * 40503 + 17) % 2048 - 1024) / 1024.0
    noise = (real + 1j * imag) * 0.0625
    f_true = np.zeros(112, dtype=np.complex128)
    f_true[12] = 0.75 - 0.25j
    f_true[40] = -0.5 + 0.375j
    f_true[87] = 0.25 + 0.125j
    return aquamodem_matrices.S @ f_true + noise


class TestGoldenIPCore:
    @pytest.mark.parametrize("num_fc_blocks,word_length", sorted(GOLDEN_SCHEDULES))
    def test_scalar_core_matches_golden_codes(
        self, aquamodem_matrices, golden_problem, num_fc_blocks, word_length
    ):
        golden = GOLDEN[word_length]
        core = IPCoreSimulator(
            aquamodem_matrices,
            IPCoreConfig(num_fc_blocks=num_fc_blocks, word_length=word_length, num_paths=6),
        )
        result = core.estimate(golden_problem).result
        selected = result.path_indices
        assert selected.tolist() == golden["path_indices"]
        assert result.raw_real[selected].tolist() == golden["raw_real"]
        assert result.raw_imag[selected].tolist() == golden["raw_imag"]
        assert result.raw_decisions.tolist() == golden["raw_decisions"]
        assert result.coefficient_scale == golden["coefficient_scale"]
        assert result.decision_scale == golden["decision_scale"]
        assert result.input_scale == 1.0
        kind, bits, fraction = golden["accumulator"]
        assert str(result.accumulator_format) == f"{kind}{bits}_{fraction}"

    @pytest.mark.parametrize("num_fc_blocks,word_length", sorted(GOLDEN_SCHEDULES))
    def test_batched_core_matches_golden_codes(
        self, aquamodem_matrices, golden_problem, num_fc_blocks, word_length
    ):
        golden = GOLDEN[word_length]
        engine = BatchIPCoreEngine(
            aquamodem_matrices,
            IPCoreConfig(num_fc_blocks=num_fc_blocks, word_length=word_length, num_paths=6),
        )
        result = engine.estimate_batch(golden_problem[np.newaxis, :]).result[0]
        selected = result.path_indices
        assert selected.tolist() == golden["path_indices"]
        assert result.raw_real[selected].tolist() == golden["raw_real"]
        assert result.raw_imag[selected].tolist() == golden["raw_imag"]
        assert result.raw_decisions.tolist() == golden["raw_decisions"]

    @pytest.mark.parametrize("num_fc_blocks,word_length", sorted(GOLDEN_SCHEDULES))
    def test_schedule_breakdown_matches_golden_cycles(
        self, aquamodem_matrices, golden_problem, num_fc_blocks, word_length
    ):
        golden = GOLDEN_SCHEDULES[(num_fc_blocks, word_length)]
        engine = BatchIPCoreEngine(
            aquamodem_matrices,
            IPCoreConfig(num_fc_blocks=num_fc_blocks, word_length=word_length, num_paths=6),
        )
        schedule = engine.core.estimate(golden_problem).schedule
        assert schedule.matched_filter_cycles == golden["matched_filter"]
        assert schedule.iteration_cycles == golden["iterations"]
        assert schedule.drain_cycles == golden["drain"]
        assert schedule.total_cycles == golden["total"]
        # the closed-form schedule the batched engine shares is the same one
        assert engine.estimate_batch(golden_problem[np.newaxis, :]).schedule == schedule

"""Unit tests for the Filter-and-Cancel IP core simulator (Figure 5)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.channel.multipath import random_sparse_channel
from repro.channel.simulator import add_noise_for_snr
from repro.core.fixedpoint_mp import FixedPointMatchingPursuit
from repro.core.ipcore import (
    ControlUnit,
    CoreRegisters,
    IPCoreConfig,
    IPCoreSimulator,
    QGenBlock,
)
from repro.core.ipcore.fc_block import FilterAndCancelBlock
from repro.core.matching_pursuit import matching_pursuit


class TestControlUnitCycleModel:
    def test_fully_parallel_cycle_count(self):
        control = ControlUnit(num_delays=112, window_length=224, num_fc_blocks=112, num_paths=6)
        assert control.columns_per_block == 1
        assert control.total_cycles() == 248  # 224 + 6 * 4

    def test_serial_cycle_count(self):
        control = ControlUnit(num_delays=112, window_length=224, num_fc_blocks=1, num_paths=6)
        assert control.total_cycles() == 112 * 248

    def test_cycles_scale_with_serialization(self):
        cycles = {
            p: ControlUnit(112, 224, p, 6).total_cycles() for p in (1, 2, 4, 8, 14, 28, 56, 112)
        }
        for p, c in cycles.items():
            assert c == cycles[112] * (112 // p)

    def test_schedule_breakdown_sums_to_total(self):
        control = ControlUnit(112, 224, 14, 6, drain_cycles=5)
        breakdown = control.schedule()
        assert breakdown.total_cycles == (
            breakdown.matched_filter_cycles + breakdown.iteration_cycles + breakdown.drain_cycles
        )
        assert breakdown.as_dict()["total"] == breakdown.total_cycles

    def test_non_divisor_parallelism_rejected(self):
        with pytest.raises(ValueError):
            ControlUnit(num_delays=112, window_length=224, num_fc_blocks=13, num_paths=6)

    def test_qgen_latency_adds_per_iteration(self):
        base = ControlUnit(112, 224, 112, 6).total_cycles()
        with_qgen = ControlUnit(112, 224, 112, 6, qgen_cycles_per_iteration=7).total_cycles()
        assert with_qgen == base + 6 * 7


class TestCoreRegisters:
    def test_scalar_layout(self):
        registers = CoreRegisters.zeros(12)
        assert registers.V.shape == (12,)
        assert registers.num_delays == 12


class TestQGenBlock:
    def make(self, num_delays: int = 10) -> QGenBlock:
        return QGenBlock(np.zeros(num_delays, dtype=bool))

    def test_selects_maximum(self):
        qgen = self.make()
        decision = qgen.select([(0, 1.0, 1.0 + 0j), (5, 3.0, 2.0 + 0j), (9, 2.0, 0.5 + 0j)])
        assert decision.index == 5
        assert decision.coefficient == 2.0 + 0j
        assert qgen.selected[5]

    def test_excludes_already_selected(self):
        qgen = self.make()
        qgen.select([(5, 3.0, 1.0 + 0j), (2, 1.0, 1.0 + 0j)])
        second = qgen.select([(5, 3.0, 1.0 + 0j), (2, 1.0, 1.0 + 0j)])
        assert second.index == 2
        assert qgen.selection_order == [5, 2]

    def test_reset_clears_history_and_mask(self):
        qgen = self.make()
        qgen.select([(1, 1.0, 1.0 + 0j)])
        qgen.reset()
        assert not qgen.selected.any()
        assert qgen.select([(1, 1.0, 1.0 + 0j)]).index == 1

    def test_all_selected_raises(self):
        qgen = self.make()
        qgen.select([(1, 1.0, 1.0 + 0j)])
        with pytest.raises(ValueError):
            qgen.select([(1, 1.0, 1.0 + 0j)])

    def test_empty_candidates_raises(self):
        with pytest.raises(ValueError):
            self.make().select([])

    def test_first_maximum_tie_break(self):
        """Equal Q values resolve to the earliest index, like np.argmax."""
        qgen = self.make()
        assert qgen.select([(3, 2.0, 0j), (7, 2.0, 0j)]).index == 3


class TestFilterAndCancelBlock:
    def block_for(self, matrices, start, stop, word_length=16):
        datapath = FixedPointMatchingPursuit(matrices, word_length=word_length)
        return FilterAndCancelBlock(0, start, stop, datapath)

    def test_stored_matrices_are_global_quantisation_views(self, small_matrices):
        """Block RAM holds windows of the *globally* quantised matrices."""
        datapath = FixedPointMatchingPursuit(small_matrices, word_length=12)
        block = FilterAndCancelBlock(1, 2, 5, datapath)
        np.testing.assert_array_equal(block.S, datapath.S_q[:, 2:5])
        np.testing.assert_array_equal(block.A, datapath.A_q[2:5, :])
        np.testing.assert_array_equal(block.a, datapath.a_q[2:5])
        np.testing.assert_array_equal(block.column_indices, [2, 3, 4])
        assert block.num_columns == 3
        assert block.word_length == 12

    def test_matched_filter_matches_direct_computation(self, small_matrices, rng):
        block = self.block_for(small_matrices, 0, small_matrices.num_delays)
        received = rng.standard_normal(small_matrices.window_length) * 0.1 + 0j
        registers = CoreRegisters.zeros(small_matrices.num_delays)
        r_q, _ = block.datapath.quantize_received(received)
        matched = block.datapath.matched_filter(r_q)
        block.matched_filter(registers, matched, 1.0)
        expected = small_matrices.S.T @ received
        np.testing.assert_allclose(registers.V, expected, rtol=1e-2, atol=1e-3)

    def test_commit_and_ownership(self, small_matrices):
        block = FilterAndCancelBlock(
            1, 2, 4, FixedPointMatchingPursuit(small_matrices, word_length=12)
        )
        assert block.owns(3)
        assert not block.owns(0)
        registers = CoreRegisters.zeros(small_matrices.num_delays)
        with pytest.raises(ValueError, match="not owned"):
            block.commit(registers, 0)

    def test_commit_latches_temporary_coefficient(self, small_matrices):
        block = self.block_for(small_matrices, 0, small_matrices.num_delays)
        registers = CoreRegisters.zeros(small_matrices.num_delays)
        registers.G[3] = 0.5 - 0.25j
        committed = block.commit(registers, 3)
        assert committed == 0.5 - 0.25j
        assert registers.F[3] == 0.5 - 0.25j
        indices, values = block.coefficients(registers)
        np.testing.assert_array_equal(indices, block.column_indices)
        assert values[3] == 0.5 - 0.25j and not np.any(np.delete(values, 3))

    def test_cancel_on_a_window_equals_the_whole_array_update(self, small_matrices, rng):
        """Step 8 on one block's window is the reference estimator's
        whole-array cancellation, restricted to that window, bit for bit."""
        datapath = FixedPointMatchingPursuit(small_matrices, word_length=8)
        block = FilterAndCancelBlock(1, 6, 12, datapath)
        registers = CoreRegisters.zeros(small_matrices.num_delays)
        registers.V[...] = datapath.requantize(
            rng.standard_normal(small_matrices.num_delays) * (1 - 0.5j), 4.0
        )
        before = registers.V.copy()
        coefficient = datapath.requantize(np.array([0.3 + 0.2j]), 4.0)[0]
        block.cancel(registers, 17, coefficient, 4.0)
        whole = datapath.requantize(before - datapath.A_q[:, 17] * coefficient, 4.0)
        np.testing.assert_array_equal(registers.V[6:12], whole[6:12])
        np.testing.assert_array_equal(np.delete(registers.V, range(6, 12)),
                                      np.delete(before, range(6, 12)))

    def test_empty_window_rejected(self, small_matrices):
        datapath = FixedPointMatchingPursuit(small_matrices, word_length=8)
        with pytest.raises(ValueError):
            FilterAndCancelBlock(0, 3, 3, datapath)
        with pytest.raises(ValueError):
            FilterAndCancelBlock(0, small_matrices.num_delays, small_matrices.num_delays + 1,
                                 datapath)


class TestIPCoreSimulator:
    @pytest.mark.parametrize("num_fc_blocks", [1, 14, 112])
    def test_functional_equivalence_to_reference(self, aquamodem_matrices, num_fc_blocks):
        """The partitioned datapath must select the same paths as the reference MP."""
        channel = random_sparse_channel(num_paths=3, max_delay=100, rng=3, min_separation=8)
        received = add_noise_for_snr(
            aquamodem_matrices.synthesize(channel.coefficient_vector(112)), 25.0, rng=4
        )
        core = IPCoreSimulator(
            aquamodem_matrices,
            IPCoreConfig(num_fc_blocks=num_fc_blocks, word_length=16, num_paths=6),
        )
        run = core.estimate(received)
        reference = matching_pursuit(received, aquamodem_matrices, num_paths=6)
        # the true channel taps dominate; both datapaths must find them first
        # (the trailing noise-driven picks may legitimately differ under
        # quantisation), and agree on their coefficients within the 16-bit
        # quantisation bound
        true_delays = np.sort(channel.delays)
        np.testing.assert_array_equal(np.sort(run.result.path_indices[:3]), true_delays)
        np.testing.assert_array_equal(np.sort(reference.path_indices[:3]), true_delays)
        np.testing.assert_allclose(
            run.result.coefficients[true_delays],
            reference.coefficients[true_delays],
            rtol=0.01, atol=1e-3,
        )

    def test_parallelism_does_not_change_result(self, aquamodem_matrices):
        """The level of parallelism is a scheduling choice; the estimate is identical."""
        channel = random_sparse_channel(num_paths=4, max_delay=100, rng=8, min_separation=6)
        received = aquamodem_matrices.synthesize(channel.coefficient_vector(112))
        results = []
        for p in (1, 14, 112):
            core = IPCoreSimulator(
                aquamodem_matrices, IPCoreConfig(num_fc_blocks=p, word_length=8, num_paths=6)
            )
            results.append(core.estimate(received).result)
        for other in results[1:]:
            # the refactored datapath makes this exact: == on raw integer codes
            assert other == results[0]

    def test_matches_fixed_point_reference_estimator(self, aquamodem_matrices):
        """IP core == FixedPointMatchingPursuit, == on the raw integer codes."""
        channel = random_sparse_channel(num_paths=4, max_delay=100, rng=5, min_separation=6)
        received = add_noise_for_snr(
            aquamodem_matrices.synthesize(channel.coefficient_vector(112)), 20.0, rng=6
        )
        core = IPCoreSimulator(
            aquamodem_matrices, IPCoreConfig(num_fc_blocks=14, word_length=12, num_paths=6)
        )
        reference = FixedPointMatchingPursuit(
            aquamodem_matrices, word_length=12, num_paths=6
        )
        assert core.estimate(received).result == reference.estimate(received)

    def test_repeated_estimate_is_stateless(self, aquamodem_matrices):
        """Regression: a second estimate on one instance starts from fresh
        registers — never from the previous call's stale decision metrics."""
        channel = random_sparse_channel(num_paths=3, max_delay=100, rng=11, min_separation=6)
        received = add_noise_for_snr(
            aquamodem_matrices.synthesize(channel.coefficient_vector(112)), 20.0, rng=12
        )
        core = IPCoreSimulator(
            aquamodem_matrices, IPCoreConfig(num_fc_blocks=14, word_length=8, num_paths=6)
        )
        first = core.estimate(received)
        second = core.estimate(received)
        assert second.result == first.result
        # and an interleaved different input cannot leak state either
        core.estimate(np.ones(224, dtype=complex))
        assert core.estimate(received).result == first.result

    def test_cycle_counts_match_control_unit(self, aquamodem_matrices):
        for p in (1, 14, 112):
            core = IPCoreSimulator(aquamodem_matrices, IPCoreConfig(num_fc_blocks=p))
            run = core.estimate(np.ones(224, dtype=complex))
            assert run.total_cycles == core.cycle_count()
            assert run.total_cycles == 248 * (112 // p)

    def test_dsp48_usage(self, aquamodem_matrices):
        core = IPCoreSimulator(aquamodem_matrices, IPCoreConfig(num_fc_blocks=112))
        assert core.total_dsp48 == 224  # the paper's stated requirement
        serial = IPCoreSimulator(aquamodem_matrices, IPCoreConfig(num_fc_blocks=1))
        assert serial.total_dsp48 == 2

    def test_non_divisor_parallelism_rejected(self, aquamodem_matrices):
        with pytest.raises(ValueError):
            IPCoreSimulator(aquamodem_matrices, IPCoreConfig(num_fc_blocks=13))

    def test_too_many_paths_rejected(self, small_matrices):
        with pytest.raises(ValueError):
            IPCoreSimulator(small_matrices, IPCoreConfig(num_fc_blocks=1, num_paths=1000))

    def test_column_partition_covers_all_delays(self, aquamodem_matrices):
        core = IPCoreSimulator(aquamodem_matrices, IPCoreConfig(num_fc_blocks=14))
        covered = np.concatenate([b.column_indices for b in core.blocks])
        np.testing.assert_array_equal(np.sort(covered), np.arange(112))
        assert all(b.num_columns == 8 for b in core.blocks)
        for index in (0, 55, 111):
            assert core.owner_of(index).owns(index)

    def test_quantiser_modes_forwarded_to_datapath(self, small_matrices):
        from repro.fixedpoint.quantize import OverflowMode, RoundingMode

        core = IPCoreSimulator(
            small_matrices,
            IPCoreConfig(num_fc_blocks=1, word_length=8,
                         rounding="truncate", overflow="wrap"),
        )
        assert core.datapath.rounding is RoundingMode.TRUNCATE
        assert core.datapath.overflow is OverflowMode.WRAP
        assert core.word_length == 8
        # the shared formats the blocks re-quantise through
        assert core.datapath.input_format.word_length == 8
        assert core.datapath.accumulator_format.word_length == 24
        assert core.datapath.matched_filter_exact

"""Edge-case regressions for the IP-core engines.

The corners the conformance sweep's random problems do not reach by
construction: exhausting every delay (num_paths == num_delays), an all-zero
receive vector (zero dynamic-range scale), w=2 tie-break storms, and the
configuration validation error messages.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.fixedpoint_mp import FixedPointMatchingPursuit
from repro.core.ipcore import BatchIPCoreEngine, IPCoreConfig, IPCoreSimulator


class TestFullDelaySweep:
    @pytest.mark.parametrize("num_fc_blocks", (1, 3, 12))
    def test_num_paths_equals_num_delays(self, small_matrices, num_fc_blocks, rng):
        """Every delay gets selected exactly once, still bit-exact three ways."""
        num_delays = small_matrices.num_delays
        config = IPCoreConfig(
            num_fc_blocks=num_fc_blocks, word_length=8, num_paths=num_delays
        )
        engine = BatchIPCoreEngine(small_matrices, config)
        received = rng.standard_normal((2, small_matrices.window_length)) * (1 + 0.5j)
        batch = engine.estimate_batch(received)
        reference = FixedPointMatchingPursuit(
            small_matrices, word_length=8, num_paths=num_delays
        )
        for trial in range(2):
            scalar = engine.core.estimate(received[trial])
            assert sorted(scalar.result.path_indices.tolist()) == list(range(num_delays))
            assert batch.result[trial] == scalar.result
            assert scalar.result == reference.estimate(received[trial])


class TestAllZeroReceived:
    def test_zero_vector_three_ways(self, small_matrices):
        """A silent window yields the all-zero estimate on every path."""
        engine = BatchIPCoreEngine(
            small_matrices, IPCoreConfig(num_fc_blocks=3, word_length=8, num_paths=3)
        )
        zero = np.zeros(small_matrices.window_length, dtype=np.complex128)
        scalar = engine.core.estimate(zero)
        batch = engine.estimate_batch(zero[np.newaxis, :])
        reference = FixedPointMatchingPursuit(
            small_matrices, word_length=8, num_paths=3
        ).estimate(zero)
        assert scalar.result == reference
        assert batch.result[0] == scalar.result
        assert not scalar.result.raw_real.any()
        assert not scalar.result.raw_imag.any()
        assert not scalar.result.raw_decisions.any()
        # zero input ties every Q: argmax selects delays 0, 1, 2 in order
        assert scalar.result.path_indices.tolist() == [0, 1, 2]

    def test_zero_row_inside_mixed_batch(self, small_matrices, rng):
        engine = BatchIPCoreEngine(
            small_matrices, IPCoreConfig(num_fc_blocks=4, word_length=12, num_paths=3)
        )
        received = rng.standard_normal((3, small_matrices.window_length)) + 0j
        received[1] = 0.0
        batch = engine.estimate_batch(received)
        for trial in range(3):
            assert batch.result[trial] == engine.core.estimate(received[trial]).result


class TestNarrowWordTieBreaks:
    def test_w2_tie_breaks_identical_across_all_paths(self, small_matrices, rng):
        """At w=2 the coarse grid floods Q with ties; every datapath must
        resolve them with the same first-maximum rule."""
        received = rng.standard_normal((5, small_matrices.window_length)) * 0.25 + 0j
        reference = FixedPointMatchingPursuit(small_matrices, word_length=2, num_paths=4)
        for num_fc_blocks in (1, 2, 6, 12):
            engine = BatchIPCoreEngine(
                small_matrices,
                IPCoreConfig(num_fc_blocks=num_fc_blocks, word_length=2, num_paths=4),
            )
            batch = engine.estimate_batch(received)
            for trial in range(5):
                scalar = engine.core.estimate(received[trial])
                expected = reference.estimate(received[trial])
                assert scalar.result == expected
                assert batch.result[trial] == scalar.result
                np.testing.assert_array_equal(
                    scalar.result.path_indices, expected.path_indices
                )


class TestConfigurationValidation:
    def test_non_divisible_parallelism_message_names_both_numbers(self, small_matrices):
        """The ValueError pin: the message must carry P and the column count."""
        with pytest.raises(ValueError, match=r"num_fc_blocks \(5\).*\(24\)"):
            IPCoreSimulator(small_matrices, IPCoreConfig(num_fc_blocks=5))

    def test_non_divisible_parallelism_rejected_by_engine_too(self, small_matrices):
        with pytest.raises(ValueError, match=r"\(7\).*\(24\)"):
            BatchIPCoreEngine(small_matrices, IPCoreConfig(num_fc_blocks=7))

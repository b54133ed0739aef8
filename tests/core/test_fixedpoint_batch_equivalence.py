"""Scalar-vs-batch equivalence of the fixed-point MP datapath.

Fixed-point arithmetic is exact integer math, so the batched datapath is not
allowed to drift from the scalar executable specification by even one LSB:
every comparison here is ``==`` on **raw integer codes** (and on the exact
floats they scale to), across word lengths {2, 8, 12, 16, 32}, both rounding
modes and both overflow behaviours — the strongest equivalence claim in the
repository.  The scenario-level tests additionally pin the
``fixedpoint-bitwidth`` ``run_batch`` against its per-trial scalar oracle.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.fixedpoint_mp import FixedPointMatchingPursuit
from repro.experiments import get_scenario, run_sweep
from repro.fixedpoint.quantize import OverflowMode, RoundingMode

#: 23/24 straddle the matched-filter exactness bound, where estimate_batch
#: switches from one exact matmul to the per-trial matvec fallback.
WORD_LENGTHS = (2, 8, 12, 16, 23, 24, 32)


@pytest.fixture(scope="module")
def received_batch() -> np.ndarray:
    """A trial batch covering the datapath's corner cases.

    Random rows at several magnitudes plus an all-zero row (dynamic-range
    scale of zero) and a near-saturation row.
    """
    rng = np.random.default_rng(2024)
    batch = rng.standard_normal((7, 224)) + 1j * rng.standard_normal((7, 224))
    batch[2] = 0.0                      # all-zero received vector
    batch[3] *= 1e-5                    # tiny dynamic range
    batch[4] *= 64.0                    # large dynamic range
    batch[5] = np.round(batch[5] * 4) / 4   # exactly-representable values
    return batch


def assert_estimates_equal(scalar, batched) -> None:
    """Raw integer codes, indices, scales and floats must all match with ==."""
    assert np.array_equal(scalar.path_indices, batched.path_indices)
    # the heart of the contract: exact integer codes, no float tolerance
    assert np.array_equal(scalar.raw_real, batched.raw_real)
    assert np.array_equal(scalar.raw_imag, batched.raw_imag)
    assert np.array_equal(scalar.raw_decisions, batched.raw_decisions)
    # scales are powers-of-two products; floats reconstruct identically
    assert scalar.coefficient_scale == batched.coefficient_scale
    assert scalar.decision_scale == batched.decision_scale
    assert scalar.input_scale == batched.input_scale
    assert np.array_equal(scalar.coefficients, batched.coefficients)
    assert np.array_equal(scalar.path_gains, batched.path_gains)
    assert np.array_equal(scalar.decision_history, batched.decision_history)
    assert scalar.accumulator_format == batched.accumulator_format


class TestScalarBatchEquivalence:
    @pytest.mark.parametrize("word_length", WORD_LENGTHS)
    @pytest.mark.parametrize("rounding", list(RoundingMode))
    @pytest.mark.parametrize("overflow", list(OverflowMode))
    def test_raw_codes_identical(
        self, aquamodem_matrices, received_batch, word_length, rounding, overflow
    ):
        estimator = FixedPointMatchingPursuit(
            aquamodem_matrices, word_length=word_length, num_paths=6,
            rounding=rounding, overflow=overflow,
        )
        batched = estimator.estimate_batch(received_batch)
        for trial in range(received_batch.shape[0]):
            scalar = estimator.estimate(received_batch[trial])
            assert_estimates_equal(scalar, batched[trial])

    @pytest.mark.parametrize("word_length", (2, 8, 32))
    def test_full_delay_sweep_identical(
        self, aquamodem_matrices, received_batch, word_length
    ):
        """num_paths == num_delays: every delay selected, still bit-exact."""
        estimator = FixedPointMatchingPursuit(
            aquamodem_matrices, word_length=word_length,
            num_paths=aquamodem_matrices.num_delays,
        )
        batched = estimator.estimate_batch(received_batch[:3])
        for trial in range(3):
            scalar = estimator.estimate(received_batch[trial])
            assert_estimates_equal(scalar, batched[trial])
            assert sorted(scalar.path_indices.tolist()) == list(
                range(aquamodem_matrices.num_delays)
            )

    def test_single_trial_batch(self, aquamodem_matrices, received_batch):
        estimator = FixedPointMatchingPursuit(aquamodem_matrices, word_length=8)
        batched = estimator.estimate_batch(received_batch[:1])
        assert batched.num_trials == 1
        assert_estimates_equal(estimator.estimate(received_batch[0]), batched[0])

    def test_empty_batch(self, aquamodem_matrices):
        estimator = FixedPointMatchingPursuit(aquamodem_matrices, word_length=8)
        batched = estimator.estimate_batch(np.zeros((0, 224), dtype=np.complex128))
        assert batched.num_trials == 0
        assert batched.coefficients.shape == (0, aquamodem_matrices.num_delays)
        assert batched.path_indices.shape == (0, 6)
        assert batched.unbatch() == []

    def test_raw_codes_reconstruct_coefficients(self, aquamodem_matrices, received_batch):
        """The raw codes ARE the estimate: scaling them back gives the floats."""
        estimator = FixedPointMatchingPursuit(aquamodem_matrices, word_length=12)
        batched = estimator.estimate_batch(received_batch)
        resolution = batched.accumulator_format.resolution
        scale = batched.coefficient_scale[:, np.newaxis]
        rebuilt = (
            batched.raw_real.astype(np.float64) * resolution * scale
            + 1j * batched.raw_imag.astype(np.float64) * resolution * scale
        )
        assert np.allclose(rebuilt, batched.coefficients, rtol=1e-12, atol=0.0)

    def test_estimate_equality_operator(self, aquamodem_matrices, received_batch):
        """== on estimates compares the integer state (and never raises)."""
        narrow = FixedPointMatchingPursuit(aquamodem_matrices, word_length=8)
        wide = FixedPointMatchingPursuit(aquamodem_matrices, word_length=12)
        assert narrow.estimate(received_batch[0]) == narrow.estimate(received_batch[0])
        assert narrow.estimate(received_batch[0]) != wide.estimate(received_batch[0])
        assert narrow.estimate(received_batch[0]) != narrow.estimate(received_batch[1])
        assert narrow.estimate(received_batch[0]) != "not an estimate"
        batch_a = narrow.estimate_batch(received_batch[:2])
        batch_b = narrow.estimate_batch(received_batch[:2])
        assert batch_a == batch_b
        assert batch_a != wide.estimate_batch(received_batch[:2])
        assert batch_a[0] == narrow.estimate(received_batch[0])

    def test_raw_codes_within_accumulator_range(self, aquamodem_matrices, received_batch):
        for overflow in OverflowMode:
            estimator = FixedPointMatchingPursuit(
                aquamodem_matrices, word_length=8, overflow=overflow
            )
            batched = estimator.estimate_batch(received_batch)
            fmt = batched.accumulator_format
            for raw in (batched.raw_real, batched.raw_imag, batched.raw_decisions):
                assert raw.min(initial=0) >= fmt.raw_min
                assert raw.max(initial=0) <= fmt.raw_max


class TestScenarioRunBatchEquivalence:
    """The scenario's ``run_batch`` (one ``estimate_batch`` per word length
    and configuration) equals its per-trial scalar oracle, metric for metric."""

    @pytest.fixture(scope="class")
    def spec(self):
        return (
            get_scenario("fixedpoint-bitwidth").spec
            .with_axis("word_length", (4, 8, 12))
            .with_axis("num_paths", (4, 6))  # a second waveform configuration
            .with_seed(base_seed=11, replicates=4)
        )

    def test_run_batch_equals_scalar_run_trial(self, spec):
        scenario = get_scenario("fixedpoint-bitwidth")
        points = [(trial.params, trial.seed) for trial in spec.expand()]
        oracle = [scenario.run_trial(params, seed) for params, seed in points]
        assert scenario.run_batch(points) == oracle

    def test_sweep_chunking_does_not_change_records(self, spec):
        """One run_batch call, per-worker chunks and tiny serial chunks agree."""
        whole = run_sweep(spec)
        assert run_sweep(spec, chunk_size=5).records == whole.records
        assert run_sweep(spec, jobs=2).records == whole.records

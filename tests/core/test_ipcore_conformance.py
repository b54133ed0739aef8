"""Three-way cross-layer conformance: IP core == fixed-point MP == reference.

The acceptance contract of the IP-core layer: the scalar
:class:`IPCoreSimulator`, the batched :class:`BatchIPCoreEngine` and
:class:`FixedPointMatchingPursuit` are pinned to **identical quantised
codes** (``==`` on raw integers, no float tolerances) at P=1 across
w ∈ {2, 8, 12, 16, 32}, batched == scalar at *every* P of the sweep, and the
float :func:`matching_pursuit` reference is matched within the documented
quantisation bounds.  The sweep-level pin additionally checks that
``repro sweep ipcore-parallelism`` (batch-native: one ``estimate_batch`` per
word length) produces the records of the per-trial scalar FC-block walk.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.channel.multipath import random_sparse_channel
from repro.channel.simulator import add_noise_for_snr
from repro.core.fixedpoint_mp import FixedPointMatchingPursuit
from repro.core.ipcore import BatchIPCoreEngine, IPCoreConfig, IPCoreSimulator
from repro.experiments import get_scenario, run_sweep
from repro.fixedpoint.quantize import OverflowMode, RoundingMode
from tests.conformance.ipcore import (
    DEFAULT_PARALLELISM_LEVELS,
    DEFAULT_WORD_LENGTHS,
    FLOAT_ERROR_BOUNDS,
    check_conformance,
)
from tests.experiments.oracle import oracle_records

PARALLELISM = DEFAULT_PARALLELISM_LEVELS   # (1, 2, 4, 8, 14, 28, 56, 112)
WORD_LENGTHS = DEFAULT_WORD_LENGTHS        # (2, 8, 12, 16, 32)


@pytest.fixture(scope="module")
def received_batch(aquamodem_matrices) -> np.ndarray:
    """Three sparse-channel problems at 25 dB SNR, shared by every cell."""
    rows = []
    for seed in range(3):
        channel = random_sparse_channel(
            num_paths=4, max_delay=100, rng=seed, min_separation=4
        )
        rows.append(add_noise_for_snr(
            aquamodem_matrices.synthesize(channel.coefficient_vector(112)),
            25.0, rng=seed + 100,
        ))
    return np.stack(rows)


@pytest.fixture(scope="module")
def report(aquamodem_matrices, received_batch):
    return check_conformance(aquamodem_matrices, received_batch)


class TestThreeWayConformance:
    @pytest.mark.parametrize("word_length", WORD_LENGTHS)
    def test_ipcore_equals_fixedpoint_at_p1(
        self, aquamodem_matrices, received_batch, word_length
    ):
        """P=1 with matching modes: the two machines produce identical codes."""
        core = IPCoreSimulator(
            aquamodem_matrices,
            IPCoreConfig(num_fc_blocks=1, word_length=word_length, num_paths=6),
        )
        reference = FixedPointMatchingPursuit(
            aquamodem_matrices, word_length=word_length, num_paths=6
        )
        for received in received_batch:
            run = core.estimate(received)
            estimate = reference.estimate(received)
            assert run.result == estimate
            # spell the contract out: raw integer codes, compared exactly
            np.testing.assert_array_equal(run.result.raw_real, estimate.raw_real)
            np.testing.assert_array_equal(run.result.raw_imag, estimate.raw_imag)
            np.testing.assert_array_equal(run.result.raw_decisions, estimate.raw_decisions)

    def test_full_grid_is_exact(self, report):
        """Every (P, w) cell: ipcore == fixed-point MP and batch == scalar."""
        assert len(report.cells) == len(PARALLELISM) * len(WORD_LENGTHS)
        assert report.failures() == []
        assert report.all_exact
        for word_length in WORD_LENGTHS:
            for parallelism in PARALLELISM:
                cell = report.cell(parallelism, word_length)
                assert cell.ipcore_equals_fixedpoint, (parallelism, word_length)
                assert cell.batch_equals_scalar, (parallelism, word_length)

    @pytest.mark.parametrize("num_fc_blocks", PARALLELISM)
    def test_batched_equals_scalar_at_every_p(
        self, aquamodem_matrices, received_batch, num_fc_blocks
    ):
        engine = BatchIPCoreEngine(
            aquamodem_matrices,
            IPCoreConfig(num_fc_blocks=num_fc_blocks, word_length=12, num_paths=6),
        )
        batch = engine.estimate_batch(received_batch)
        assert batch.total_cycles == engine.cycle_count()
        for trial in range(received_batch.shape[0]):
            scalar = engine.core.estimate(received_batch[trial])
            assert batch.result[trial] == scalar.result
            assert batch[trial].schedule == scalar.schedule

    def test_float_reference_within_documented_bounds(self, report):
        """The float reference is matched within FLOAT_ERROR_BOUNDS per w."""
        assert report.all_within_float_bounds
        for word_length in WORD_LENGTHS:
            cell = report.cell(1, word_length)
            assert cell.max_error_vs_float <= FLOAT_ERROR_BOUNDS[word_length]
        # and the bounds are meaningful: error shrinks as the word grows
        errors = [report.cell(1, w).max_error_vs_float for w in sorted(WORD_LENGTHS)]
        assert errors[-1] < errors[0]
        assert report.cell(1, 32).max_error_vs_float < 1e-7

    def test_cycles_fall_as_parallelism_grows(self, report):
        cycles = [report.cell(p, 8).total_cycles for p in PARALLELISM]
        assert cycles == sorted(cycles, reverse=True)
        assert cycles[0] == 27_776 and cycles[-1] == 248

    def test_conformance_holds_under_other_quantiser_modes(
        self, aquamodem_matrices, received_batch
    ):
        """The contract is mode-parametric, not an artefact of the defaults."""
        report = check_conformance(
            aquamodem_matrices, received_batch,
            parallelism_levels=(1, 14, 112), word_lengths=(8,),
            rounding=RoundingMode.TRUNCATE, overflow=OverflowMode.WRAP,
        )
        assert report.all_exact

    def test_cell_lookup_raises_on_unknown_point(self, report):
        with pytest.raises(KeyError):
            report.cell(13, 8)


class TestSweepLevelConformance:
    @pytest.fixture(scope="class")
    def spec(self):
        return (
            get_scenario("ipcore-parallelism").spec
            .with_axis("num_fc_blocks", (1, 14, 112))
            .with_axis("word_length", (8, 16))
            .with_seed(base_seed=5, replicates=2)
        )

    def test_sweep_records_equal_scalar_oracle(self, spec):
        """`repro sweep ipcore-parallelism` end to end: the batch-native sweep
        equals the scalar FC-block walk of ``run_trial``, record for record."""
        batched = run_sweep(spec)
        assert batched.stats.num_trials == spec.num_trials
        assert batched.records == oracle_records(spec)

    def test_accuracy_invariant_and_cycles_fall_across_p(self, spec):
        result = run_sweep(spec)
        by_p: dict[int, list] = {}
        for record in result.records:
            if record["word_length"] == 8:
                by_p.setdefault(record["num_fc_blocks"], []).append(record)
        baseline = sorted(
            (r["seed"], r["normalized_error"], r["error_vs_float"]) for r in by_p[1]
        )
        for parallelism, records in by_p.items():
            assert sorted(
                (r["seed"], r["normalized_error"], r["error_vs_float"]) for r in records
            ) == baseline
            assert all(r["total_cycles"] == 27_776 // parallelism for r in records)

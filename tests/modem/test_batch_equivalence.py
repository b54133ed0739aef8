"""Seed-locked equivalence: the batched engine vs the per-frame reference.

The batched link engine (`repro.modem.batch`) promises to consume an RNG
stream identical to the per-frame Monte-Carlo loop and to reproduce its
results — these tests pin that promise for both schemes, across SNR points,
seed policies and channel modes, and for the batched Matching Pursuits
kernel against both reference implementations.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.channel.multipath import MultipathChannel, random_sparse_channel, random_sparse_channel_batch
from repro.core.matching_pursuit import (
    matching_pursuit,
    matching_pursuit_batch,
    matching_pursuit_naive,
)
from repro.dsp.signal_matrix import composite_signal_matrices
from repro.experiments.spec import SeedPolicy
from repro.modem.config import AquaModemConfig
from repro.modem.link import LinkSimulator

SNR_POINTS_DB = (-6.0, 0.0, 6.0)


def _counts(result):
    return (result.scheme, result.snr_db, result.symbols_sent, result.symbol_errors)


def _perframe(simulator, scheme, snr_db, num_symbols, num_frames):
    """The per-frame reference loop of ``scheme`` (the executable spec)."""
    run = simulator.run_dsss_perframe if scheme == "DSSS" else simulator.run_fsk_perframe
    return run(snr_db, num_symbols, num_frames)


class TestLinkEquivalence:
    """Identical RNG streams -> identical LinkResult counts."""

    @pytest.mark.parametrize("scheme", ["DSSS", "FSK"])
    @pytest.mark.parametrize("snr_db", SNR_POINTS_DB)
    def test_counts_match_per_seed_policy(self, scheme, snr_db):
        policy = SeedPolicy(base_seed=7, replicates=3)
        for replicate in range(policy.replicates):
            seed = policy.trial_seed(replicate, {})
            reference = _perframe(
                LinkSimulator(rng=seed), scheme, snr_db, num_symbols=48, num_frames=4
            )
            batched = LinkSimulator(rng=seed).run(
                scheme, snr_db, num_symbols=48, num_frames=4
            )
            assert _counts(batched) == _counts(reference)

    @pytest.mark.parametrize("scheme", ["DSSS", "FSK"])
    def test_curve_counts_match(self, scheme):
        """Whole curves share one generator; the stream stays locked across points."""
        simulator = LinkSimulator(rng=3)
        reference = [
            _perframe(simulator, scheme, snr, num_symbols=36, num_frames=3)
            for snr in SNR_POINTS_DB
        ]
        batched = LinkSimulator(rng=3).run_curve(
            scheme, list(SNR_POINTS_DB), num_symbols=36, num_frames=3
        )
        assert [_counts(r) for r in batched] == [_counts(r) for r in reference]

    @pytest.mark.parametrize("scheme", ["DSSS", "FSK"])
    def test_fixed_channel_mode(self, scheme):
        channel = MultipathChannel(
            delays=np.array([0, 9, 23]), gains=np.array([1.0, 0.4 + 0.3j, -0.2j])
        )
        reference = _perframe(
            LinkSimulator(channel=channel, rng=11), scheme, 4.0, num_symbols=30, num_frames=3
        )
        batched = LinkSimulator(channel=channel, rng=11).run(
            scheme, 4.0, num_symbols=30, num_frames=3
        )
        assert _counts(batched) == _counts(reference)

    def test_engine_consumes_identical_stream(self):
        """After a run, batched and per-frame generators sit at the same state."""
        rng_a = np.random.default_rng(5)
        rng_b = np.random.default_rng(5)
        LinkSimulator(rng=rng_a).run_dsss_perframe(0.0, num_symbols=24, num_frames=2)
        LinkSimulator(rng=rng_b).run_dsss(0.0, num_symbols=24, num_frames=2)
        # identical state <=> identical next draws
        assert np.array_equal(rng_a.integers(0, 2**62, size=8), rng_b.integers(0, 2**62, size=8))

    def test_channel_batch_matches_sequential_draws(self):
        sequential = [
            random_sparse_channel(num_paths=4, max_delay=80, rng=np.random.default_rng(9))
            for _ in range(1)
        ]
        # one generator drawn twice sequentially == batch of two
        rng = np.random.default_rng(9)
        first = random_sparse_channel(num_paths=4, max_delay=80, rng=rng)
        second = random_sparse_channel(num_paths=4, max_delay=80, rng=rng)
        batch = random_sparse_channel_batch(2, num_paths=4, max_delay=80, rng=9)
        assert np.array_equal(batch[0].delays, first.delays)
        assert np.array_equal(batch[0].gains, first.gains)
        assert np.array_equal(batch[1].delays, second.delays)
        assert np.array_equal(batch[1].gains, second.gains)
        assert np.array_equal(sequential[0].delays, first.delays)


class TestMatchingPursuitBatchEquivalence:
    """The batched MP kernel against the per-trial reference implementations."""

    @pytest.fixture(scope="class")
    def matrices(self):
        return composite_signal_matrices(8, 7, 2)

    @pytest.fixture(scope="class")
    def received_stack(self, matrices):
        rng = np.random.default_rng(21)
        rows = []
        for seed in range(6):
            channel = random_sparse_channel(
                num_paths=4, max_delay=90, rng=rng, min_separation=4
            )
            clean = matrices.synthesize(channel.coefficient_vector(matrices.num_delays))
            noise = rng.standard_normal(clean.shape[0]) + 1j * rng.standard_normal(clean.shape[0])
            rows.append(clean + 0.05 * noise)
        return np.stack(rows)

    def test_matches_vectorised_reference(self, matrices, received_stack):
        batch = matching_pursuit_batch(received_stack, matrices, num_paths=6)
        for trial, received in enumerate(received_stack):
            single = matching_pursuit(received, matrices, num_paths=6)
            assert np.array_equal(batch.path_indices[trial], single.path_indices)
            np.testing.assert_allclose(
                batch.coefficients[trial], single.coefficients, rtol=1e-12, atol=1e-14
            )
            np.testing.assert_allclose(
                batch.path_gains[trial], single.path_gains, rtol=1e-12, atol=1e-14
            )
            np.testing.assert_allclose(
                batch.decision_history[trial], single.decision_history, rtol=1e-12, atol=1e-14
            )

    def test_matches_naive_specification(self, matrices, received_stack):
        batch = matching_pursuit_batch(received_stack[:2], matrices, num_paths=4)
        for trial in range(2):
            naive = matching_pursuit_naive(received_stack[trial], matrices, num_paths=4)
            assert np.array_equal(batch.path_indices[trial], naive.path_indices)
            np.testing.assert_allclose(
                batch.coefficients[trial], naive.coefficients, rtol=1e-12, atol=1e-14
            )

    def test_unbatch_round_trip(self, matrices, received_stack):
        batch = matching_pursuit_batch(received_stack, matrices, num_paths=5)
        singles = batch.unbatch()
        assert len(singles) == batch.num_trials == received_stack.shape[0]
        rebuilt = type(batch).from_results(singles, matrices.num_delays)
        assert np.array_equal(rebuilt.coefficients, batch.coefficients)
        assert np.array_equal(rebuilt.path_indices, batch.path_indices)


class TestWindowBatchHelpers:
    """The window-stack DSP helpers against their per-window references."""

    def test_rake_combine_windows_matches_rake_combine(self):
        from repro.dsp.detection import rake_combine, rake_combine_windows

        rng = np.random.default_rng(13)
        windows = rng.standard_normal((5, 224)) + 1j * rng.standard_normal((5, 224))
        delays = np.array([0, 7, 40], dtype=np.int64)
        gains = np.array([1.0, 0.5 - 0.2j, -0.3j])
        batched = rake_combine_windows(windows, delays, gains, symbol_length=112)
        for i, window in enumerate(windows):
            np.testing.assert_array_equal(
                batched[i], rake_combine(window, delays, gains, symbol_length=112)
            )
        with pytest.raises(ValueError):
            rake_combine_windows(windows, np.array([200]), np.array([1.0 + 0j]), 112)

    def test_symbol_decision_batch_matches_symbol_decision(self):
        from repro.dsp.detection import symbol_decision, symbol_decision_batch
        from repro.dsp.modulation.dsss import DSSSModulator

        modulator = DSSSModulator()
        rng = np.random.default_rng(14)
        combined = rng.standard_normal((6, modulator.symbol_samples)) + 1j * rng.standard_normal(
            (6, modulator.symbol_samples)
        )
        decisions, scores = symbol_decision_batch(combined, modulator.waveforms)
        for i, row in enumerate(combined):
            decision, row_scores = symbol_decision(row, modulator.waveforms)
            assert decisions[i] == decision
            np.testing.assert_allclose(scores[i], row_scores, rtol=1e-12)

    def test_demodulate_windows_matches_demodulate(self):
        from repro.dsp.modulation.dsss import DSSSModulator

        modulator = DSSSModulator()
        rng = np.random.default_rng(15)
        symbols = rng.integers(0, modulator.alphabet_size, size=9)
        stream = modulator.modulate(symbols)
        noisy = stream + 0.2 * (
            rng.standard_normal(stream.shape[0]) + 1j * rng.standard_normal(stream.shape[0])
        )
        delays = np.array([0, 5], dtype=np.int64)
        gains = np.array([1.0, 0.4 + 0.1j])
        reference = modulator.demodulate(noisy, path_delays=delays, path_gains=gains)
        windowed = modulator.demodulate_windows(
            modulator.receive_windows(noisy), path_delays=delays, path_gains=gains
        )
        np.testing.assert_array_equal(windowed.symbols, reference.symbols)
        np.testing.assert_allclose(windowed.scores, reference.scores, rtol=1e-12)
        # the no-channel default (single unit path at delay 0) also agrees
        plain = modulator.demodulate_windows(modulator.receive_windows(noisy))
        np.testing.assert_array_equal(plain.symbols, modulator.demodulate(noisy).symbols)


class TestReceiverBatchEquivalence:
    """receive_batch row-for-row against receive."""

    def test_receive_batch_matches_receive(self):
        from repro.channel.simulator import add_noise_for_snr, apply_channel
        from repro.modem.receiver import Receiver
        from repro.modem.transmitter import Transmitter

        config = AquaModemConfig()
        tx = Transmitter(config=config)
        rx = Receiver(config=config)
        rng = np.random.default_rng(33)
        frames = []
        for _ in range(4):
            channel = random_sparse_channel(num_paths=4, max_delay=60, rng=rng)
            symbols = rng.integers(0, config.walsh_symbols, size=10)
            faded = apply_channel(tx.transmit_symbols(symbols).samples, channel)
            frames.append(add_noise_for_snr(faded, 8.0, rng=rng))
        stack = np.stack(frames)

        batched = rx.receive_batch(stack)
        for t, frame in enumerate(stack):
            single = rx.receive(frame)
            assert np.array_equal(batched.symbols[t], single.symbols)
            assert np.array_equal(batched.bits[t], single.bits)
            assert np.array_equal(
                batched.channel_estimates[t].path_indices,
                single.channel_estimate.path_indices,
            )
            assert batched[t].num_symbols == single.num_symbols

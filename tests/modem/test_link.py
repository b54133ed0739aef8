"""Unit tests for the link-level simulator (DS-SS vs FSK, experiment E7)."""

from __future__ import annotations

import math

import pytest

from repro.channel.multipath import MultipathChannel
from repro.modem.config import AquaModemConfig
from repro.modem.link import LinkResult, LinkSimulator

import numpy as np


class TestLinkResult:
    def test_symbol_error_rate(self):
        result = LinkResult(scheme="DSSS", snr_db=0.0, symbols_sent=100, symbol_errors=7)
        assert result.symbol_error_rate == pytest.approx(0.07)

    def test_zero_symbols_is_nan(self):
        # an undefined rate must not masquerade as "error free"
        assert math.isnan(LinkResult("FSK", 0.0, 0, 0).symbol_error_rate)


class TestLinkSimulator:
    @pytest.fixture(scope="class")
    def simulator(self) -> LinkSimulator:
        return LinkSimulator(config=AquaModemConfig(), rng=0)

    def test_dsss_error_free_at_high_snr(self, simulator):
        result = simulator.run_dsss(snr_db=15.0, num_symbols=40, num_frames=4)
        assert result.symbol_error_rate == 0.0
        assert result.symbols_sent >= 40

    def test_fsk_error_free_at_very_high_snr_single_path(self):
        channel = MultipathChannel(delays=np.array([0]), gains=np.array([1.0 + 0j]))
        simulator = LinkSimulator(config=AquaModemConfig(), channel=channel, rng=1)
        result = simulator.run_fsk(snr_db=25.0, num_symbols=40, num_frames=4)
        assert result.symbol_error_rate == 0.0

    def test_dsss_degrades_at_very_low_snr(self, simulator):
        result = simulator.run_dsss(snr_db=-25.0, num_symbols=40, num_frames=4)
        assert result.symbol_error_rate > 0.0

    def test_scheme_dispatch(self, simulator):
        assert simulator.run("DSSS", 10.0, 8, 2).scheme == "DSSS"
        assert simulator.run("fsk", 10.0, 8, 2).scheme == "FSK"
        with pytest.raises(ValueError):
            simulator.run("OFDM", 10.0, 8, 2)

    def test_dsss_beats_fsk_in_multipath(self):
        """The paper's Section III claim: DS-SS yields lower error rates than FSK."""
        config = AquaModemConfig()
        snr_db = 0.0
        dsss = LinkSimulator(config=config, rng=3).run_dsss(snr_db, num_symbols=60, num_frames=6)
        fsk = LinkSimulator(config=config, rng=3).run_fsk(snr_db, num_symbols=60, num_frames=6)
        assert dsss.symbol_error_rate <= fsk.symbol_error_rate

    def test_fixed_channel_mode(self):
        channel = MultipathChannel(delays=np.array([0, 11]), gains=np.array([1.0, 0.5 + 0.2j]))
        simulator = LinkSimulator(config=AquaModemConfig(), channel=channel, rng=4)
        result = simulator.run_dsss(snr_db=12.0, num_symbols=20, num_frames=2)
        assert result.symbol_error_rate == 0.0

    def test_validation(self, simulator):
        with pytest.raises(ValueError):
            simulator.run_dsss(10.0, num_symbols=0)


class TestRunCurve:
    def test_curve_structure(self):
        results = LinkSimulator(rng=0).run_curve("FSK", [-5.0, 5.0], num_symbols=24, num_frames=3)
        assert [r.snr_db for r in results] == [-5.0, 5.0]
        assert all(r.scheme == "FSK" for r in results)

    def test_fsk_error_rate_non_increasing_with_snr(self):
        results = LinkSimulator(rng=1).run_curve(
            "FSK", [-10.0, 0.0, 15.0], num_symbols=60, num_frames=6
        )
        rates = [r.symbol_error_rate for r in results]
        assert rates[0] >= rates[-1]

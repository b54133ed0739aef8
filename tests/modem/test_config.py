"""Unit tests for the AquaModem configuration (Table 1)."""

from __future__ import annotations

import pytest

from repro.modem.config import AquaModemConfig, aquamodem_signal_matrices


class TestTable1DerivedQuantities:
    @pytest.fixture(scope="class")
    def config(self) -> AquaModemConfig:
        return AquaModemConfig()

    def test_chips_per_symbol(self, config):
        assert config.chips_per_symbol == 56

    def test_sampling(self, config):
        assert config.sampling_interval_s == pytest.approx(0.1e-3)
        assert config.sampling_rate_hz == pytest.approx(10_000.0)

    def test_durations(self, config):
        assert config.symbol_duration_s == pytest.approx(11.2e-3)
        assert config.guard_duration_s == pytest.approx(11.2e-3)
        assert config.total_symbol_period_s == pytest.approx(22.4e-3)

    def test_sample_counts(self, config):
        assert config.samples_per_symbol == 112
        assert config.samples_per_guard == 112
        assert config.receive_vector_samples == 224

    def test_bits_and_rate(self, config):
        assert config.bits_per_symbol == 3
        assert config.raw_bit_rate_bps == pytest.approx(3 / 22.4e-3)

    def test_bandwidth_is_chip_rate(self, config):
        assert config.bandwidth_hz == pytest.approx(5_000.0)

    def test_multipath_spread_in_samples(self, config):
        assert config.multipath_spread_samples == 100

    def test_table1_rows_complete(self, config):
        rows = config.table1_rows()
        assert len(rows) == 9
        values = {symbol: value for _, symbol, value in rows}
        assert values["Ns"] == 112
        assert values["Rv"] == 224
        assert values["Tsym"] == pytest.approx(11.2)


class TestWaveformDesignRules:
    def test_default_design_is_valid(self):
        AquaModemConfig().validate_waveform_design()

    def test_symbol_shorter_than_multipath_rejected(self):
        config = AquaModemConfig(walsh_symbols=2, spreading_chips=3)  # Tsym = 1.2 ms
        with pytest.raises(ValueError, match="multipath"):
            config.validate_waveform_design()

    def test_sub_nyquist_sampling_rejected(self):
        config = AquaModemConfig(samples_per_chip=1)
        with pytest.raises(ValueError, match="Nyquist"):
            config.validate_waveform_design()


class TestValidation:
    def test_walsh_symbols_power_of_two(self):
        with pytest.raises(ValueError):
            AquaModemConfig(walsh_symbols=6)

    def test_positive_durations(self):
        with pytest.raises(ValueError):
            AquaModemConfig(chip_duration_s=0.0)

    def test_negative_guard_rejected(self):
        with pytest.raises(ValueError):
            AquaModemConfig(guard_factor=-0.5)

    def test_frozen(self):
        config = AquaModemConfig()
        with pytest.raises(Exception):
            config.walsh_symbols = 16  # type: ignore[misc]

    def test_alternative_configuration(self):
        config = AquaModemConfig(walsh_symbols=4, spreading_chips=15, chip_duration_s=0.1e-3)
        assert config.chips_per_symbol == 60
        assert config.samples_per_symbol == 120
        assert config.bits_per_symbol == 2


class TestAquamodemSignalMatrices:
    def test_geometry(self):
        matrices = aquamodem_signal_matrices()
        assert matrices.S.shape == (224, 112)

"""Unit tests for repro.fixedpoint.metrics."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.fixedpoint.fmt import FixedPointFormat
from repro.fixedpoint.metrics import (
    dynamic_range_scale,
    max_abs_error,
    quantization_noise_power,
    signal_to_quantization_noise_ratio,
)
from repro.fixedpoint.quantize import quantize


class TestNoiseMetrics:
    def test_zero_error_for_identical_arrays(self):
        x = np.linspace(-1, 1, 10)
        assert quantization_noise_power(x, x) == 0.0
        assert max_abs_error(x, x) == 0.0
        assert signal_to_quantization_noise_ratio(x, x) == float("inf")

    def test_known_error(self):
        original = np.array([1.0, 1.0])
        quantised = np.array([0.9, 1.1])
        assert quantization_noise_power(original, quantised) == pytest.approx(0.01)
        assert max_abs_error(original, quantised) == pytest.approx(0.1)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            quantization_noise_power(np.zeros(3), np.zeros(4))
        with pytest.raises(ValueError):
            max_abs_error(np.zeros(3), np.zeros(4))

    def test_sqnr_zero_signal_rejected(self):
        with pytest.raises(ValueError):
            signal_to_quantization_noise_ratio(np.zeros(4), np.ones(4))

    def test_sqnr_improves_with_word_length(self):
        rng = np.random.default_rng(1)
        signal = rng.uniform(-1, 1, 2000)
        sqnrs = []
        for bits in (6, 8, 10, 12):
            fmt = FixedPointFormat.for_unit_range(bits)
            sqnrs.append(signal_to_quantization_noise_ratio(signal, quantize(signal, fmt)))
        assert sqnrs == sorted(sqnrs)
        # roughly 6 dB per extra bit
        assert sqnrs[1] - sqnrs[0] == pytest.approx(12.0, abs=3.0)

    def test_complex_inputs_supported(self):
        x = np.array([1 + 1j, 0.5 - 0.5j])
        y = x + 0.01
        assert quantization_noise_power(x, y) == pytest.approx(1e-4)

    @pytest.mark.parametrize("error, sqnr_db", [(1.0, 0.0), (0.1, 20.0), (0.01, 40.0)])
    def test_sqnr_is_ten_log10_of_the_power_ratio(self, error, sqnr_db):
        """Unit signal power over an error of constant magnitude: 10 log10(1 / e^2)."""
        original = np.ones(8)
        quantised = original + error * np.resize([1.0, -1.0], 8)
        assert signal_to_quantization_noise_ratio(original, quantised) == pytest.approx(
            sqnr_db, abs=1e-9
        )

    @given(st.floats(min_value=1e-6, max_value=1e3))
    def test_sqnr_halving_the_error_gains_six_db(self, error):
        original = np.full(4, 2.0)
        coarse = signal_to_quantization_noise_ratio(original, original + error)
        fine = signal_to_quantization_noise_ratio(original, original + error / 2)
        assert fine - coarse == pytest.approx(20 * np.log10(2.0), abs=1e-9)


class TestDynamicRangeScale:
    def test_unit_data_gets_unit_scale(self):
        assert dynamic_range_scale(np.array([0.5, -0.9])) == pytest.approx(1.0)

    def test_large_data_scaled_by_power_of_two(self):
        scale = dynamic_range_scale(np.array([100.0]))
        assert scale == 128.0

    def test_small_data_gets_fractional_scale(self):
        scale = dynamic_range_scale(np.array([0.1]))
        assert scale == pytest.approx(0.125)

    def test_zero_data(self):
        assert dynamic_range_scale(np.zeros(3)) == 1.0

    def test_complex_data_uses_max_component(self):
        assert dynamic_range_scale(np.array([1.0 + 200.0j])) == 256.0

    @given(st.floats(min_value=1e-6, max_value=1e6))
    def test_scale_is_power_of_two_and_covers_property(self, peak):
        scale = dynamic_range_scale(np.array([peak]))
        exponent = np.log2(scale)
        assert exponent == pytest.approx(round(exponent))
        assert peak / scale <= 1.0 + 1e-12
        # scaling is tight: one factor of two less would not cover the peak
        assert peak / (scale / 2.0) > 1.0 - 1e-12

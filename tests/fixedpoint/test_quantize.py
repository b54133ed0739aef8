"""Unit tests for repro.fixedpoint.quantize."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from repro.fixedpoint.fmt import FixedPointFormat
from repro.fixedpoint.quantize import (
    OverflowMode,
    RoundingMode,
    quantize,
    raw_values,
)

FMT8 = FixedPointFormat(8, 7)


class TestRawValues:
    def test_simple_values(self):
        raw = raw_values(np.array([0.0, 0.5, -0.5]), FMT8)
        np.testing.assert_array_equal(raw, [0, 64, -64])

    def test_saturation(self):
        raw = raw_values(np.array([2.0, -2.0]), FMT8)
        np.testing.assert_array_equal(raw, [127, -128])

    def test_wrap_mode(self):
        fmt = FixedPointFormat(4, 0)
        raw = raw_values(np.array([8.0]), fmt, overflow=OverflowMode.WRAP)
        assert raw[0] == -8  # 8 wraps to -8 in 4-bit two's complement

    def test_truncate_vs_nearest(self):
        fmt = FixedPointFormat(8, 0)
        assert raw_values(1.7, fmt, rounding=RoundingMode.NEAREST)[()] == 2
        assert raw_values(1.7, fmt, rounding=RoundingMode.TRUNCATE)[()] == 1
        assert raw_values(-1.2, fmt, rounding=RoundingMode.TRUNCATE)[()] == -2

    def test_rejects_complex(self):
        with pytest.raises(TypeError):
            raw_values(np.array([1 + 1j]), FMT8)


class TestQuantize:
    def test_idempotent(self):
        values = np.linspace(-1, 1, 37)
        once = quantize(values, FMT8)
        twice = quantize(once, FMT8)
        np.testing.assert_allclose(once, twice)

    def test_error_bounded_by_half_lsb(self):
        rng = np.random.default_rng(0)
        values = rng.uniform(-0.9, 0.9, size=1000)
        quantised = quantize(values, FMT8)
        assert np.max(np.abs(values - quantised)) <= FMT8.resolution / 2 + 1e-12

    def test_complex_quantised_componentwise(self):
        value = np.array([0.3 + 0.7j])
        q = quantize(value, FMT8)
        assert q.real[0] == pytest.approx(quantize(0.3, FMT8))
        assert q.imag[0] == pytest.approx(quantize(0.7, FMT8))

    def test_exactly_representable_values_unchanged(self):
        grid = np.arange(-128, 128) * FMT8.resolution
        np.testing.assert_allclose(quantize(grid, FMT8), grid)

    def test_preserves_shape(self):
        values = np.zeros((3, 5))
        assert quantize(values, FMT8).shape == (3, 5)

    @given(
        hnp.arrays(
            dtype=np.float64,
            shape=st.integers(min_value=1, max_value=50),
            elements=st.floats(min_value=-10, max_value=10),
        )
    )
    def test_result_always_in_range_property(self, values):
        q = quantize(values, FMT8)
        assert np.all(q <= FMT8.max_value + 1e-12)
        assert np.all(q >= FMT8.min_value - 1e-12)

    @given(
        hnp.arrays(
            dtype=np.float64,
            shape=st.integers(min_value=1, max_value=50),
            elements=st.floats(min_value=-0.99, max_value=0.99),
        )
    )
    def test_in_range_error_bounded_property(self, values):
        q = quantize(values, FMT8)
        assert np.max(np.abs(values - q)) <= FMT8.resolution / 2 + 1e-12

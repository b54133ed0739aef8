"""Unit tests for repro.fixedpoint.fmt."""

from __future__ import annotations

import pytest

from repro.fixedpoint.fmt import FixedPointFormat


class TestBasicProperties:
    def test_q8_6_ranges(self):
        fmt = FixedPointFormat(8, 6)
        assert fmt.resolution == pytest.approx(1 / 64)
        assert fmt.raw_min == -128
        assert fmt.raw_max == 127
        assert fmt.min_value == pytest.approx(-2.0)
        assert fmt.max_value == pytest.approx(127 / 64)
        assert fmt.num_levels == 256

    def test_unsigned_format(self):
        fmt = FixedPointFormat(8, 8, signed=False)
        assert fmt.raw_min == 0
        assert fmt.raw_max == 255
        assert fmt.min_value == 0.0
        assert fmt.max_value == pytest.approx(255 / 256)

    def test_integer_length(self):
        assert FixedPointFormat(16, 8).integer_length == 7
        assert FixedPointFormat(8, 8, signed=False).integer_length == 0

    def test_contains(self):
        fmt = FixedPointFormat(8, 7)
        assert fmt.contains(0.5)
        assert not fmt.contains(1.5)
        assert fmt.contains(-1.0)

    def test_str_representation(self):
        assert str(FixedPointFormat(8, 6)) == "Fix8_6"
        assert str(FixedPointFormat(8, 6, signed=False)) == "UFix8_6"

    def test_invalid_word_length(self):
        with pytest.raises(ValueError):
            FixedPointFormat(0, 0)
        with pytest.raises(ValueError):
            FixedPointFormat(65, 0)


class TestConstructors:
    def test_for_unit_range_signed(self):
        fmt = FixedPointFormat.for_unit_range(8)
        assert fmt.fraction_length == 7
        assert fmt.min_value == pytest.approx(-1.0)
        assert fmt.max_value < 1.0

    def test_for_unit_range_unsigned(self):
        fmt = FixedPointFormat.for_unit_range(8, signed=False)
        assert fmt.fraction_length == 8
        assert fmt.max_value < 1.0

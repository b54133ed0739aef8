"""Unit tests for repro.utils.validation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.utils.validation import (
    check_in_range,
    check_integer,
    check_non_negative,
    check_one_of,
    check_positive,
    check_power_of_two,
    check_probability,
    ensure_1d_array,
    ensure_2d_array,
)


class TestCheckPositive:
    def test_accepts_positive_int_and_float(self):
        assert check_positive("x", 3) == 3.0
        assert check_positive("x", 0.5) == 0.5

    def test_accepts_numpy_scalars(self):
        assert check_positive("x", np.float64(2.5)) == 2.5
        assert check_positive("x", np.int32(4)) == 4.0

    def test_rejects_zero_and_negative(self):
        with pytest.raises(ValueError, match="x must be > 0"):
            check_positive("x", 0)
        with pytest.raises(ValueError, match="x must be > 0"):
            check_positive("x", -1.5)

    def test_rejects_non_numbers_and_bools(self):
        with pytest.raises(TypeError):
            check_positive("x", "3")
        with pytest.raises(TypeError):
            check_positive("x", True)
        with pytest.raises(TypeError, match="x must be a real number"):
            check_positive("x", np.bool_(True))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            check_positive("x", float("inf"))
        with pytest.raises(ValueError, match="finite"):
            check_positive("x", float("nan"))


class TestCheckNonNegative:
    def test_accepts_zero(self):
        assert check_non_negative("x", 0) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match=">= 0"):
            check_non_negative("x", -0.001)


class TestCheckProbability:
    @pytest.mark.parametrize("value", [0.0, 0.5, 1.0])
    def test_accepts_unit_interval(self, value):
        assert check_probability("p", value) == value

    @pytest.mark.parametrize("value", [-0.1, 1.1, 2])
    def test_rejects_outside(self, value):
        with pytest.raises(ValueError):
            check_probability("p", value)


class TestCheckInRange:
    def test_inclusive_bounds(self):
        assert check_in_range("x", 5, 5, 10) == 5.0
        assert check_in_range("x", 10, 5, 10) == 10.0

    def test_exclusive_bounds(self):
        with pytest.raises(ValueError):
            check_in_range("x", 5, 5, 10, inclusive=False)

    def test_only_lower_bound(self):
        assert check_in_range("x", 100, lower=0) == 100.0
        with pytest.raises(ValueError):
            check_in_range("x", -1, lower=0)

    def test_only_upper_bound(self):
        assert check_in_range("x", -5, upper=0) == -5.0
        with pytest.raises(ValueError):
            check_in_range("x", 1, upper=0)


class TestLargeIntegers:
    """Ints beyond float range get a ValueError that names the parameter."""

    @pytest.mark.parametrize("check", [
        check_positive, check_non_negative, check_probability, check_in_range,
    ])
    @pytest.mark.parametrize("value", [10**400, -(2**1100)], ids=["10**400", "-2**1100"])
    def test_huge_int_is_a_named_value_error(self, check, value):
        with pytest.raises(ValueError, match=r"^huge must fit in a float, got a \d+-bit integer"):
            check("huge", value)

    def test_large_int_within_float_range_still_checks_sign(self):
        assert check_positive("x", 2**70) == float(2**70)
        with pytest.raises(ValueError, match="x must be > 0"):
            check_positive("x", -(2**70))
        with pytest.raises(ValueError, match="x must be >= 0"):
            check_non_negative("x", -(2**70))


class TestCheckInteger:
    def test_accepts_python_and_numpy_ints(self):
        assert check_integer("n", 7) == 7
        assert check_integer("n", np.int64(7)) == 7

    def test_rejects_floats_and_bools(self):
        with pytest.raises(TypeError):
            check_integer("n", 7.0)
        with pytest.raises(TypeError):
            check_integer("n", True)
        with pytest.raises(TypeError, match="n must be an integer, got bool"):
            check_integer("n", np.bool_(True))

    def test_bounds(self):
        assert check_integer("n", 5, minimum=5, maximum=5) == 5
        with pytest.raises(ValueError):
            check_integer("n", 4, minimum=5)
        with pytest.raises(ValueError):
            check_integer("n", 6, maximum=5)


class TestCheckPowerOfTwo:
    @pytest.mark.parametrize("value", [1, 2, 4, 8, 128])
    def test_accepts_powers(self, value):
        assert check_power_of_two("n", value) == value

    @pytest.mark.parametrize("value", [0, 3, 6, 12, 100])
    def test_rejects_non_powers(self, value):
        with pytest.raises(ValueError):
            check_power_of_two("n", value)


class TestCheckOneOf:
    def test_accepts_member(self):
        assert check_one_of("mode", "a", ("a", "b")) == "a"

    def test_rejects_non_member(self):
        with pytest.raises(ValueError, match="must be one of"):
            check_one_of("mode", "c", ("a", "b"))


class TestEnsureArrays:
    def test_1d_from_list(self):
        arr = ensure_1d_array("x", [1, 2, 3], dtype=np.float64)
        assert arr.dtype == np.float64
        assert arr.flags["C_CONTIGUOUS"]

    def test_1d_length_check(self):
        with pytest.raises(ValueError, match="length 4"):
            ensure_1d_array("x", [1, 2, 3], length=4)

    def test_1d_rejects_2d(self):
        with pytest.raises(ValueError, match="1-D"):
            ensure_1d_array("x", [[1, 2], [3, 4]])

    def test_2d_shape_check(self):
        arr = ensure_2d_array("m", [[1, 2], [3, 4]], shape=(2, 2))
        assert arr.shape == (2, 2)
        with pytest.raises(ValueError, match="rows"):
            ensure_2d_array("m", [[1, 2], [3, 4]], shape=(3, None))
        with pytest.raises(ValueError, match="columns"):
            ensure_2d_array("m", [[1, 2], [3, 4]], shape=(None, 3))

    def test_2d_rejects_1d(self):
        with pytest.raises(ValueError, match="2-D"):
            ensure_2d_array("m", [1, 2, 3])

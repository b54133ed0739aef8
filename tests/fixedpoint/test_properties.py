"""Property-based tests of the fixed-point substrate (hypothesis).

Four families of invariants:

* **round-trip bounds** — quantisation error never exceeds the grid step
  implied by the rounding mode, and quantisation is idempotent;
* **monotonicity** — widening the word length never increases the
  quantisation error of any single value (the grids are nested);
* **range safety** — saturation and wrap-around both keep raw codes inside
  the format's representable range for arbitrary finite inputs;
* **batch == loop-of-scalar** — every batched primitive
  (``quantize_batch``, ``raw_values_batch``, ``dynamic_range_scale_batch``)
  is bit-identical to a Python loop of its scalar counterpart over random
  shapes, dtypes and per-row scales.

The CI quality job runs these under the pinned, derandomised ``ci``
hypothesis profile (see ``tests/conftest.py``), so the gate is reproducible
run to run.
"""

from __future__ import annotations

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from repro.fixedpoint.fmt import FixedPointFormat  # noqa: E402
from repro.fixedpoint.metrics import (  # noqa: E402
    dynamic_range_scale,
    dynamic_range_scale_batch,
)
from repro.fixedpoint.quantize import (  # noqa: E402
    OverflowMode,
    RoundingMode,
    quantize,
    quantize_batch,
    raw_values,
    raw_values_batch,
)

ROUNDINGS = st.sampled_from(list(RoundingMode))
OVERFLOWS = st.sampled_from(list(OverflowMode))

#: Formats whose grids the value strategies target comfortably.
formats = st.builds(
    FixedPointFormat,
    word_length=st.integers(2, 20),
    fraction_length=st.integers(-2, 24),
    signed=st.just(True),
)


def finite_floats(bound: float) -> st.SearchStrategy[float]:
    return st.floats(-bound, bound, allow_nan=False, allow_infinity=False)


def float_rows(min_rows: int = 1) -> st.SearchStrategy[np.ndarray]:
    return hnp.arrays(
        dtype=st.sampled_from((np.float32, np.float64)),
        shape=hnp.array_shapes(min_dims=2, max_dims=3, min_side=min_rows, max_side=6),
        elements=st.floats(-8, 8, allow_nan=False, allow_infinity=False, width=32),
    )


power_of_two_scales = st.integers(-6, 6).map(lambda e: 2.0 ** e)


class TestRoundTripBounds:
    @given(fmt=formats, value=finite_floats(4.0), rounding=ROUNDINGS)
    def test_error_bounded_by_grid_step(self, fmt, value, rounding):
        value = float(np.clip(value, fmt.min_value, fmt.max_value))
        quantised = float(quantize(value, fmt, rounding))
        step = fmt.resolution
        if rounding is RoundingMode.NEAREST:
            assert abs(quantised - value) <= step / 2
        else:
            assert -step < quantised - value <= 0 or abs(quantised - value) <= step

    @given(fmt=formats, value=finite_floats(64.0), rounding=ROUNDINGS, overflow=OVERFLOWS)
    def test_quantisation_is_idempotent(self, fmt, value, rounding, overflow):
        once = quantize(value, fmt, rounding, overflow)
        twice = quantize(once, fmt, rounding, overflow)
        assert np.array_equal(once, twice)


class TestMonotonicity:
    @given(
        value=finite_floats(0.9),
        word_length=st.integers(2, 22),
        rounding=ROUNDINGS,
    )
    def test_error_never_grows_with_word_length(self, value, word_length, rounding):
        """Grids of successive word lengths are nested, so error is monotone."""
        # one integer bit covers [-1, 1] at every word length
        narrow = quantize(value, FixedPointFormat(word_length, word_length - 2), rounding)
        wide = quantize(value, FixedPointFormat(word_length + 1, word_length - 1), rounding)
        assert abs(float(wide) - value) <= abs(float(narrow) - value)


class TestRangeSafety:
    @given(fmt=formats, value=finite_floats(1e9), rounding=ROUNDINGS)
    def test_saturation_never_exceeds_format_range(self, fmt, value, rounding):
        raw = raw_values(value, fmt, rounding, OverflowMode.SATURATE)
        assert fmt.raw_min <= int(raw) <= fmt.raw_max
        quantised = float(quantize(value, fmt, rounding, OverflowMode.SATURATE))
        assert fmt.min_value <= quantised <= fmt.max_value

    @given(fmt=formats, value=finite_floats(1e9), rounding=ROUNDINGS)
    def test_wraparound_stays_in_range(self, fmt, value, rounding):
        raw = raw_values(value, fmt, rounding, OverflowMode.WRAP)
        assert fmt.raw_min <= int(raw) <= fmt.raw_max


class TestBatchEqualsLoopOfScalar:
    @given(
        values=float_rows(),
        fmt=formats,
        rounding=ROUNDINGS,
        overflow=OVERFLOWS,
        data=st.data(),
    )
    def test_quantize_batch(self, values, fmt, rounding, overflow, data):
        scales = np.asarray(
            data.draw(
                st.lists(power_of_two_scales, min_size=values.shape[0],
                         max_size=values.shape[0])
            )
        )
        batched = quantize_batch(values, fmt, rounding, overflow, scales=scales)
        looped = np.stack([
            quantize(values[t] / scales[t], fmt, rounding, overflow) * scales[t]
            for t in range(values.shape[0])
        ])
        assert np.array_equal(batched, looped)

    @given(values=float_rows(), fmt=formats, rounding=ROUNDINGS, overflow=OVERFLOWS)
    def test_raw_values_batch(self, values, fmt, rounding, overflow):
        batched = raw_values_batch(values, fmt, rounding, overflow)
        looped = np.stack([
            raw_values(values[t], fmt, rounding, overflow)
            for t in range(values.shape[0])
        ])
        assert np.array_equal(batched, looped)

    @given(
        values=hnp.arrays(
            dtype=st.sampled_from((np.float32, np.float64)),
            shape=hnp.array_shapes(min_dims=2, max_dims=3, min_side=1, max_side=6),
            # range wide enough to cross power-of-two peaks in float32, where
            # a narrow-precision log2 once halved the scale vs the scalar path
            elements=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False,
                               width=32),
        ),
        imag=st.booleans(),
    )
    def test_dynamic_range_scale_batch(self, values, imag):
        data = values + 1j * values[::-1] if imag else values
        batched = dynamic_range_scale_batch(data)
        looped = np.array([dynamic_range_scale(data[t]) for t in range(data.shape[0])])
        assert np.array_equal(batched, looped)

    def test_dynamic_range_scale_batch_float32_near_power_of_two(self):
        """Regression: float32 peaks just above 2**k must scale to 2**(k+1)."""
        row = np.array([[np.float32(16.000002)]], dtype=np.float32)
        assert dynamic_range_scale_batch(row)[0] == dynamic_range_scale(row[0]) == 32.0

    @pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
    def test_dynamic_range_scale_rejects_non_finite_in_both_paths(self, bad):
        """Regression: the scalar path rejects NaN/inf; the batch must too,
        not silently treat the row as all-zero (scale 1.0) or emit inf."""
        row = np.array([1.0, bad, 2.0])
        with pytest.raises(ValueError, match="finite"):
            dynamic_range_scale(row)
        with pytest.raises(ValueError, match="finite"):
            dynamic_range_scale_batch(np.stack([row, np.ones(3)]))

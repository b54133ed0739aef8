"""Vectorised quantisation of floating-point arrays to fixed-point grids.

The quantiser supports the rounding and overflow behaviours offered by the
Xilinx System Generator blocks used in the paper's IP core: round-to-nearest
vs. truncation, and saturation vs. two's-complement wrap-around.  Complex
inputs are quantised component-wise (the IP core duplicates the datapath for
real and imaginary parts, Section IV.A).
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from repro.fixedpoint.fmt import FixedPointFormat

__all__ = [
    "RoundingMode",
    "OverflowMode",
    "quantize",
    "raw_values",
    "quantize_batch",
    "raw_values_batch",
]


class RoundingMode(str, Enum):
    """How the infinite-precision value is mapped onto the fixed-point grid."""

    NEAREST = "nearest"
    TRUNCATE = "truncate"


class OverflowMode(str, Enum):
    """What happens when a value exceeds the representable range."""

    SATURATE = "saturate"
    WRAP = "wrap"


def _round_raw(scaled: np.ndarray, rounding: RoundingMode) -> np.ndarray:
    if rounding is RoundingMode.NEAREST:
        return np.round(scaled)
    return np.floor(scaled)


def _apply_overflow(
    raw: np.ndarray, fmt: FixedPointFormat, overflow: OverflowMode
) -> np.ndarray:
    if overflow is OverflowMode.SATURATE:
        return np.clip(raw, fmt.raw_min, fmt.raw_max)
    # two's-complement wrap
    span = fmt.num_levels
    wrapped = np.mod(raw - fmt.raw_min, span) + fmt.raw_min
    return wrapped


def raw_values(
    values: np.ndarray | float,
    fmt: FixedPointFormat,
    rounding: RoundingMode = RoundingMode.NEAREST,
    overflow: OverflowMode = OverflowMode.SATURATE,
) -> np.ndarray:
    """Return the integer raw codes of ``values`` quantised to ``fmt``.

    Real inputs only; complex inputs must be split by the caller.
    """
    arr = np.asarray(values)
    if np.iscomplexobj(arr):
        raise TypeError("raw_values operates on real arrays; split complex inputs first")
    arr = arr.astype(np.float64, copy=False)
    scaled = arr / fmt.resolution
    raw = _round_raw(scaled, rounding)
    raw = _apply_overflow(raw, fmt, overflow)
    return raw.astype(np.int64)


def quantize(
    values: np.ndarray | float | complex,
    fmt: FixedPointFormat,
    rounding: RoundingMode = RoundingMode.NEAREST,
    overflow: OverflowMode = OverflowMode.SATURATE,
) -> np.ndarray:
    """Quantise ``values`` to the grid of ``fmt`` and return them as floats.

    The returned array has the same shape as the input; complex inputs are
    quantised component-wise.  The result is exactly representable in ``fmt``
    (i.e. ``quantize(quantize(x)) == quantize(x)``).
    """
    arr = np.asarray(values)
    if np.iscomplexobj(arr):
        real = quantize(arr.real, fmt, rounding, overflow)
        imag = quantize(arr.imag, fmt, rounding, overflow)
        return real + 1j * imag
    raw = raw_values(arr, fmt, rounding, overflow)
    return raw.astype(np.float64) * fmt.resolution


# --------------------------------------------------------------------------- #
# Batched variants — a leading batch axis with per-row scaling.
#
# Every batched function is pinned by the property suite to be *bit-identical*
# to a Python loop of its scalar counterpart: the same element-wise
# divide / round / clip expressions run on the whole batch at once, so the
# vectorised fixed-point engine and the scalar executable specification
# produce the same raw integer codes.
# --------------------------------------------------------------------------- #
def _broadcast_scales(scales: np.ndarray | None, arr: np.ndarray) -> np.ndarray | None:
    """Reshape per-row ``scales`` of a leading batch axis for broadcasting."""
    if scales is None:
        return None
    scales = np.asarray(scales, dtype=np.float64)
    if scales.shape != (arr.shape[0],):
        raise ValueError(
            f"scales must have shape ({arr.shape[0]},) to match the batch axis, "
            f"got {scales.shape}"
        )
    return scales.reshape((arr.shape[0],) + (1,) * (arr.ndim - 1))


def raw_values_batch(
    values: np.ndarray,
    fmt: FixedPointFormat,
    rounding: RoundingMode = RoundingMode.NEAREST,
    overflow: OverflowMode = OverflowMode.SATURATE,
    *,
    scales: np.ndarray | None = None,
) -> np.ndarray:
    """Raw codes of a batch of real rows, each divided by its own ``scales[t]``.

    Equivalent to ``np.stack([raw_values(values[t] / scales[t], fmt, ...)])``
    but in one vectorised pass.  ``scales`` defaults to all ones.
    """
    arr = np.asarray(values)
    if arr.ndim < 1:
        raise ValueError("raw_values_batch needs at least a batch axis")
    if np.iscomplexobj(arr):
        raise TypeError("raw_values_batch operates on real arrays; split complex inputs first")
    arr = arr.astype(np.float64, copy=False)
    broadcast = _broadcast_scales(scales, arr)
    if broadcast is not None:
        arr = arr / broadcast
    scaled = arr / fmt.resolution
    raw = _round_raw(scaled, rounding)
    raw = _apply_overflow(raw, fmt, overflow)
    return raw.astype(np.int64)


def quantize_batch(
    values: np.ndarray,
    fmt: FixedPointFormat,
    rounding: RoundingMode = RoundingMode.NEAREST,
    overflow: OverflowMode = OverflowMode.SATURATE,
    *,
    scales: np.ndarray | None = None,
) -> np.ndarray:
    """Quantise a batch of rows on one grid, with per-row power-of-two scaling.

    Row ``t`` equals ``quantize(values[t] / scales[t], fmt, ...) * scales[t]``
    bit for bit — the dynamic-range-scaled quantisation step of the
    fixed-point datapath, vectorised over the whole batch.  Complex inputs
    are quantised component-wise, like :func:`quantize`.
    """
    arr = np.asarray(values)
    if arr.ndim < 1:
        raise ValueError("quantize_batch needs at least a batch axis")
    if np.iscomplexobj(arr):
        real = quantize_batch(arr.real, fmt, rounding, overflow, scales=scales)
        imag = quantize_batch(arr.imag, fmt, rounding, overflow, scales=scales)
        return real + 1j * imag
    broadcast = _broadcast_scales(scales, arr)
    scaled_in = arr if broadcast is None else arr / broadcast
    raw = raw_values_batch(scaled_in, fmt, rounding, overflow)
    quantised = raw.astype(np.float64) * fmt.resolution
    if broadcast is not None:
        quantised = quantised * broadcast
    return quantised


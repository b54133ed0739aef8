"""Quantisation-error metrics used by the bit-width ablation (experiment E6).

The paper (Section IV.C) cites Meng et al. [21] for the claim that 8-10 bits
with optimal dynamic-range scaling are sufficient for accurate channel
estimation.  These helpers quantify that claim on our own implementation:
signal-to-quantisation-noise ratio of the quantised signal matrices, and the
channel-estimation error as a function of word length.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "quantization_noise_power",
    "signal_to_quantization_noise_ratio",
    "max_abs_error",
    "dynamic_range_scale",
    "dynamic_range_scale_batch",
]


def quantization_noise_power(original: np.ndarray, quantized: np.ndarray) -> float:
    """Mean squared error between the original and quantised arrays."""
    original = np.asarray(original)
    quantized = np.asarray(quantized)
    if original.shape != quantized.shape:
        raise ValueError(
            f"shape mismatch: {original.shape} vs {quantized.shape}"
        )
    err = original - quantized
    return float(np.mean(np.abs(err) ** 2))


def signal_to_quantization_noise_ratio(
    original: np.ndarray, quantized: np.ndarray
) -> float:
    """SQNR in dB.  Returns ``inf`` for an exact representation."""
    original = np.asarray(original)
    signal_power = float(np.mean(np.abs(original) ** 2))
    noise_power = quantization_noise_power(original, quantized)
    if signal_power == 0.0:
        raise ValueError("signal power is zero; SQNR undefined")
    if noise_power == 0.0:
        return float("inf")
    ratio = signal_power / noise_power
    if ratio <= 0:
        raise ValueError(f"power ratio must be > 0, got {ratio!r}")
    return 10.0 * math.log10(ratio)


def max_abs_error(original: np.ndarray, quantized: np.ndarray) -> float:
    """Largest absolute element-wise quantisation error."""
    original = np.asarray(original)
    quantized = np.asarray(quantized)
    if original.shape != quantized.shape:
        raise ValueError(f"shape mismatch: {original.shape} vs {quantized.shape}")
    return float(np.max(np.abs(original - quantized)))


def dynamic_range_scale(values: np.ndarray) -> float:
    """Return the power-of-two scale that maps ``values`` into [-1, 1).

    Scaling by a power of two is free in hardware (a binary-point move), so the
    IP core normalises each stored matrix by the smallest power of two that
    covers its dynamic range before quantisation.  Returns 1.0 for an all-zero
    input; non-finite inputs are rejected with ``ValueError``.
    """
    values = np.asarray(values)
    if np.iscomplexobj(values):
        peak = float(max(np.max(np.abs(values.real)), np.max(np.abs(values.imag))))
    else:
        peak = float(np.max(np.abs(values)))
    if peak == 0.0:
        return 1.0
    if not np.isfinite(peak):
        raise ValueError("dynamic_range_scale requires finite values")
    exponent = int(np.ceil(np.log2(peak)))
    return float(2.0 ** exponent)


def dynamic_range_scale_batch(values: np.ndarray) -> np.ndarray:
    """Per-row power-of-two scales over a leading batch axis.

    Row ``t`` of the result equals ``dynamic_range_scale(values[t])`` exactly
    (the same ``max`` / ``log2`` / ``2**ceil`` expressions evaluated
    element-wise), so the vectorised bitwidth engine and the scalar datapath
    derive bit-identical scales.  All-zero rows get a scale of 1.0 without
    evaluating ``log2(0)``; non-finite rows are rejected with ``ValueError``,
    matching the scalar path.
    """
    values = np.asarray(values)
    if values.ndim < 1:
        raise ValueError("dynamic_range_scale_batch needs at least a batch axis")
    if values.size == 0:
        return np.ones(values.shape[0], dtype=np.float64)
    flat = values.reshape(values.shape[0], -1)
    if np.iscomplexobj(flat):
        peaks = np.maximum(
            np.max(np.abs(flat.real), axis=1), np.max(np.abs(flat.imag), axis=1)
        )
    else:
        peaks = np.max(np.abs(flat), axis=1)
    # the scalar path takes the peak through a Python float before log2;
    # promote here too, or float32 peaks near powers of two would round the
    # exponent down and halve the scale relative to the scalar path
    peaks = peaks.astype(np.float64, copy=False)
    if not np.isfinite(peaks).all():
        raise ValueError("dynamic_range_scale_batch requires finite values")
    scales = np.ones(flat.shape[0], dtype=np.float64)
    nonzero = peaks > 0.0
    exponents = np.ceil(np.log2(peaks[nonzero]))
    scales[nonzero] = 2.0 ** exponents
    return scales

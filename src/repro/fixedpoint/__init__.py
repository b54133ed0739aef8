"""Fixed-point arithmetic substrate.

The paper's FPGA IP core uses fixed-point datapaths of 8, 12 and 16 bits
(Section IV.C).  This subpackage provides the machinery to model those
datapaths in software:

* :class:`~repro.fixedpoint.fmt.FixedPointFormat` — a Q-format descriptor
  (word length, fraction length, signedness) with range/resolution queries.
* :func:`~repro.fixedpoint.quantize.quantize` — vectorised quantisation with
  selectable rounding and overflow behaviour, plus batched variants with
  per-row power-of-two scaling that the fixed-point and IP-core engines use.
* :mod:`~repro.fixedpoint.metrics` — quantisation-error metrics (SQNR, max
  error) used by the bit-width ablation (experiment E6).
"""

from repro._lazy import lazy_exports

__all__ = [
    "FixedPointFormat",
    "quantize",
    "quantize_batch",
    "raw_values",
    "raw_values_batch",
    "OverflowMode",
    "RoundingMode",
    "quantization_noise_power",
    "signal_to_quantization_noise_ratio",
    "max_abs_error",
    "dynamic_range_scale",
    "dynamic_range_scale_batch",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "fmt": ("FixedPointFormat",),
    "quantize": (
        "quantize", "quantize_batch", "raw_values", "raw_values_batch",
        "OverflowMode", "RoundingMode",
    ),
    "metrics": (
        "quantization_noise_power", "signal_to_quantization_noise_ratio", "max_abs_error",
        "dynamic_range_scale", "dynamic_range_scale_batch",
    ),
})

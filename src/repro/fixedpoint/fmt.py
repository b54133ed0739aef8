"""Fixed-point format descriptors (Q-format).

A fixed-point number with word length ``w``, fraction length ``f`` and a sign
bit represents the value ``raw * 2**-f`` where ``raw`` is a ``w``-bit signed
(two's-complement) or unsigned integer.  This mirrors the Xilinx System
Generator ``Fix``/``UFix`` types used by the paper's IP core.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.validation import check_integer

__all__ = ["FixedPointFormat"]


@dataclass(frozen=True)
class FixedPointFormat:
    """A fixed-point number format.

    Parameters
    ----------
    word_length:
        Total number of bits, including the sign bit when ``signed``.
    fraction_length:
        Number of fractional bits.  May exceed ``word_length`` (pure
        fractions) or be negative (coarse integers), as in System Generator.
    signed:
        Whether the raw integer is two's complement.

    Examples
    --------
    >>> fmt = FixedPointFormat(8, 6)
    >>> fmt.resolution
    0.015625
    >>> fmt.max_value
    1.984375
    >>> fmt.min_value
    -2.0
    """

    word_length: int
    fraction_length: int
    signed: bool = True

    def __post_init__(self) -> None:
        check_integer("word_length", self.word_length, minimum=1, maximum=64)
        check_integer("fraction_length", self.fraction_length, minimum=-64, maximum=128)

    # ------------------------------------------------------------------ #
    # Derived properties
    # ------------------------------------------------------------------ #
    @property
    def integer_length(self) -> int:
        """Number of integer (non-fraction, non-sign) bits."""
        return self.word_length - self.fraction_length - (1 if self.signed else 0)

    @property
    def resolution(self) -> float:
        """The value of one least-significant bit."""
        return 2.0 ** (-self.fraction_length)

    @property
    def raw_min(self) -> int:
        """Smallest representable raw integer."""
        if self.signed:
            return -(1 << (self.word_length - 1))
        return 0

    @property
    def raw_max(self) -> int:
        """Largest representable raw integer."""
        if self.signed:
            return (1 << (self.word_length - 1)) - 1
        return (1 << self.word_length) - 1

    @property
    def min_value(self) -> float:
        """Smallest representable real value."""
        return self.raw_min * self.resolution

    @property
    def max_value(self) -> float:
        """Largest representable real value."""
        return self.raw_max * self.resolution

    @property
    def num_levels(self) -> int:
        """Number of distinct representable values."""
        return 1 << self.word_length

    def contains(self, value: float) -> bool:
        """Return True if ``value`` lies inside the representable range."""
        return self.min_value <= value <= self.max_value

    # ------------------------------------------------------------------ #
    # Constructor
    # ------------------------------------------------------------------ #
    @classmethod
    def for_unit_range(cls, word_length: int, signed: bool = True) -> "FixedPointFormat":
        """Format covering approximately [-1, 1) (or [0, 1) unsigned).

        This is the natural format for normalised chip sequences (±1 values are
        scaled by the dynamic-range scaler before quantisation, see
        :func:`repro.fixedpoint.metrics.dynamic_range_scale`).
        """
        frac = word_length - 1 if signed else word_length
        return cls(word_length, frac, signed)

    def __str__(self) -> str:
        kind = "Fix" if self.signed else "UFix"
        return f"{kind}{self.word_length}_{self.fraction_length}"

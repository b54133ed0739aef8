"""Argument validation helpers.

All public entry points of :mod:`repro` validate their inputs eagerly so that
configuration errors surface at construction time with a clear message rather
than as NaNs deep inside a simulation.  The helpers below raise ``ValueError``
(or ``TypeError`` for outright wrong types) with messages that always include
the offending parameter name and value.
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING, Any, Iterable, Sequence

# numpy is imported only where arrays are built: the scalar checks below run
# on every control path (spec resolution, cache hits), which must not pay
# for loading it.
if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "check_positive",
    "check_non_negative",
    "check_probability",
    "check_in_range",
    "check_integer",
    "check_power_of_two",
    "check_one_of",
    "ensure_1d_array",
    "ensure_2d_array",
]


def _numpy_types(*names: str) -> tuple[type, ...]:
    """The named numpy scalar types, or none if numpy is not loaded.

    A numpy scalar cannot exist before numpy is imported, so checking only a
    loaded numpy accepts exactly the values an eager import would.
    """
    numpy = sys.modules.get("numpy")
    return tuple(getattr(numpy, name) for name in names) if numpy is not None else ()


def _is_real_number(value: Any) -> bool:
    """Return True for Python/NumPy real scalars (bools excluded)."""
    if type(value) in (float, int):  # the hot case, settled before any numpy lookup
        return True
    if isinstance(value, bool):
        return False
    return isinstance(value, (int, float, *_numpy_types("integer", "floating")))


def _real(name: str, value: Any) -> float:
    """``value`` as a float, or a ``TypeError``/``ValueError`` naming ``name``."""
    if not _is_real_number(value):
        raise TypeError(f"{name} must be a real number, got {type(value).__name__}")
    try:
        return float(value)
    except OverflowError:
        # only a Python int can outgrow a float; its repr may be too long to print
        raise ValueError(
            f"{name} must fit in a float, got a {value.bit_length()}-bit integer"
        ) from None


def check_positive(name: str, value: Any) -> float:
    """Validate that ``value`` is a real number strictly greater than zero."""
    v = _real(name, value)
    if not math.isfinite(v):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if v <= 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return v


def check_non_negative(name: str, value: Any) -> float:
    """Validate that ``value`` is a real number greater than or equal to zero."""
    v = _real(name, value)
    if not math.isfinite(v):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if v < 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return v


def check_probability(name: str, value: Any) -> float:
    """Validate that ``value`` lies in the closed interval [0, 1]."""
    v = _real(name, value)
    if not (0.0 <= v <= 1.0):
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")
    return v


def check_in_range(
    name: str,
    value: Any,
    lower: float | None = None,
    upper: float | None = None,
    *,
    inclusive: bool = True,
) -> float:
    """Validate that ``value`` lies within ``[lower, upper]`` (or open interval)."""
    v = _real(name, value)
    if inclusive:
        if lower is not None and v < lower:
            raise ValueError(f"{name} must be >= {lower}, got {value!r}")
        if upper is not None and v > upper:
            raise ValueError(f"{name} must be <= {upper}, got {value!r}")
    else:
        if lower is not None and v <= lower:
            raise ValueError(f"{name} must be > {lower}, got {value!r}")
        if upper is not None and v >= upper:
            raise ValueError(f"{name} must be < {upper}, got {value!r}")
    return v


def check_integer(
    name: str,
    value: Any,
    minimum: int | None = None,
    maximum: int | None = None,
) -> int:
    """Validate that ``value`` is an integer (optionally within bounds)."""
    if type(value) is not int:  # a plain int (never a bool) needs no numpy lookup
        if isinstance(value, (bool, *_numpy_types("bool_"))):
            raise TypeError(f"{name} must be an integer, got bool")
        if not isinstance(value, (int, *_numpy_types("integer"))):
            raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    v = int(value)
    if minimum is not None and v < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {v}")
    if maximum is not None and v > maximum:
        raise ValueError(f"{name} must be <= {maximum}, got {v}")
    return v


def check_power_of_two(name: str, value: Any) -> int:
    """Validate that ``value`` is a positive integer power of two."""
    v = check_integer(name, value, minimum=1)
    if v & (v - 1) != 0:
        raise ValueError(f"{name} must be a power of two, got {v}")
    return v


def check_one_of(name: str, value: Any, allowed: Iterable[Any]) -> Any:
    """Validate that ``value`` is one of the ``allowed`` values."""
    allowed = tuple(allowed)
    if value not in allowed:
        raise ValueError(f"{name} must be one of {allowed!r}, got {value!r}")
    return value


def ensure_1d_array(
    name: str,
    value: Sequence | np.ndarray,
    *,
    dtype: Any | None = None,
    length: int | None = None,
) -> np.ndarray:
    """Convert ``value`` to a contiguous 1-D ndarray and validate its length."""
    import numpy as np

    arr = np.ascontiguousarray(value, dtype=dtype)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {arr.shape}")
    if length is not None and arr.shape[0] != length:
        raise ValueError(f"{name} must have length {length}, got {arr.shape[0]}")
    return arr


def ensure_2d_array(
    name: str,
    value: Sequence | np.ndarray,
    *,
    dtype: Any | None = None,
    shape: tuple[int | None, int | None] | None = None,
) -> np.ndarray:
    """Convert ``value`` to a contiguous 2-D ndarray and validate its shape.

    ``shape`` entries set to ``None`` are not checked.
    """
    import numpy as np

    arr = np.ascontiguousarray(value, dtype=dtype)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {arr.shape}")
    if shape is not None:
        rows, cols = shape
        if rows is not None and arr.shape[0] != rows:
            raise ValueError(f"{name} must have {rows} rows, got {arr.shape[0]}")
        if cols is not None and arr.shape[1] != cols:
            raise ValueError(f"{name} must have {cols} columns, got {arr.shape[1]}")
    return arr

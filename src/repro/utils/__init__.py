"""Shared utilities: validation, table rendering, RNG helpers and atomic writes.

These helpers are deliberately dependency-light; every other subpackage of
:mod:`repro` may import from here, but :mod:`repro.utils` never imports from
any other :mod:`repro` subpackage.
"""

from repro._lazy import lazy_exports

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
    "AsciiTable",
    "format_table",
    "as_rng",
    "spawn_rngs",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "validation": (
        "check_positive", "check_non_negative", "check_probability", "check_in_range",
        "check_integer", "check_power_of_two", "check_one_of", "ensure_1d_array", "ensure_2d_array",
    ),
    "tables": ("AsciiTable", "format_table"),
    "rng": ("as_rng", "spawn_rngs"),
})

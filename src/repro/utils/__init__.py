"""Shared utilities: validation, unit conversion, table rendering, RNG helpers.

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
    "db_to_linear",
    "linear_to_db",
    "db_to_power_ratio",
    "power_ratio_to_db",
    "joules_to_microjoules",
    "microjoules_to_joules",
    "seconds_to_microseconds",
    "microseconds_to_seconds",
    "watts_to_milliwatts",
    "hz_to_mhz",
    "mhz_to_hz",
    "format_si",
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
    "units": (
        "db_to_linear", "linear_to_db", "db_to_power_ratio", "power_ratio_to_db",
        "joules_to_microjoules", "microjoules_to_joules", "seconds_to_microseconds",
        "microseconds_to_seconds", "watts_to_milliwatts", "hz_to_mhz", "mhz_to_hz", "format_si",
    ),
    "tables": ("AsciiTable", "format_table"),
    "rng": ("as_rng", "spawn_rngs"),
})

"""Chip-rate to sample-rate conversion.

The AquaModem samples at twice the chip rate (``Ts = Tc / 2``, Table 1), so a
56-chip composite waveform becomes a 112-sample discrete waveform.  The pulse
shape is rectangular (sample-and-hold of the chip value), the waveform the
paper's Table 1 parameters describe.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_integer, ensure_1d_array

__all__ = ["upsample_chips"]


def upsample_chips(chips: np.ndarray, samples_per_chip: int) -> np.ndarray:
    """Repeat each chip value ``samples_per_chip`` times (rectangular pulses).

    This is the discrete-time equivalent of transmitting each chip as a
    rectangular pulse of duration ``Tc`` sampled at ``Tc / samples_per_chip``.
    """
    chips = ensure_1d_array("chips", chips)
    samples_per_chip = check_integer("samples_per_chip", samples_per_chip, minimum=1)
    return np.repeat(chips, samples_per_chip)

"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures (see
DESIGN.md §4) and prints a paper-vs-measured comparison; run with

    pytest benchmarks/ --benchmark-only

Add ``-s`` to see the regenerated tables.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dsp.signal_matrix import SignalMatrices
from repro.modem.config import aquamodem_signal_matrices


@pytest.fixture(scope="session")
def aquamodem_matrices() -> SignalMatrices:
    """The full 224 x 112 AquaModem signal matrices (built once per session)."""
    return aquamodem_signal_matrices()


@pytest.fixture(scope="session")
def noisy_receive_vector(aquamodem_matrices) -> np.ndarray:
    """A representative noisy receive vector over a 4-path channel."""
    from repro.channel.multipath import random_sparse_channel
    from repro.channel.simulator import add_noise_for_snr

    channel = random_sparse_channel(num_paths=4, max_delay=100, rng=2024, min_separation=6)
    clean = aquamodem_matrices.synthesize(channel.coefficient_vector(112))
    return add_noise_for_snr(clean, 20.0, rng=2025)

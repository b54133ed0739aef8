"""Experiment E10 — performance of the library's own Matching Pursuits kernels.

Not a paper artefact: this benchmark tracks the runtime of the vectorised MP
implementation (the production code path used by the modem receiver and the
Monte-Carlo link simulations) on the AquaModem geometry, plus the IP-core
functional simulator, and checks the vectorised kernel stays comfortably
real-time (the 22.4 ms receive-vector period) even in pure Python/NumPy.
"""

from __future__ import annotations

import numpy as np

from repro.core.ipcore import IPCoreConfig, IPCoreSimulator
from repro.core.matching_pursuit import matching_pursuit


def test_bench_matching_pursuit_vectorized(benchmark, aquamodem_matrices, noisy_receive_vector):
    result = benchmark(
        matching_pursuit, noisy_receive_vector, aquamodem_matrices, num_paths=6
    )
    assert result.num_paths == 6
    # the software reference itself meets the modem's real-time budget
    # (timed runs only: --benchmark-disable records no stats)
    if benchmark.stats is not None:
        assert benchmark.stats.stats.mean < 22.4e-3


def test_bench_matching_pursuit_more_paths(benchmark, aquamodem_matrices, noisy_receive_vector):
    result = benchmark(
        matching_pursuit, noisy_receive_vector, aquamodem_matrices, num_paths=12
    )
    assert result.num_paths == 12


def test_bench_ipcore_functional_simulation(benchmark, aquamodem_matrices, noisy_receive_vector):
    core = IPCoreSimulator(
        aquamodem_matrices, IPCoreConfig(num_fc_blocks=14, word_length=8, num_paths=6)
    )
    run = benchmark(core.estimate, noisy_receive_vector)
    assert run.total_cycles == 1984
    # the quantised core is pinned == (raw integer codes) to the fixed-point
    # reference estimator; against the float reference the four dominant
    # (true-channel) picks must agree, while the trailing noise-driven picks
    # may legitimately differ at 8 bits
    from repro.core.fixedpoint_mp import FixedPointMatchingPursuit

    fixed_point = FixedPointMatchingPursuit(aquamodem_matrices, word_length=8, num_paths=6)
    assert run.result == fixed_point.estimate(noisy_receive_vector)
    reference = matching_pursuit(noisy_receive_vector, aquamodem_matrices, num_paths=6)
    np.testing.assert_array_equal(
        np.sort(run.result.path_indices[:4]), np.sort(reference.path_indices[:4])
    )

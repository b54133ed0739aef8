"""The paper's primary contribution: Matching Pursuits channel estimation and
its hardware design-space exploration.

Modules
-------
* :mod:`repro.core.matching_pursuit` — the reference floating-point MP
  algorithm of Figure 3 (vectorised and straight-line variants).
* :mod:`repro.core.fixedpoint_mp` — a bit-accurate fixed-point MP that models
  the FPGA datapath at a configurable word length (scalar and batched
  datapaths, pinned bit-identical on raw integer codes).
* :mod:`repro.core.ipcore` — a functional + cycle-level simulator of the
  Filter-and-Cancel IP core of Figure 5, parameterised by the number of FC
  blocks (level of parallelism), with a batched engine bit-identical to it.
* :mod:`repro.core.dse` — the design-space exploration engine that sweeps
  parallelism, bit width and FPGA device and evaluates area / timing /
  throughput / power / energy for each point (Tables 2-3, Figure 6).
* :mod:`repro.core.metrics` — channel-estimation quality metrics.
"""

from repro._lazy import lazy_exports

__all__ = [
    "BatchMatchingPursuitResult",
    "MatchingPursuitResult",
    "matching_pursuit",
    "matching_pursuit_batch",
    "matching_pursuit_naive",
    "matching_pursuit_ls",
    "refine_least_squares",
    "FixedPointMatchingPursuit",
    "FixedPointEstimate",
    "BatchFixedPointEstimate",
    "coefficient_mse",
    "normalized_channel_error",
    "support_recovery_rate",
    "residual_energy_ratio",
    "FilterAndCancelBlock",
    "IPCoreConfig",
    "IPCoreSimulator",
    "BatchIPCoreEngine",
    "BatchIPCoreRun",
    "DesignPoint",
    "DesignPointEvaluation",
    "DesignSpaceExplorer",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "matching_pursuit": (
        "BatchMatchingPursuitResult", "MatchingPursuitResult", "matching_pursuit",
        "matching_pursuit_batch", "matching_pursuit_naive",
    ),
    "refinement": ("matching_pursuit_ls", "refine_least_squares"),
    "fixedpoint_mp": ("BatchFixedPointEstimate", "FixedPointEstimate", "FixedPointMatchingPursuit"),
    "metrics": (
        "coefficient_mse", "normalized_channel_error", "support_recovery_rate",
        "residual_energy_ratio",
    ),
    "ipcore": (
        "BatchIPCoreEngine", "BatchIPCoreRun", "FilterAndCancelBlock", "IPCoreConfig",
        "IPCoreSimulator",
    ),
    "dse": ("DesignPoint", "DesignPointEvaluation", "DesignSpaceExplorer"),
})

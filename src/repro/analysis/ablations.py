"""Ablation and extension studies (experiments E6-E9).

* **E6 — bit-width accuracy**: channel-estimation error of the fixed-point MP
  versus the floating-point reference, over word lengths; checks the paper's
  claim (Section IV.C) that 8-10 bits with dynamic-range scaling suffice.
* **E8 — parallelism sweep**: the energy/power/area trade-off over *all*
  divisor parallelism levels, not just the paper's three, with Pareto points.
* **E7 — DS-SS vs FSK**: symbol error rates of the two signalling schemes in
  the same multipath channels (the motivation for the DS-SS AquaModem design).
* **E9 — network lifetime**: deployment lifetime of a sensor network whose
  nodes carry each candidate processing platform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.dse import DesignSpaceExplorer, DesignPointEvaluation, divisors
from repro.dsp.signal_matrix import SignalMatrices, composite_signal_matrices
from repro.experiments.cache import ResultCache
from repro.experiments.registry import (
    TABLE3_PLATFORM_ENERGIES_UJ,
    config_params,
    get_scenario,
)
from repro.experiments.runner import run_sweep
from repro.hardware.devices import FPGADevice, VIRTEX4_XC4VSX55
from repro.modem.config import AquaModemConfig
from repro.modem.link import LinkResult, symbol_error_rate_curve
from repro.utils.rng import as_rng
from repro.utils.validation import check_integer

__all__ = [
    "BitwidthAccuracyResult",
    "IPCoreParallelismResult",
    "bitwidth_accuracy_ablation",
    "ipcore_parallelism_study",
    "parallelism_ablation",
    "dsss_vs_fsk_ablation",
    "network_lifetime_study",
    "aquamodem_signal_matrices",
]


def aquamodem_signal_matrices(config: AquaModemConfig | None = None) -> SignalMatrices:
    """The S/A/a matrices for the AquaModem pilot waveform (224 x 112 geometry)."""
    config = config if config is not None else AquaModemConfig()
    return composite_signal_matrices(
        config.walsh_symbols, config.spreading_chips, config.samples_per_chip
    )


# --------------------------------------------------------------------------- #
# E6 — bit-width accuracy
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class BitwidthAccuracyResult:
    """Estimation quality of the fixed-point datapath at one word length."""

    word_length: int
    mean_normalized_error: float
    mean_support_recovery: float
    mean_error_vs_float: float


def _as_base_seed(rng: np.random.Generator | int | None) -> int:
    """Collapse the legacy ``rng`` argument into a deterministic base seed."""
    if rng is None:
        return int(as_rng(None).integers(0, 2**63 - 1))
    if isinstance(rng, np.random.Generator):
        return int(rng.integers(0, 2**63 - 1))
    return int(rng)


def bitwidth_accuracy_ablation(
    word_lengths: tuple[int, ...] = (4, 6, 8, 10, 12, 16),
    num_trials: int = 20,
    num_channel_paths: int = 4,
    snr_db: float = 20.0,
    rng: np.random.Generator | int | None = 0,
    config: AquaModemConfig | None = None,
    jobs: int = 1,
    cache: ResultCache | None = None,
) -> list[BitwidthAccuracyResult]:
    """Channel-estimation accuracy of the fixed-point MP over word lengths.

    For each trial a random sparse channel is drawn, the pilot waveform is
    passed through it at the given SNR, and both the floating-point reference
    and the fixed-point MP estimate the channel.  Reported per word length:
    the normalised error against the true channel, the support recovery rate,
    and the deviation of the fixed-point estimate from the float estimate.

    Runs the ``fixedpoint-bitwidth`` scenario on the sweep engine, which
    hands every word length's trials to the batched datapath in one call;
    ``jobs``/``cache`` enable parallel and resumable runs.
    """
    check_integer("num_trials", num_trials, minimum=1)
    config = config if config is not None else AquaModemConfig()
    spec = (
        get_scenario("fixedpoint-bitwidth").spec
        .with_axis("word_length", tuple(int(bits) for bits in word_lengths))
        .with_base(
            snr_db=float(snr_db),
            num_channel_paths=int(num_channel_paths),
            **config_params(config),
        )
        .with_seed(base_seed=_as_base_seed(rng), replicates=num_trials)
    )
    result = run_sweep(spec, jobs=jobs, cache=cache)
    errors = result.group_mean(by="word_length", metric="normalized_error")
    supports = result.group_mean(by="word_length", metric="support_recovery")
    vs_float = result.group_mean(by="word_length", metric="error_vs_float")
    return [
        BitwidthAccuracyResult(
            word_length=bits,
            mean_normalized_error=errors[bits],
            mean_support_recovery=supports[bits],
            mean_error_vs_float=vs_float[bits],
        )
        for bits in word_lengths
    ]


# --------------------------------------------------------------------------- #
# IP-core parallelism study (Figure 5 / Table 2 timing axis)
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class IPCoreParallelismResult:
    """Cycle cost and estimation quality of the IP core at one parallelism level."""

    num_fc_blocks: int
    word_length: int
    total_cycles: int
    matched_filter_cycles: int
    iteration_cycles: int
    execution_time_us: float
    mean_normalized_error: float
    mean_support_recovery: float
    mean_error_vs_float: float


def ipcore_parallelism_study(
    parallelism_levels: tuple[int, ...] = (1, 2, 4, 8, 14, 28, 56, 112),
    word_length: int = 8,
    num_trials: int = 8,
    num_channel_paths: int = 4,
    snr_db: float = 25.0,
    rng: np.random.Generator | int | None = 0,
    config: AquaModemConfig | None = None,
    device: FPGADevice | None = None,
) -> list[IPCoreParallelismResult]:
    """Cycle cost vs estimation quality of the IP core over parallelism levels.

    Every level estimates the same Monte-Carlo channels (the problems come
    from the registry's memoised builders, seeded exactly like the
    ``ipcore-parallelism`` scenario sweep), so the table demonstrates the
    conformance contract live: the accuracy columns are *identical* at every
    P — the study asserts cross-P bit-identity on the raw integer codes on
    every run — while the cycle and execution-time columns fall as Ns/P.

    Each level's trials run through one
    :meth:`~repro.core.ipcore.batch.BatchIPCoreEngine.estimate_batch` call.
    ``execution_time_us`` prices the closed-form schedule on ``device``
    (default: the Virtex-4) at this word length.
    """
    check_integer("num_trials", num_trials, minimum=1)
    check_integer("word_length", word_length, minimum=2, maximum=32)
    from repro.experiments.registry import (
        fixedpoint_trial_metrics,
        trial_channel_problem,
        trial_float_reference,
        trial_ipcore_engine,
    )
    from repro.hardware.timing import timing_from_schedule

    config = config if config is not None else AquaModemConfig()
    device = device if device is not None else VIRTEX4_XC4VSX55
    spec = (
        get_scenario("ipcore-parallelism").spec
        .with_axis("num_fc_blocks", tuple(int(p) for p in parallelism_levels))
        .with_axis("word_length", (int(word_length),))
        .with_base(
            snr_db=float(snr_db),
            num_channel_paths=int(num_channel_paths),
            **config_params(config),
        )
        .with_seed(base_seed=_as_base_seed(rng), replicates=num_trials)
    )
    groups: dict[int, list] = {}
    for point in spec.expand():
        groups.setdefault(int(point.params["num_fc_blocks"]), []).append(point)

    results: list[IPCoreParallelismResult] = []
    baseline_estimates = None
    for level in parallelism_levels:
        points = groups[int(level)]
        engine = trial_ipcore_engine(points[0].params, int(level), int(word_length))
        problems = [trial_channel_problem(p.params, p.seed) for p in points]
        references = [trial_float_reference(p.params, p.seed) for p in points]
        run = engine.estimate_batch(np.stack([problem[2] for problem in problems]))
        estimates = [run.result[t] for t in range(len(points))]
        schedule = run.schedule
        # the live conformance assertion: raw integer codes identical across P
        if baseline_estimates is None:
            baseline_estimates = estimates
        elif estimates != baseline_estimates:
            raise AssertionError(
                f"IP-core estimates at P={level} diverged from "
                f"P={parallelism_levels[0]} — the partition moved a quantisation point"
            )
        metrics = [
            fixedpoint_trial_metrics(problem[0], problem[1], reference, estimate)
            for problem, reference, estimate in zip(problems, references, estimates)
        ]
        timing = timing_from_schedule(device, schedule, int(word_length))
        results.append(IPCoreParallelismResult(
            num_fc_blocks=int(level),
            word_length=int(word_length),
            total_cycles=schedule.total_cycles,
            matched_filter_cycles=schedule.matched_filter_cycles,
            iteration_cycles=schedule.iteration_cycles,
            execution_time_us=timing.execution_time_us,
            mean_normalized_error=float(np.mean([m["normalized_error"] for m in metrics])),
            mean_support_recovery=float(np.mean([m["support_recovery"] for m in metrics])),
            mean_error_vs_float=float(np.mean([m["error_vs_float"] for m in metrics])),
        ))
    return results


# --------------------------------------------------------------------------- #
# E8 — full parallelism sweep
# --------------------------------------------------------------------------- #
def parallelism_ablation(
    device: FPGADevice | None = None,
    word_length: int = 8,
    num_delays: int = 112,
    num_paths: int = 6,
) -> list[DesignPointEvaluation]:
    """Evaluate every divisor parallelism level on one device at one bit width."""
    device = device if device is not None else VIRTEX4_XC4VSX55
    explorer = DesignSpaceExplorer(
        devices=(device,),
        parallelism_levels=tuple(divisors(num_delays)),
        bit_widths=(word_length,),
        num_paths=num_paths,
        num_delays=num_delays,
        include_infeasible=True,
    )
    return explorer.explore()


# --------------------------------------------------------------------------- #
# E7 — DS-SS vs FSK
# --------------------------------------------------------------------------- #
def dsss_vs_fsk_ablation(
    snr_points_db: tuple[float, ...] = (-6.0, -3.0, 0.0, 3.0, 6.0),
    num_symbols: int = 120,
    rng: np.random.Generator | int | None = 0,
    config: AquaModemConfig | None = None,
    num_frames: int = 10,
) -> dict[str, list[LinkResult]]:
    """Symbol-error-rate curves of the DS-SS and FSK schemes over the same SNR sweep."""
    config = config if config is not None else AquaModemConfig()
    rng = as_rng(rng)
    seed_dsss = int(rng.integers(0, 2**31 - 1))
    seed_fsk = int(rng.integers(0, 2**31 - 1))
    return {
        "DSSS": symbol_error_rate_curve(
            "DSSS", list(snr_points_db), num_symbols=num_symbols, config=config,
            rng=seed_dsss, num_frames=num_frames,
        ),
        "FSK": symbol_error_rate_curve(
            "FSK", list(snr_points_db), num_symbols=num_symbols, config=config,
            rng=seed_fsk, num_frames=num_frames,
        ),
    }


# --------------------------------------------------------------------------- #
# E9 — network lifetime by platform
# --------------------------------------------------------------------------- #
def network_lifetime_study(
    grid_size: tuple[int, int] = (5, 5),
    spacing_m: float = 200.0,
    communication_range_m: float = 300.0,
    battery_capacity_j: float = 50_000.0,
    report_interval_s: float = 120.0,
    packet_symbols: int = 32,
    platform_energies_uj: dict[str, float] | None = None,
    continuous_detection: bool = True,
    config: AquaModemConfig | None = None,
    jobs: int = 1,
    cache: ResultCache | None = None,
    topology: str = "grid",
    topology_seed: int = 1,
) -> dict[str, float]:
    """Deployment lifetime (days) for each candidate processing platform.

    ``platform_energies_uj`` defaults to the Table 3 energies (MicroBlaze,
    DSP, serial and parallel FPGA points).  Runs on the ``network-lifetime``
    scenario of the experiment engine — platform label and energy travel as
    zipped axes, the full ``config`` travels as flat base parameters — so
    ``jobs``/``cache`` enable parallel and resumable runs.

    With ``continuous_detection`` (the realistic receive mode for an
    always-listening node) the processing platform runs one channel
    estimation per receive-vector period (22.4 ms) even while idle, so the
    per-estimation energy of the platform translates directly into listening
    power: ~90 mW for the MicroBlaze versus ~0.4 mW for the fully parallel
    Virtex-4 core.  This is where the paper's energy argument shows up at the
    deployment level.  Disabling it reverts to the duty-cycled mode where
    estimations happen only while a packet is being received.

    ``topology`` chooses ``grid`` or ``random`` deployment geometry (the
    scatter drawn deterministically from ``topology_seed``).  The
    packet-level, Monte-Carlo counterpart is the ``network-contention``
    scenario that ``repro lifetime --trials`` sweeps.
    """
    if platform_energies_uj is None:
        platform_energies_uj = dict(TABLE3_PLATFORM_ENERGIES_UJ)
    config = config if config is not None else AquaModemConfig()
    spec = (
        get_scenario("network-lifetime").spec
        .with_axis("report_interval_s", (float(report_interval_s),))
        .with_axis("topology", (str(topology),))
        .with_zipped({
            "platform": tuple(platform_energies_uj),
            "energy_uj": tuple(float(e) for e in platform_energies_uj.values()),
        })
        .with_base(
            topology_seed=int(topology_seed),
            grid_rows=int(grid_size[0]),
            grid_cols=int(grid_size[1]),
            spacing_m=float(spacing_m),
            communication_range_m=float(communication_range_m),
            battery_capacity_j=float(battery_capacity_j),
            packet_symbols=int(packet_symbols),
            continuous_detection=bool(continuous_detection),
            **config_params(config),
        )
    )
    result = run_sweep(spec, jobs=jobs, cache=cache)
    return {record["platform"]: record["lifetime_days"] for record in result.records}

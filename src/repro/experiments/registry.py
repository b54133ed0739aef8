"""Scenario registry: named, sweepable experiments over the repro layers.

A :class:`Scenario` couples a *trial function* — ``(params, seed) -> metrics``
— with a default :class:`~repro.experiments.spec.SweepSpec` describing the
interesting axes.  A scenario may also define ``run_batch`` — the same
metrics for a whole list of ``(params, seed)`` points in one call — which the
sweep runner then uses for every cache miss; ``run_trial`` stays the per-trial
oracle it must equal.  Scenarios are looked up by name (also from worker
processes, so trial functions stay importable module-level callables) and the
registry ships with eight built-ins spanning every layer of the codebase:

======================  =======================  ================================
name                    layers                   sweeps
======================  =======================  ================================
modem-ser-vs-snr        modem, channel, dsp      DS-SS vs FSK symbol error rate
fixedpoint-bitwidth     fixedpoint, core         MP accuracy vs word length
ipcore-parallelism      core, fixedpoint, hw     IP-core accuracy + cycles vs P, w
platform-energy         hardware                 energy per estimation / packet
mp-refinement           core, channel            greedy vs LS-refined MP vs Nf
network-lifetime        network, modem           deployment lifetime by platform
network-contention      network, modem           lifetime/PDR under contention MAC
network-pdr-vs-density  network                  delivery ratio vs node density
======================  =======================  ================================

Each scenario carries a ``version`` string that is folded into cache keys, so
changing a trial function's behaviour (bump the version) invalidates exactly
that scenario's cached results.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

from repro.experiments.spec import SeedPolicy, SweepSpec
from repro.modem.config import AquaModemConfig
from repro.telemetry.metrics import counter, histogram
from repro.telemetry.tracing import span

# Registration needs only the names above.  Every engine, channel, hardware
# and network import — numpy included — sits in the function that uses it,
# so listing the scenarios or running one of them loads only that
# scenario's layers, and a fully cached sweep loads no numpy at all.
if TYPE_CHECKING:
    from repro.core.fixedpoint_mp import FixedPointMatchingPursuit
    from repro.core.ipcore import BatchIPCoreEngine
    from repro.dsp.signal_matrix import SignalMatrices
    from repro.hardware.comparison import PlatformComparison
    from repro.network.simulator import NetworkSimulator

__all__ = [
    "Scenario",
    "register",
    "get_scenario",
    "list_scenarios",
    "scenario_names",
    "TABLE3_PLATFORM_ENERGIES_UJ",
]

#: The Table 3 per-estimation energies (microjoules) used by the lifetime
#: scenarios; platform label and energy are *paired* data, hence zipped axes.
TABLE3_PLATFORM_ENERGIES_UJ: dict[str, float] = {
    "MicroBlaze": 2000.40,
    "TI C6713 DSP": 500.76,
    "Virtex-4 1FC 16bit": 360.52,
    "Spartan-3 14FC 8bit": 25.82,
    "Virtex-4 112FC 8bit": 9.50,
}

# per-group telemetry of the fixed-point run_batch (never per trial)
_FIXEDPOINT_TRIALS = counter("engine.fixedpoint.trials")
_FIXEDPOINT_GROUP_SIZE = histogram("engine.fixedpoint.batch_size")
# the IP-core engine's own counter, topped up by the ipcore run_batch
_IPCORE_CYCLES = counter("engine.ipcore.cycles")


@dataclass(frozen=True)
class Scenario:
    """One named, sweepable experiment.

    ``run_trial(params, seed)`` returns one trial's metrics.  The optional
    ``run_batch(points)`` takes a list of ``(params, seed)`` pairs and returns
    their metrics in the same order; its output must compare ``==`` to
    ``[run_trial(params, seed) for params, seed in points]``.
    """

    name: str
    description: str
    layers: tuple[str, ...]
    version: str
    run_trial: Callable[[Mapping[str, Any], int], Mapping[str, Any]]
    default_spec: SweepSpec
    run_batch: Callable[
        [Sequence[tuple[Mapping[str, Any], int]]], Sequence[Mapping[str, Any]]
    ] | None = None

    @property
    def spec(self) -> SweepSpec:
        """The default sweep spec (safe to share: specs are immutable)."""
        return self.default_spec


_REGISTRY: dict[str, Scenario] = {}


def register(scenario: Scenario) -> Scenario:
    """Add ``scenario`` to the registry (replacing any same-named entry)."""
    _REGISTRY[scenario.name] = scenario
    return scenario


def get_scenario(name: str) -> Scenario:
    """Look up a scenario by name; raises ``KeyError`` listing what exists."""
    try:
        return _REGISTRY[name]
    except KeyError:
        available = ", ".join(sorted(_REGISTRY)) or "<none>"
        raise KeyError(f"unknown scenario {name!r}; available: {available}") from None


def list_scenarios() -> list[Scenario]:
    """All registered scenarios, sorted by name."""
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def scenario_names() -> list[str]:
    return sorted(_REGISTRY)


# --------------------------------------------------------------------------- #
# shared (per-process, memoised) heavy objects
#
# Trials of the same sweep share expensive intermediates: the signal matrices,
# the per-channel problem (channel draw + noisy receive vector) that paired
# seeds make identical across axis values, and the floating-point reference
# estimate.  Memoising them per process restores the sharing the old ad-hoc
# loops had, without coupling trials to each other.
# --------------------------------------------------------------------------- #

#: Every :class:`AquaModemConfig` field, so a trial's parameters can carry a
#: *complete* waveform configuration; absent parameters use Table 1 defaults.
_CONFIG_FIELDS = tuple(AquaModemConfig.__dataclass_fields__)


@functools.lru_cache(maxsize=1)
def _config_defaults() -> tuple:
    config = AquaModemConfig()
    return tuple(getattr(config, name) for name in _CONFIG_FIELDS)


def _config_key(params: Mapping[str, Any]) -> tuple:
    defaults = _config_defaults()
    return tuple(
        params.get(name, default) for name, default in zip(_CONFIG_FIELDS, defaults)
    )


@functools.lru_cache(maxsize=32)
def _config(key: tuple) -> AquaModemConfig:
    return AquaModemConfig(**dict(zip(_CONFIG_FIELDS, key)))


def _config_from(params: Mapping[str, Any]) -> AquaModemConfig:
    return _config(_config_key(params))


@functools.lru_cache(maxsize=8)
def _matrices(walsh_symbols: int, spreading_chips: int, samples_per_chip: int) -> SignalMatrices:
    from repro.dsp.signal_matrix import composite_signal_matrices

    return composite_signal_matrices(walsh_symbols, spreading_chips, samples_per_chip)


def _matrices_for(config: AquaModemConfig) -> SignalMatrices:
    return _matrices(config.walsh_symbols, config.spreading_chips, config.samples_per_chip)


@functools.lru_cache(maxsize=32)
def _fixed_point_estimator(
    config_key: tuple, word_length: int,
) -> FixedPointMatchingPursuit:
    from repro.core.fixedpoint_mp import FixedPointMatchingPursuit

    config = _config(config_key)
    return FixedPointMatchingPursuit(
        _matrices_for(config), word_length=word_length, num_paths=config.num_paths
    )


@functools.lru_cache(maxsize=32)
def _ipcore_engine(
    config_key: tuple, num_fc_blocks: int, word_length: int,
) -> BatchIPCoreEngine:
    from repro.core.ipcore import BatchIPCoreEngine, IPCoreConfig

    config = _config(config_key)
    return BatchIPCoreEngine(
        _matrices_for(config),
        IPCoreConfig(
            num_fc_blocks=num_fc_blocks,
            word_length=word_length,
            num_paths=config.num_paths,
        ),
    )


@functools.lru_cache(maxsize=256)
def _channel_problem(
    config_key: tuple, num_channel_paths: int, snr_db: float, seed: int,
):
    """One estimation problem: (channel, true coefficients, noisy receive)."""
    from repro.channel.multipath import random_sparse_channel
    from repro.channel.simulator import add_noise_for_snr

    config = _config(config_key)
    matrices = _matrices_for(config)
    channel = random_sparse_channel(
        num_paths=num_channel_paths,
        max_delay=config.multipath_spread_samples,
        rng=seed,
        min_separation=4,
    )
    true_f = channel.coefficient_vector(matrices.num_delays)
    received = add_noise_for_snr(matrices.synthesize(true_f), snr_db, rng=seed + 1)
    return channel, true_f, received


@functools.lru_cache(maxsize=256)
def _float_estimate(
    config_key: tuple, num_channel_paths: int, snr_db: float, seed: int, num_paths: int,
):
    """Floating-point MP estimate of one problem (shared across axis values)."""
    from repro.core.matching_pursuit import matching_pursuit

    config = _config(config_key)
    _, _, received = _channel_problem(config_key, num_channel_paths, snr_db, seed)
    return matching_pursuit(received, _matrices_for(config), num_paths=num_paths)


@functools.lru_cache(maxsize=8)
def _platform_comparison(num_paths: int) -> PlatformComparison:
    from repro.hardware.comparison import compare_platforms

    return compare_platforms(num_paths=num_paths)


def _trial_channel_problem(params: Mapping[str, Any], seed: int):
    """The (channel, true coefficients, received) problem of one trial point."""
    return _channel_problem(
        _config_key(params),
        int(params["num_channel_paths"]),
        float(params["snr_db"]),
        int(seed),
    )


def _trial_float_reference(params: Mapping[str, Any], seed: int):
    """The floating-point MP estimate of one trial point's problem."""
    config_key = _config_key(params)
    return _float_estimate(
        config_key,
        int(params["num_channel_paths"]),
        float(params["snr_db"]),
        int(seed),
        _config(config_key).num_paths,
    )


def _fixedpoint_trial_metrics(channel, true_f, reference, estimate) -> dict[str, Any]:
    """The E6 accuracy metrics of one fixed-point estimate.

    Shared by the per-trial oracles and the ``run_batch`` functions, so both
    evaluate the identical float expressions on identical coefficient arrays
    — which is what lets their records be compared with ``==``.
    """
    import numpy as np

    from repro.core.metrics import normalized_channel_error, support_recovery_rate

    vs_float = (
        normalized_channel_error(reference.coefficients, estimate.coefficients)
        if np.linalg.norm(reference.coefficients) > 0
        else 0.0
    )
    return {
        "normalized_error": normalized_channel_error(true_f, estimate.coefficients),
        "support_recovery": support_recovery_rate(
            channel.delays, estimate.path_indices, tolerance=1
        ),
        "error_vs_float": vs_float,
    }


@functools.lru_cache(maxsize=64)
def _topology_routing(
    topology: str,
    rows: int,
    cols: int,
    spacing_m: float,
    communication_range_m: float,
    topology_seed: int = 0,
):
    """Routing tree for one deployment geometry.

    ``grid`` is the regular rows x cols lattice; ``random`` scatters the same
    number of nodes uniformly over the equivalent area (sink at the centre),
    with the scatter drawn deterministically from ``topology_seed``.
    """
    from repro.network.routing import shortest_path_routing
    from repro.network.topology import connectivity_graph, grid_deployment, random_deployment

    if topology == "grid":
        deployment = grid_deployment(rows, cols, spacing_m=spacing_m)
    elif topology == "random":
        area = (max(1, cols - 1) * spacing_m, max(1, rows - 1) * spacing_m)
        deployment = random_deployment(rows * cols, area_m=area, rng=topology_seed)
    else:
        raise ValueError(f"unknown topology {topology!r}; expected 'grid' or 'random'")
    graph = connectivity_graph(deployment, communication_range_m)
    return shortest_path_routing(graph, deployment.sink_id)


# --------------------------------------------------------------------------- #
# trial functions (module-level so worker processes can run them)
# --------------------------------------------------------------------------- #
def _modem_ser_trial(params: Mapping[str, Any], seed: int) -> dict[str, Any]:
    """One SER measurement of one scheme at one SNR point (batched link engine)."""
    from repro.modem.link import LinkSimulator

    simulator = LinkSimulator(
        config=_config_from(params),
        num_channel_paths=int(params["num_channel_paths"]),
        rng=seed,
    )
    result = simulator.run(
        str(params["scheme"]),
        float(params["snr_db"]),
        num_symbols=int(params["num_symbols"]),
        num_frames=int(params["num_frames"]),
    )
    return {
        "symbol_error_rate": result.symbol_error_rate,
        "symbols_sent": result.symbols_sent,
        "symbol_errors": result.symbol_errors,
    }


def _grouped_problems(points, group_key):
    """Group ``(params, seed)`` points and fetch each group's problems.

    Yields ``(key, rows, problems, received)`` per distinct
    ``group_key(params)``: the points' positions, their (channel, true
    coefficients, received, float reference) tuples and the stacked receive
    vectors.  Problems are held here, so the sharing across groups that
    paired seeds promise survives batches larger than the memoisation
    windows of the builders.
    """
    import numpy as np

    groups: dict[Any, list[int]] = {}
    for row, (params, _) in enumerate(points):
        groups.setdefault(group_key(params), []).append(row)
    problems: dict[tuple, tuple] = {}
    for key, rows in groups.items():
        group = []
        for row in rows:
            params, seed = points[row]
            problem_key = (
                _config_key(params), int(params["num_channel_paths"]),
                float(params["snr_db"]), int(seed),
            )
            if problem_key not in problems:
                problems[problem_key] = (
                    *_trial_channel_problem(params, seed),
                    _trial_float_reference(params, seed),
                )
            group.append(problems[problem_key])
        yield key, rows, group, np.stack([problem[2] for problem in group])


def _fixedpoint_bitwidth_trial(params: Mapping[str, Any], seed: int) -> dict[str, Any]:
    """Fixed-point vs floating-point MP accuracy on one random channel.

    The per-trial oracle: the scalar executable specification
    :meth:`~repro.core.fixedpoint_mp.FixedPointMatchingPursuit.estimate`.
    """
    channel, true_f, received = _trial_channel_problem(params, seed)
    estimator = _fixed_point_estimator(_config_key(params), int(params["word_length"]))
    return _fixedpoint_trial_metrics(
        channel, true_f, _trial_float_reference(params, seed), estimator.estimate(received)
    )


def _fixedpoint_bitwidth_batch(points) -> list[dict[str, Any]]:
    """``run_batch`` of ``fixedpoint-bitwidth``: one ``estimate_batch`` per word length.

    Points are grouped by word length and waveform configuration; raw integer
    codes of ``estimate_batch`` are pinned ``==`` to the scalar ``estimate``,
    so the metrics equal :func:`_fixedpoint_bitwidth_trial`'s.
    """
    metrics: list[Any] = [None] * len(points)
    for (word_length, config_key), rows, problems, received in _grouped_problems(
        points, lambda params: (int(params["word_length"]), _config_key(params))
    ):
        with span("engine.fixedpoint.group", word_length=word_length, batch_size=len(rows)):
            _FIXEDPOINT_GROUP_SIZE.observe(len(rows))
            estimates = _fixed_point_estimator(config_key, word_length).estimate_batch(received)
            for position, (row, problem) in enumerate(zip(rows, problems)):
                channel, true_f, _, reference = problem
                metrics[row] = _fixedpoint_trial_metrics(
                    channel, true_f, reference, estimates[position]
                )
    _FIXEDPOINT_TRIALS.inc(len(points))
    return metrics


def _ipcore_metrics(channel, true_f, reference, estimate, schedule) -> dict[str, Any]:
    metrics = _fixedpoint_trial_metrics(channel, true_f, reference, estimate)
    metrics["total_cycles"] = schedule.total_cycles
    metrics["matched_filter_cycles"] = schedule.matched_filter_cycles
    metrics["iteration_cycles"] = schedule.iteration_cycles
    return metrics


def _ipcore_parallelism_trial(params: Mapping[str, Any], seed: int) -> dict[str, Any]:
    """IP-core estimation accuracy and cycle cost at one (P, word length) point.

    P only picks the schedule: the estimate is bit-identical at every
    parallelism level (the conformance contract pinned by
    ``tests/core/test_ipcore_conformance.py``), so across the ``num_fc_blocks``
    axis the accuracy columns are constant while the cycle columns fall as
    Ns/P.  The per-trial oracle walks the scalar FC blocks
    (:meth:`~repro.core.ipcore.simulator.IPCoreSimulator.estimate`).
    """
    channel, true_f, received = _trial_channel_problem(params, seed)
    engine = _ipcore_engine(
        _config_key(params), int(params["num_fc_blocks"]), int(params["word_length"])
    )
    run = engine.core.estimate(received)
    return _ipcore_metrics(
        channel, true_f, _trial_float_reference(params, seed), run.result, run.schedule
    )


def _ipcore_parallelism_batch(points) -> list[dict[str, Any]]:
    """``run_batch`` of ``ipcore-parallelism``: one ``estimate_batch`` per word length.

    P only picks the schedule, so points are grouped by ``(word_length,
    configuration)`` alone: one engine estimates the whole group, and each
    row gets its own P's closed-form schedule.  The batched engine is pinned
    ``==`` to the scalar FC-block walk at every P, so the metrics equal
    :func:`_ipcore_parallelism_trial`'s.
    """
    metrics: list[Any] = [None] * len(points)
    for (word_length, config_key), rows, problems, received in _grouped_problems(
        points, lambda params: (int(params["word_length"]), _config_key(params))
    ):
        engines = [
            _ipcore_engine(config_key, int(points[row][0]["num_fc_blocks"]), word_length)
            for row in rows
        ]
        # the largest P has the fewest cycles: estimate_batch counts every row
        # at its P, and the counter is topped up to each row's own schedule
        run = max(engines, key=lambda engine: engine.config.num_fc_blocks).estimate_batch(
            received
        )
        schedules = [engine.core.control.schedule() for engine in engines]
        _IPCORE_CYCLES.inc(
            sum(schedule.total_cycles for schedule in schedules) - run.total_cycles * len(rows)
        )
        for position, (row, problem, schedule) in enumerate(zip(rows, problems, schedules)):
            channel, true_f, _, reference = problem
            metrics[row] = _ipcore_metrics(
                channel, true_f, reference, run.result[position], schedule
            )
    return metrics


def _platform_energy_trial(params: Mapping[str, Any], seed: int) -> dict[str, Any]:
    """Per-estimation and per-packet energy of one platform (analytic model)."""
    comparison = _platform_comparison(int(params["num_paths"]))
    result = comparison.by_label(str(params["platform"]))
    packet_symbols = int(params["packet_symbols"])
    return {
        "time_us": result.time_us,
        "power_w": result.power_w,
        "energy_uj": result.energy_uj,
        "energy_per_packet_uj": result.energy_uj * packet_symbols,
        "energy_decrease_vs_microcontroller": result.energy_decrease_vs_microcontroller,
        "energy_decrease_vs_dsp": result.energy_decrease_vs_dsp,
    }


def _mp_refinement_trial(params: Mapping[str, Any], seed: int) -> dict[str, Any]:
    """Greedy vs LS-refined MP estimation quality at one Nf on one channel."""
    import numpy as np

    from repro.core.metrics import normalized_channel_error, support_recovery_rate
    from repro.core.refinement import refine_least_squares

    config_key = _config_key(params)
    matrices = _matrices_for(_config(config_key))
    num_channel_paths = int(params["num_channel_paths"])
    snr_db = float(params["snr_db"])
    num_paths = int(params["num_paths"])
    channel, true_f, received = _channel_problem(config_key, num_channel_paths, snr_db, seed)
    # the memoised greedy estimate is shared by the 'greedy' and 'ls' trials
    # of the same problem; refinement returns a new result, never mutates it
    estimate = _float_estimate(config_key, num_channel_paths, snr_db, seed, num_paths)
    if str(params["estimator"]) == "ls":
        estimate = refine_least_squares(received, matrices.S, estimate)
    residual = received - matrices.synthesize(estimate.coefficients)
    return {
        "normalized_error": normalized_channel_error(true_f, estimate.coefficients),
        "support_recovery": support_recovery_rate(
            channel.delays, estimate.path_indices, tolerance=1
        ),
        "relative_residual": float(
            np.linalg.norm(residual) / max(np.linalg.norm(received), 1e-300)
        ),
    }


def _network_lifetime_trial(params: Mapping[str, Any], seed: int) -> dict[str, Any]:
    """Deployment lifetime (days) of one platform on one network configuration.

    ``topology`` selects the deployment geometry (``grid`` or ``random``).
    """
    from repro.modem.energy_budget import ModemEnergyBudget
    from repro.network.lifetime import lifetime_by_platform
    from repro.network.traffic import PeriodicTraffic

    config = _config_from(params)
    platform = str(params["platform"])
    energy_uj = float(params["energy_uj"])
    routing = _topology_routing(
        str(params.get("topology", "grid")),
        int(params["grid_rows"]), int(params["grid_cols"]),
        float(params["spacing_m"]), float(params["communication_range_m"]),
        int(params.get("topology_seed", 0)),
    )
    traffic = PeriodicTraffic(
        report_interval_s=float(params["report_interval_s"]),
        packet_symbols=int(params["packet_symbols"]),
    )
    base_budget = ModemEnergyBudget(config=config)
    idle_power_w = None
    if bool(params["continuous_detection"]):
        idle_power_w = {
            platform: base_budget.processing_idle_power_w
            + (energy_uj * 1e-6) / config.total_symbol_period_s
        }
    lifetimes_s = lifetime_by_platform(
        routing=routing,
        traffic=traffic,
        battery_capacity_j=float(params["battery_capacity_j"]),
        platform_processing_energy_j={platform: energy_uj * 1e-6},
        platform_idle_power_w=idle_power_w,
        base_budget=base_budget,
    )
    return {"lifetime_days": lifetimes_s[platform] / 86_400.0}


def _contention_simulator(params: Mapping[str, Any], seed: int) -> NetworkSimulator:
    """Build the packet-level simulator a contention trial runs on.

    The deployment covers a *fixed* ``area_side_m`` square regardless of
    ``num_nodes``, so sweeping the node count sweeps the density — and with
    it the per-receiver contender count the CSMA MAC reacts to.  ``mac`` is
    ``csma`` (the default) or ``none`` for a contention-free channel;
    ``continuous_detection`` (default off) adds one channel estimation per
    receive-vector period to the idle power, as in ``network-lifetime``.
    """
    from repro.modem.energy_budget import ModemEnergyBudget
    from repro.network.mac import CsmaMac
    from repro.network.routing import RoutedForwarding, TtlFlooding
    from repro.network.simulator import NetworkSimulator
    from repro.network.topology import LinearMobility, grid_deployment, random_deployment
    from repro.network.traffic import PeriodicTraffic

    topology = str(params.get("topology", "grid"))
    num_nodes = int(params["num_nodes"])
    area_side_m = float(params["area_side_m"])
    if topology == "grid":
        side = int(round(num_nodes**0.5))
        if side * side != num_nodes:
            raise ValueError(
                f"num_nodes must be a perfect square for the grid topology, got {num_nodes}"
            )
        deployment = grid_deployment(side, side, spacing_m=area_side_m / max(side - 1, 1))
    elif topology == "random":
        deployment = random_deployment(
            num_nodes,
            area_m=(area_side_m, area_side_m),
            rng=int(params.get("topology_seed", 1)),
        )
    else:
        raise ValueError(f"unknown topology {topology!r}; expected 'grid' or 'random'")
    protocol_name = str(params.get("protocol", "routed"))
    if protocol_name == "routed":
        protocol: RoutedForwarding | TtlFlooding = RoutedForwarding()
    elif protocol_name == "flooding":
        protocol = TtlFlooding(ttl=int(params.get("ttl", 4)))
    else:
        raise ValueError(f"unknown protocol {protocol_name!r}; expected 'routed' or 'flooding'")
    drift_speed = float(params.get("drift_speed_mps", 0.0))
    mobility = None
    if drift_speed > 0.0:
        mobility = LinearMobility(
            speed_mps=drift_speed, epoch_s=float(params.get("drift_epoch_s", 21_600.0))
        )
    mac_name = str(params.get("mac", "csma"))
    if mac_name == "csma":
        mac: CsmaMac | None = CsmaMac(
            channel_load=float(params["channel_load"]),
            max_attempts=int(params["max_attempts"]),
            capture_probability=float(params.get("capture_probability", 0.0)),
        )
    elif mac_name == "none":
        mac = None
    else:
        raise ValueError(f"unknown mac {mac_name!r}; expected 'csma' or 'none'")
    energy_j = float(params["energy_uj"]) * 1e-6
    budget = ModemEnergyBudget(processing_energy_per_estimation_j=energy_j)
    if bool(params.get("continuous_detection", False)):
        # one channel estimation per receive-vector period while listening
        budget = replace(
            budget,
            processing_idle_power_w=budget.processing_idle_power_w
            + energy_j / budget.config.total_symbol_period_s,
        )
    return NetworkSimulator(
        deployment=deployment,
        energy_budget=budget,
        traffic=PeriodicTraffic(
            report_interval_s=float(params["report_interval_s"]),
            packet_symbols=int(params["packet_symbols"]),
        ),
        communication_range_m=float(params["communication_range_m"]),
        battery_capacity_j=float(params["battery_capacity_j"]),
        mac=mac,
        rng=seed,
        protocol=protocol,
        mobility=mobility,
    )


def _contention_metrics(result) -> dict[str, Any]:
    ratio = result.delivery_ratio
    return {
        "lifetime_days": result.lifetime_days,
        # a zero-packet run has an undefined (NaN) ratio; encode it as None
        # so sweep records stay strict JSON and aggregators skip it
        "delivery_ratio": None if ratio != ratio else float(ratio),
        "packets_generated": result.packets_generated,
        "packets_delivered": result.packets_delivered,
        "packets_dropped": result.packets_dropped,
    }


def _network_contention_trial(params: Mapping[str, Any], seed: int) -> dict[str, Any]:
    """Lifetime and delivery of one seeded run under the contention MAC.

    ``protocol`` selects routed forwarding or TTL flooding and
    ``drift_speed_mps`` (> 0) attaches current-drift mobility.  Runs on the
    vectorised engine; the per-packet event loop
    (:meth:`~repro.network.simulator.NetworkSimulator.run_event_loop`) is its
    seed-for-seed oracle, which the CI contention smoke pins.
    """
    simulator = _contention_simulator(params, seed)
    result = simulator.run(
        max_time_s=float(params["max_days"]) * 86_400.0,
        stop_at_first_death=bool(params.get("stop_at_first_death", True)),
    )
    return _contention_metrics(result)


def _network_pdr_trial(params: Mapping[str, Any], seed: int) -> dict[str, Any]:
    """Delivery ratio at one deployment density (fixed area, varying nodes).

    Runs the full horizon without stopping at deaths (the battery is sized so
    none occur) and reports the per-receiver contention exposure alongside
    the delivery ratio: as density rises, mean degree rises and PDR falls.
    """
    simulator = _contention_simulator(params, seed)
    degrees = [len(neighbours) for neighbours in simulator.graph.values()]
    result = simulator.run(
        max_time_s=float(params["max_days"]) * 86_400.0,
        stop_at_first_death=False,
    )
    metrics = _contention_metrics(result)
    metrics["mean_degree"] = float(sum(degrees)) / len(degrees)
    return metrics


# --------------------------------------------------------------------------- #
# built-in scenario definitions
# --------------------------------------------------------------------------- #
register(Scenario(
    name="modem-ser-vs-snr",
    description="DS-SS vs FSK symbol error rate over an SNR sweep (experiment E7)",
    layers=("modem", "channel", "dsp"),
    version="2",
    run_trial=_modem_ser_trial,
    default_spec=SweepSpec(
        scenario="modem-ser-vs-snr",
        grid={"scheme": ("DSSS", "FSK"), "snr_db": (-6.0, -3.0, 0.0, 3.0, 6.0)},
        base={"num_symbols": 48, "num_frames": 4, "num_channel_paths": 4},
        # seeds paired across scheme and SNR (common random numbers): both
        # schemes see the same channels, so the comparison is head-to-head
        seed=SeedPolicy(base_seed=0, replicates=2),
    ),
))

register(Scenario(
    name="fixedpoint-bitwidth",
    description="fixed-point MP channel-estimation accuracy vs word length (experiment E6)",
    layers=("fixedpoint", "core"),
    version="3",
    run_trial=_fixedpoint_bitwidth_trial,
    run_batch=_fixedpoint_bitwidth_batch,
    default_spec=SweepSpec(
        scenario="fixedpoint-bitwidth",
        grid={"word_length": (4, 6, 8, 10, 12, 16)},
        base={
            "snr_db": 25.0, "num_channel_paths": 4,
            "walsh_symbols": 8, "spreading_chips": 7, "samples_per_chip": 2,
            "num_paths": 6,
        },
        # paired: every word length estimates the same channels
        seed=SeedPolicy(base_seed=0, replicates=12),
    ),
))

register(Scenario(
    name="ipcore-parallelism",
    description="IP-core accuracy and cycle cost over parallelism and word length (Figure 5 / Table 2)",
    layers=("core", "fixedpoint", "hardware"),
    version="2",
    run_trial=_ipcore_parallelism_trial,
    run_batch=_ipcore_parallelism_batch,
    default_spec=SweepSpec(
        scenario="ipcore-parallelism",
        grid={
            # the Table 2 parallelism levels; --set sweeps any divisor of 112
            "num_fc_blocks": (1, 14, 112),
            "word_length": (8, 12, 16),
        },
        base={
            "snr_db": 25.0, "num_channel_paths": 4,
            "walsh_symbols": 8, "spreading_chips": 7, "samples_per_chip": 2,
            "num_paths": 6,
        },
        # paired: every design point estimates the same channels
        seed=SeedPolicy(base_seed=0, replicates=4),
    ),
))

register(Scenario(
    name="platform-energy",
    description="per-estimation and per-packet energy of each processing platform (Table 3)",
    layers=("hardware",),
    version="1",
    run_trial=_platform_energy_trial,
    default_spec=SweepSpec(
        scenario="platform-energy",
        grid={"platform": tuple(TABLE3_PLATFORM_ENERGIES_UJ)},
        base={"num_paths": 6, "packet_symbols": 32},
        seed=SeedPolicy(base_seed=0, replicates=1),
    ),
))

register(Scenario(
    name="mp-refinement",
    description="greedy vs LS-refined Matching Pursuits quality over Nf (refinement study)",
    layers=("core", "channel"),
    version="1",
    run_trial=_mp_refinement_trial,
    default_spec=SweepSpec(
        scenario="mp-refinement",
        grid={"num_paths": (2, 4, 6, 8), "estimator": ("greedy", "ls")},
        base={
            "snr_db": 15.0, "num_channel_paths": 4,
            "walsh_symbols": 8, "spreading_chips": 7, "samples_per_chip": 2,
        },
        seed=SeedPolicy(base_seed=0, replicates=6),
    ),
))

register(Scenario(
    name="network-lifetime",
    description="deployment lifetime by platform over topology and report interval (experiment E9)",
    layers=("network", "modem"),
    version="3",
    run_trial=_network_lifetime_trial,
    default_spec=SweepSpec(
        scenario="network-lifetime",
        grid={
            "report_interval_s": (60.0, 120.0, 300.0),
            # grid lattice vs uniform random scatter over the same area
            "topology": ("grid", "random"),
        },
        zipped={
            "platform": tuple(TABLE3_PLATFORM_ENERGIES_UJ),
            "energy_uj": tuple(TABLE3_PLATFORM_ENERGIES_UJ.values()),
        },
        base={
            "grid_rows": 5, "grid_cols": 5, "spacing_m": 200.0,
            "communication_range_m": 300.0, "battery_capacity_j": 200_000.0,
            "packet_symbols": 32, "continuous_detection": True,
            # topology_seed=1 keeps the default random scatter connected
            "topology_seed": 1,
        },
        seed=SeedPolicy(base_seed=0, replicates=1),
    ),
))

register(Scenario(
    name="network-contention",
    description="deployment lifetime and delivery ratio under the contention CSMA MAC",
    layers=("network", "modem"),
    version="2",
    run_trial=_network_contention_trial,
    default_spec=SweepSpec(
        scenario="network-contention",
        grid={
            "protocol": ("routed", "flooding"),
            "channel_load": (0.1, 0.3),
        },
        base={
            "num_nodes": 25, "area_side_m": 800.0, "topology": "grid",
            "communication_range_m": 300.0, "battery_capacity_j": 200.0,
            "report_interval_s": 30.0, "packet_symbols": 16,
            "energy_uj": 500.76, "max_attempts": 5, "capture_probability": 0.0,
            "ttl": 4, "drift_speed_mps": 0.0, "drift_epoch_s": 21_600.0,
            "max_days": 1.0, "topology_seed": 1,
        },
        seed=SeedPolicy(base_seed=0, replicates=2),
    ),
))

register(Scenario(
    name="network-pdr-vs-density",
    description="packet delivery ratio vs deployment density under contention (fixed area)",
    layers=("network",),
    version="2",
    run_trial=_network_pdr_trial,
    default_spec=SweepSpec(
        scenario="network-pdr-vs-density",
        # same square area throughout: more nodes = denser = more contenders
        grid={"num_nodes": (9, 16, 25, 36)},
        base={
            "area_side_m": 600.0, "topology": "grid",
            "communication_range_m": 300.0, "battery_capacity_j": 50_000.0,
            "report_interval_s": 60.0, "packet_symbols": 16,
            "energy_uj": 500.76, "channel_load": 0.1, "max_attempts": 5,
            "capture_probability": 0.0, "protocol": "routed", "ttl": 4,
            "drift_speed_mps": 0.0, "drift_epoch_s": 21_600.0,
            "max_days": 0.05, "topology_seed": 1,
        },
        seed=SeedPolicy(base_seed=0, replicates=3),
    ),
))

"""Command-line interface: regenerate the paper's experiments from a shell.

Usage (after ``pip install -e .``)::

    python -m repro table1          # Table 1  — AquaModem design parameters
    python -m repro table2          # Table 2  — area / timing / throughput DSE
    python -m repro figure6         # Figure 6 — power / energy DSE
    python -m repro table3          # Table 3  — platform comparison (210X / 52X)
    python -m repro report          # all of the above, paper vs measured
    python -m repro bitwidth        # E6 ablation — accuracy vs word length
    python -m repro lifetime        # E9 extension — network lifetime by platform
    python -m repro estimate        # run one MP estimation on a random channel
    python -m repro ipcore          # IP-core cycle cost vs accuracy (--parallelism)
    python -m repro ser             # E7 — DS-SS vs FSK SER sweep
    python -m repro scenarios       # list the sweepable experiment scenarios
    python -m repro sweep <name>    # run a scenario sweep (parallel + cached)
    python -m repro trace <file>    # summarise a sweep's trace JSONL
    python -m repro serve           # run the sweep service daemon (HTTP/JSON)
    python -m repro submit <name>   # submit a sweep to a running daemon
    python -m repro ingest <path>   # index result/cache artifacts into the warehouse
    python -m repro query           # list/filter warehouse runs and trial records
    python -m repro compare A B     # diff two runs' metrics (regression report)

Every command prints plain text to stdout; ``--num-paths`` changes the MP
workload (Nf) where applicable.  ``sweep`` accepts ``--set axis=v1,v2,...``
to override any parameter axis, ``--jobs N`` for a worker pool, and writes
tidy JSONL/CSV results plus a manifest to ``--output`` — plus ``--progress``
heartbeats on stderr and a ``--trace`` span export readable by ``repro
trace``.  The global ``--verbose``/``--quiet`` flags control the stdlib
:mod:`logging` diagnostics every layer emits through named loggers.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys
from typing import Callable, Sequence

# Only the standard library and the table renderer load at import time: each
# handler imports the layers it runs, so `repro scenarios` or a hardware-only
# sweep never pays for numpy, scipy or networkx it does not use.
from repro.utils.tables import format_table

__all__ = ["build_parser", "main"]


def _int_at_least(minimum: int) -> Callable[[str], int]:
    """An argparse type: an int of at least ``minimum`` (else a usage error, exit 2)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return parse


#: ``--jobs``/``--max-workers``: a pool needs at least one worker.
_positive_int = _int_at_least(1)
#: ``--grid``: a deployment needs a sink plus at least one sensor.
_grid_side = _int_at_least(2)


def _finite_float(text: str) -> float:
    """An argparse type: a finite float (``nan``/``inf`` are usage errors, exit 2)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _finite_float_list(text: str) -> tuple[float, ...]:
    """An argparse type: comma-separated finite floats (``ser --snr-db``)."""
    return tuple(_finite_float(token) for token in text.split(","))


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed for testing and documentation)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the experiments of 'Energy Benefits of Reconfigurable "
        "Hardware for Use in Underwater Sensor Nets' (Benson et al., 2009).",
    )
    parser.add_argument(
        "--num-paths", type=int, default=6,
        help="number of Matching Pursuits iterations Nf (default: 6)",
    )
    verbosity = parser.add_mutually_exclusive_group()
    verbosity.add_argument(
        "--verbose", "-v", action="store_true",
        help="emit DEBUG-level diagnostics from the repro loggers on stderr",
    )
    verbosity.add_argument(
        "--quiet", "-q", action="store_true",
        help="silence everything below ERROR on the repro loggers",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("table1", "AquaModem design parameters (Table 1)"),
        ("table2", "area / timing / throughput design-space exploration (Table 2)"),
        ("figure6", "power / energy design-space exploration (Figure 6)"),
        ("table3", "platform comparison and the 210X / 52X headline (Table 3)"),
        ("report", "full paper-vs-measured report"),
    ):
        subparsers.add_parser(name, help=help_text)

    bitwidth = subparsers.add_parser("bitwidth", help="fixed-point accuracy ablation (E6)")
    bitwidth.add_argument("--trials", type=int, default=12, help="Monte-Carlo trials per word length")
    bitwidth.add_argument("--snr-db", type=_finite_float, default=25.0, help="per-sample SNR")
    bitwidth.add_argument("--jobs", type=_positive_int, default=1,
                          help="worker processes for the sweep")

    lifetime = subparsers.add_parser("lifetime", help="network lifetime by platform (E9)")
    lifetime.add_argument("--grid", type=_grid_side, default=5,
                          help="grid side length, at least 2 (grid x grid nodes)")
    lifetime.add_argument("--battery-kj", type=float, default=200.0, help="battery capacity in kJ")
    lifetime.add_argument("--report-interval-s", type=float, default=120.0,
                          help="sensing report interval per node")
    lifetime.add_argument("--jobs", type=_positive_int, default=1,
                          help="worker processes for the sweep (analytical or --trials)")
    lifetime.add_argument(
        "--trials", type=int, default=0,
        help="run this many Monte-Carlo trials per platform as a network-contention "
        "sweep on the packet-level simulator (0 = the analytical estimate, the default)",
    )
    lifetime.add_argument("--seed", type=int, default=0,
                          help="base seed of the --trials sweep's seed policy")
    lifetime.add_argument(
        "--topology", choices=("grid", "random"), default="grid",
        help="deployment geometry (applies to both the analytical estimate "
        "and --trials simulation)",
    )
    lifetime.add_argument(
        "--mac", choices=("none", "csma"), default="none",
        help="MAC model for --trials: 'csma' draws per-packet contention "
        "(collisions, bounded retries); 'none' is the contention-free default",
    )
    lifetime.add_argument("--channel-load", type=float, default=0.1,
                          help="per-contender channel occupancy for --mac csma")
    lifetime.add_argument("--max-attempts", type=int, default=5,
                          help="per-hop retry cap for --mac csma")
    lifetime.add_argument("--capture", type=float, default=0.0,
                          help="capture probability of a collided attempt for --mac csma")
    lifetime.add_argument(
        "--protocol", choices=("routed", "flooding"), default="routed",
        help="packet forwarding for --trials: shortest-path unicast or "
        "TTL-bounded flooding",
    )
    lifetime.add_argument("--ttl", type=int, default=4,
                          help="hop budget for --protocol flooding")
    lifetime.add_argument(
        "--drift-speed", type=float, default=0.0,
        help="node drift speed in m/s for --trials (0 = static deployment); "
        "topology and routes are rebuilt once per drift epoch",
    )
    lifetime.add_argument("--drift-epoch-s", type=float, default=21_600.0,
                          help="topology refresh period for --drift-speed")

    ipcore = subparsers.add_parser(
        "ipcore",
        help="Filter-and-Cancel IP-core study: cycle cost vs accuracy (Figure 5)",
    )
    ipcore.add_argument(
        "--parallelism", action="store_true",
        help="sweep every conformance parallelism level 1/2/4/8/14/28/56/112 "
        "(default: the Table 2 levels 1/14/112)",
    )
    ipcore.add_argument("--word-length", type=int, default=8, help="datapath width in bits")
    ipcore.add_argument("--trials", type=int, default=8, help="Monte-Carlo trials per level")
    ipcore.add_argument("--snr-db", type=_finite_float, default=25.0, help="per-sample SNR")
    ipcore.add_argument("--seed", type=int, default=0, help="base seed for channels/noise")

    ser = subparsers.add_parser("ser", help="DS-SS vs FSK symbol error rate sweep (E7)")
    ser.add_argument(
        "--snr-db", type=_finite_float_list, default="-9,-6,-3,0,3", metavar="V1,V2,...",
        help="comma-separated SNR points in dB (default: -9,-6,-3,0,3); "
        "write lists starting with a negative value as --snr-db=-12,-9,...",
    )
    ser.add_argument("--symbols", type=int, default=120, help="symbols per scheme per SNR point")
    ser.add_argument("--frames", type=int, default=10, help="frames per SNR point")
    ser.add_argument("--seed", type=int, default=0, help="base seed for channels/symbols/noise")

    subparsers.add_parser(
        "scenarios", help="list the sweepable experiment scenarios and their axes"
    )

    sweep = subparsers.add_parser(
        "sweep", help="run a declarative scenario sweep (parallel execution + result cache)"
    )
    sweep.add_argument("scenario", help="scenario name (see 'repro scenarios')")
    sweep.add_argument(
        "--set", dest="overrides", action="append", default=[], metavar="AXIS=V1,V2,...",
        help="override a parameter axis (repeatable); one value pins it, several sweep "
        "it; on a zipped axis the values select rows (pairing kept)",
    )
    sweep.add_argument("--jobs", type=_positive_int, default=1,
                       help="worker processes (default: serial)")
    sweep.add_argument("--replicates", type=int, default=None,
                       help="override the scenario's replicate count")
    sweep.add_argument("--seed", type=int, default=None, help="override the base seed")
    sweep.add_argument("--cache-dir", default=".repro_cache",
                       help="result cache directory (default: .repro_cache)")
    sweep.add_argument("--no-cache", action="store_true", help="disable the result cache")
    sweep.add_argument("--output", default=None,
                       help="results directory (default: results/sweeps/<scenario>)")
    sweep.add_argument(
        "--trace", action="store_true",
        help="record tracing spans for the run and write them as trace.jsonl "
        "next to the results (inspect with 'repro trace')",
    )
    sweep.add_argument(
        "--progress", action="store_true",
        help="print live progress heartbeats (completed/total, trials/s, cache "
        "hit rate, ETA) on stderr while the sweep runs",
    )
    sweep.add_argument(
        "--progress-interval", type=float, default=0.5, metavar="SECONDS",
        help="minimum seconds between intermediate --progress heartbeats "
        "(default: 0.5; first and final updates always print)",
    )
    adaptive = sweep.add_argument_group(
        "adaptive sampling",
        "sequential stopping: grow the sweep in waves of replicates and stop "
        "each parameter point once the confidence interval on --metric is "
        "tighter than --ci-width (results stream to segments/ and merge at "
        "the end, so trial counts can exceed memory)",
    )
    adaptive.add_argument("--adaptive", action="store_true",
                          help="enable sequential stopping (--replicates is ignored)")
    adaptive.add_argument("--metric", default="symbol_error_rate",
                          help="binomial record metric the stopping rule gates on "
                          "(default: symbol_error_rate)")
    adaptive.add_argument("--ci-width", type=float, default=0.01, metavar="W",
                          help="stop a point once its CI half-width is <= W "
                          "(default: 0.01)")
    adaptive.add_argument("--confidence", type=float, default=0.95,
                          help="confidence level of the stopping interval "
                          "(default: 0.95)")
    adaptive.add_argument("--ci-method", choices=("wilson", "clopper-pearson"),
                          default="wilson",
                          help="interval method (default: wilson; clopper-pearson "
                          "is exact/conservative)")
    adaptive.add_argument("--max-trials", type=int, default=256, metavar="N",
                          help="hard per-point replicate ceiling (default: 256)")
    adaptive.add_argument("--min-trials", type=int, default=4, metavar="N",
                          help="replicates every point runs before it may stop "
                          "(default: 4)")
    adaptive.add_argument("--wave", type=int, default=8, metavar="N", dest="wave_trials",
                          help="replicates each wave adds per active point "
                          "(default: 8)")

    serve = subparsers.add_parser(
        "serve", help="run the sweep service: a daemon with an HTTP/JSON job API"
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8765,
                       help="bind port (default: 8765; 0 picks an ephemeral port)")
    serve.add_argument("--data-dir", default="results/service",
                       help="per-job results directory (default: results/service)")
    serve.add_argument("--cache-dir", default=".repro_cache",
                       help="shared trial cache directory (default: .repro_cache)")
    serve.add_argument("--no-cache", action="store_true",
                       help="run without the shared result cache")
    serve.add_argument("--max-workers", type=_positive_int, default=2,
                       help="concurrent sweep jobs (default: 2)")
    serve.add_argument(
        "--warehouse", default=None, metavar="DB",
        help="warehouse SQLite file completed jobs are auto-ingested into, "
        "serving GET /api/v1/runs (default: <data-dir>/warehouse.sqlite)",
    )
    serve.add_argument("--no-warehouse", action="store_true",
                       help="disable job auto-ingestion and the /api/v1/runs endpoint")

    submit = subparsers.add_parser(
        "submit", help="submit a scenario sweep to a running 'repro serve' daemon"
    )
    submit.add_argument("scenario", help="scenario name (see 'repro scenarios')")
    submit.add_argument(
        "--set", dest="overrides", action="append", default=[], metavar="AXIS=V1,V2,...",
        help="override a parameter axis (same semantics as 'repro sweep --set')",
    )
    submit.add_argument("--replicates", type=int, default=None,
                        help="override the scenario's replicate count")
    submit.add_argument("--seed", type=int, default=None, help="override the base seed")
    submit.add_argument("--url", default="http://127.0.0.1:8765",
                        help="daemon base URL (default: http://127.0.0.1:8765)")
    submit.add_argument("--jobs", type=_positive_int, default=1,
                        help="worker processes the daemon uses for this sweep")
    submit.add_argument("--no-cache-job", action="store_true",
                        help="ask the daemon to bypass its shared cache for this job")
    submit.add_argument("--trace-job", action="store_true",
                        help="ask the daemon to record a per-job trace.jsonl")
    submit.add_argument("--adaptive", action="store_true",
                        help="run the job with sequential stopping (see "
                        "'repro sweep' adaptive options)")
    submit.add_argument("--metric", default="symbol_error_rate",
                        help="binomial metric the adaptive rule gates on "
                        "(default: symbol_error_rate)")
    submit.add_argument("--ci-width", type=float, default=0.01, metavar="W",
                        help="adaptive CI half-width target (default: 0.01)")
    submit.add_argument("--confidence", type=float, default=0.95,
                        help="adaptive confidence level (default: 0.95)")
    submit.add_argument("--ci-method", choices=("wilson", "clopper-pearson"),
                        default="wilson", help="adaptive interval method")
    submit.add_argument("--max-trials", type=int, default=256, metavar="N",
                        help="adaptive per-point replicate ceiling (default: 256)")
    submit.add_argument("--min-trials", type=int, default=4, metavar="N",
                        help="adaptive minimum replicates per point (default: 4)")
    submit.add_argument("--wave", type=int, default=8, metavar="N", dest="wave_trials",
                        help="adaptive replicates added per wave (default: 8)")
    submit.add_argument(
        "--watch", action="store_true",
        help="poll the job to completion, printing progress heartbeats on stderr",
    )
    submit.add_argument("--timeout", type=float, default=600.0, metavar="SECONDS",
                        help="--watch polling timeout (default: 600)")

    trace = subparsers.add_parser(
        "trace", help="summarise a trace JSONL written by 'repro sweep --trace'"
    )
    trace.add_argument("file", help="path to a trace.jsonl file")
    trace.add_argument("--slowest", type=int, default=5, metavar="N",
                       help="number of slowest trial spans to list (default: 5)")
    trace.add_argument(
        "--check", action="store_true",
        help="validate the span records against the trace schema (and, when a "
        "sibling manifest.json exists, cross-check the trial span count "
        "against the recorded sweep stats); exit non-zero on any problem",
    )

    ingest = subparsers.add_parser(
        "ingest",
        help="index sweep results, service job artifacts and trial caches "
        "into the result warehouse",
    )
    ingest.add_argument(
        "paths", nargs="+", metavar="PATH",
        help="directories to scan: ResultStore outputs, 'repro serve' data "
        "dirs, and/or trial cache dirs (auto-detected, recursively)",
    )
    ingest.add_argument("--db", default="results/warehouse.sqlite",
                        help="warehouse SQLite file (default: results/warehouse.sqlite)")

    query = subparsers.add_parser(
        "query", help="query the result warehouse: runs (default) or trial records"
    )
    query.add_argument("--db", default="results/warehouse.sqlite",
                       help="warehouse SQLite file (default: results/warehouse.sqlite)")
    query.add_argument("--scenario", default=None, help="filter by scenario name")
    query.add_argument("--version", default=None, dest="scenario_version",
                       help="filter by scenario version")
    query.add_argument("--source", default=None, choices=("store", "service", "cache"),
                       help="filter by artifact source kind")
    query.add_argument("--since", default=None, metavar="ISO",
                       help="only runs ingested at or after this ISO date/time")
    query.add_argument("--until", default=None, metavar="ISO",
                       help="only runs ingested at or before this ISO date/time")
    query.add_argument(
        "--where", action="append", default=[], metavar="PARAM<OP>VALUE",
        help="trial-parameter predicate, repeatable (ops: = != < <= > >=); "
        "e.g. --where snr_db>=-3 --where scheme=DSSS",
    )
    query.add_argument("--trials", action="store_true",
                       help="print the matching trial records instead of the runs")
    query.add_argument("--limit", type=int, default=None,
                       help="maximum trial records to print (with --trials)")
    query.add_argument("--format", choices=("table", "csv", "json"), default="table",
                       help="output format (default: table)")

    compare = subparsers.add_parser(
        "compare",
        help="diff two warehouse runs' metrics with regression highlighting",
    )
    compare.add_argument(
        "run_a", help="baseline run: an id from 'repro query', or 'latest'/'prev' "
        "(scoped by --scenario)",
    )
    compare.add_argument("run_b", help="candidate run (same forms as run_a)")
    compare.add_argument("--db", default="results/warehouse.sqlite",
                         help="warehouse SQLite file (default: results/warehouse.sqlite)")
    compare.add_argument("--scenario", default=None,
                         help="scenario scope for 'latest'/'prev' references")
    compare.add_argument(
        "--metric", action="append", default=[], metavar="NAME",
        help="metric to diff, repeatable (default: every numeric metric both runs share)",
    )
    compare.add_argument(
        "--by", default=None, metavar="AXIS",
        help="parameter axis to group by — diffs the metric curve point by point "
        "(e.g. --by snr_db for SER-vs-SNR)",
    )
    compare.add_argument("--threshold", type=float, default=10.0, metavar="PCT",
                         help="relative change (percent) beyond which a diff is "
                         "flagged (default: 10)")
    compare.add_argument(
        "--higher-is-better", action="store_true",
        help="treat increases as improvements (lifetime, delivery ratio); "
        "the default flags increases as regressions (error rates)",
    )
    compare.add_argument("--format", choices=("table", "json"), default="table",
                         help="output format (default: table)")
    compare.add_argument("--fail-on-regression", action="store_true",
                         help="exit non-zero when any diff is classified a regression")

    estimate = subparsers.add_parser("estimate", help="run one MP channel estimation")
    estimate.add_argument("--seed", type=int, default=0, help="channel / noise seed")
    estimate.add_argument("--snr-db", type=_finite_float, default=20.0, help="per-sample SNR")
    estimate.add_argument("--channel-paths", type=int, default=4, help="true number of paths")

    export = subparsers.add_parser(
        "export", help="write every regenerated table/figure as CSV plus a JSON summary"
    )
    export.add_argument("--output-dir", default="results", help="directory for the CSV/JSON files")

    return parser


def _run_estimate(args: argparse.Namespace) -> str:
    from repro.analysis.ablations import aquamodem_signal_matrices
    from repro.channel.multipath import random_sparse_channel
    from repro.channel.simulator import add_noise_for_snr
    from repro.core.matching_pursuit import matching_pursuit
    from repro.modem.config import AquaModemConfig

    config = AquaModemConfig(num_paths=args.num_paths)
    matrices = aquamodem_signal_matrices(config)
    channel = random_sparse_channel(
        num_paths=args.channel_paths,
        max_delay=config.multipath_spread_samples,
        rng=args.seed,
        min_separation=4,
    )
    received = add_noise_for_snr(
        matrices.synthesize(channel.coefficient_vector(matrices.num_delays)),
        args.snr_db,
        rng=args.seed + 1,
    )
    result = matching_pursuit(received, matrices, num_paths=args.num_paths)
    lines = [
        "True channel taps (delay, |gain|): "
        + str([(int(d), round(float(abs(g)), 3)) for d, g in zip(channel.delays, channel.gains)]),
        "Estimated taps   (delay, |gain|): "
        + str([(int(d), round(float(abs(g)), 3)) for d, g in result.as_delay_gain_pairs()]),
    ]
    return "\n".join(lines)


def _run_bitwidth(args: argparse.Namespace) -> str:
    from repro.analysis.ablations import bitwidth_accuracy_ablation

    results = bitwidth_accuracy_ablation(
        word_lengths=(4, 6, 8, 10, 12, 16),
        num_trials=args.trials,
        snr_db=args.snr_db,
        rng=0,
        jobs=args.jobs,
    )
    return format_table(
        ["Bits", "Error vs truth", "Support recovery", "Error vs float"],
        [
            (r.word_length, r.mean_normalized_error, r.mean_support_recovery, r.mean_error_vs_float)
            for r in results
        ],
        title="Fixed-point MP accuracy vs word length",
    )


def _lifetime_trials_spec(args: argparse.Namespace):
    """The ``network-contention`` sweep behind ``lifetime --trials``.

    Every platform runs on a ``grid`` x ``grid`` deployment with 200 m
    spacing (a random scatter over the same square for ``--topology
    random``), listening continuously, over a 30-day horizon; ``--seed`` and
    ``--trials`` are the sweep's seed policy, so all platforms see the same
    traffic seeds.
    """
    from repro.experiments.registry import TABLE3_PLATFORM_ENERGIES_UJ
    from repro.experiments.spec import SeedPolicy, SweepSpec

    return SweepSpec(
        scenario="network-contention",
        zipped={
            "platform": tuple(TABLE3_PLATFORM_ENERGIES_UJ),
            "energy_uj": tuple(TABLE3_PLATFORM_ENERGIES_UJ.values()),
        },
        base={
            "num_nodes": args.grid * args.grid,
            "area_side_m": 200.0 * (args.grid - 1),
            "topology": args.topology, "topology_seed": 1,
            "communication_range_m": 300.0,
            "battery_capacity_j": args.battery_kj * 1e3,
            "report_interval_s": args.report_interval_s, "packet_symbols": 32,
            "continuous_detection": True,
            "mac": args.mac, "channel_load": args.channel_load,
            "max_attempts": args.max_attempts, "capture_probability": args.capture,
            "protocol": args.protocol, "ttl": args.ttl,
            "drift_speed_mps": args.drift_speed, "drift_epoch_s": args.drift_epoch_s,
            "max_days": 30.0,
        },
        seed=SeedPolicy(base_seed=args.seed, replicates=args.trials),
    )


def _lifetime_trials_table(result) -> str:
    """Per-platform means of a ``lifetime --trials`` sweep, as a table.

    Censored lifetimes (no death within the horizon) and zero-packet delivery
    ratios are ``None`` in the records, which ``group_mean`` skips; a
    platform with no death is reported as ``> horizon``, never as a zero
    lifetime, and sorts last.
    """
    from collections import Counter

    spec = result.spec
    trials = spec.seed.replicates
    lifetimes = result.group_mean(by="platform", metric="lifetime_days")
    ratios = result.group_mean(by="platform", metric="delivery_ratio")
    died = Counter(
        record["platform"] for record in result.records
        if record["lifetime_days"] is not None
    )
    platforms = sorted(
        spec.zipped["platform"],
        key=lambda name: (name not in lifetimes, lifetimes.get(name, 0.0)),
    )
    return format_table(
        ["Platform", "Mean lifetime (days)", "Died/trials", "Delivery ratio"],
        [
            (
                platform,
                round(lifetimes[platform], 2) if platform in lifetimes else "> horizon",
                f"{died[platform]}/{trials}",
                round(ratios.get(platform, float("nan")), 4),
            )
            for platform in platforms
        ],
        title=f"{spec.base['num_nodes']}-node simulated deployment lifetime "
        f"({spec.base['topology']} topology, {trials} trials)",
    )


def _run_lifetime(args: argparse.Namespace) -> str:
    if args.trials > 0:
        from repro.experiments.runner import run_sweep

        spec = _lifetime_trials_spec(args)
        return _lifetime_trials_table(run_sweep(spec, jobs=args.jobs))
    from repro.analysis.ablations import network_lifetime_study

    lifetimes = network_lifetime_study(
        grid_size=(args.grid, args.grid),
        battery_capacity_j=args.battery_kj * 1e3,
        report_interval_s=args.report_interval_s,
        jobs=args.jobs,
        topology=args.topology,
    )
    return format_table(
        ["Platform", "Deployment lifetime (days)"],
        sorted(lifetimes.items(), key=lambda kv: kv[1]),
        title=f"{args.grid * args.grid}-node deployment lifetime by platform "
        f"({args.topology} topology)",
    )


def _run_ipcore(args: argparse.Namespace) -> str:
    from repro.analysis.ablations import ipcore_parallelism_study

    levels = (1, 2, 4, 8, 14, 28, 56, 112) if args.parallelism else (1, 14, 112)
    results = ipcore_parallelism_study(
        parallelism_levels=levels,
        word_length=args.word_length,
        num_trials=args.trials,
        snr_db=args.snr_db,
        rng=args.seed,
    )
    table = format_table(
        ["P", "Cycles", "MF cycles", "Iter cycles", "Time (us)",
         "Error vs truth", "Support recovery", "Error vs float"],
        [
            (
                r.num_fc_blocks, r.total_cycles, r.matched_filter_cycles,
                r.iteration_cycles, round(r.execution_time_us, 2),
                round(r.mean_normalized_error, 4), round(r.mean_support_recovery, 4),
                round(r.mean_error_vs_float, 6),
            )
            for r in results
        ],
        title=f"IP core — cycle cost vs accuracy at {args.word_length} bits",
    )
    return (
        f"{table}\n"
        "estimates are bit-identical at every P (cross-P conformance asserted "
        "on the raw integer codes); only the schedule changes"
    )


def _run_ser(args: argparse.Namespace) -> str:
    import time

    from repro.analysis.ablations import dsss_vs_fsk_ablation

    start = time.perf_counter()
    curves = dsss_vs_fsk_ablation(
        snr_points_db=args.snr_db,
        num_symbols=args.symbols,
        rng=args.seed,
        num_frames=args.frames,
    )
    elapsed = time.perf_counter() - start
    table = format_table(
        ["SNR (dB)", "DS-SS SER", "FSK SER"],
        [
            (d.snr_db, round(d.symbol_error_rate, 4), round(f.symbol_error_rate, 4))
            for d, f in zip(curves["DSSS"], curves["FSK"])
        ],
        title="E7 — symbol error rate, DS-SS vs FSK",
    )
    return f"{table}\nelapsed: {elapsed:.3f}s"


def _parse_axis_value(token: str) -> int | float | str | bool:
    """Parse one ``--set`` value: int, then float, then bool, then string."""
    for parser in (int, float):
        try:
            return parser(token)
        except ValueError:
            pass
    if token.lower() in ("true", "false"):
        return token.lower() == "true"
    return token


def _parse_set_option(option: str) -> tuple[str, tuple]:
    """Split one ``--set axis=v1,v2,...`` option into (axis, values)."""
    name, separator, values = option.partition("=")
    if not separator or not name or not values:
        raise ValueError(f"--set expects AXIS=V1,V2,..., got {option!r}")
    return name, tuple(_parse_axis_value(token) for token in values.split(","))


def _run_scenarios(args: argparse.Namespace) -> str:
    from repro.experiments import list_scenarios

    rows = []
    for scenario in list_scenarios():
        spec = scenario.spec
        axes = ", ".join(
            f"{name}[{len(values)}]"
            for name, values in {**spec.grid, **spec.zipped}.items()
        )
        rows.append((scenario.name, "/".join(scenario.layers), spec.num_trials, axes,
                     scenario.description))
    return format_table(
        ["Scenario", "Layers", "Trials", "Axes", "Description"],
        rows,
        title="Sweepable experiment scenarios (run with 'repro sweep <name>')",
    )


def _resolve_spec(args: argparse.Namespace):
    """Resolve a scenario name + --set/--seed/--replicates flags into a spec.

    Shared by ``repro sweep`` (runs it in-process) and ``repro submit``
    (ships it to a daemon); every user error becomes a clean ``SystemExit``.
    """
    from repro.experiments import get_scenario

    try:
        scenario = get_scenario(args.scenario)
    except KeyError as error:
        raise SystemExit(error.args[0]) from None

    spec = scenario.spec
    try:
        for option in args.overrides:
            name, values = _parse_set_option(option)
            known = set(spec.grid) | set(spec.zipped) | set(spec.base)
            if name not in known:
                raise ValueError(
                    f"unknown axis {name!r} for scenario {scenario.name!r}; "
                    f"known parameters: {', '.join(sorted(known))}"
                )
            if name in spec.zipped:
                # zipped axes are paired data: select rows, keep the pairing
                spec = spec.select_zipped(name, values)
            else:
                spec = spec.with_axis(name, values)
        if args.seed is not None or args.replicates is not None:
            spec = spec.with_seed(base_seed=args.seed, replicates=args.replicates)
    except ValueError as error:
        raise SystemExit(f"error: {error}") from None
    return scenario, spec


def _adaptive_config(args: argparse.Namespace):
    """Build the sequential-stopping rule from the adaptive CLI flags."""
    from repro.experiments import AdaptiveConfig

    try:
        return AdaptiveConfig(
            metric=args.metric,
            ci_width=args.ci_width,
            max_trials=args.max_trials,
            confidence=args.confidence,
            method=args.ci_method,
            min_trials=args.min_trials,
            wave_trials=args.wave_trials,
        )
    except ValueError as error:
        raise SystemExit(f"error: {error}") from None


def _run_sweep(args: argparse.Namespace) -> str:
    from repro.experiments import ResultCache, ResultStore, run_sweep
    from repro.experiments.store import tidy_headers
    from repro.telemetry import progress_printer, start_trace, write_trace

    scenario, spec = _resolve_spec(args)

    cache = None if args.no_cache else ResultCache(args.cache_dir)
    progress = progress_printer(sys.stderr) if args.progress else None

    output_dir = args.output if args.output else f"results/sweeps/{scenario.name}"

    def _execute():
        if args.adaptive:
            # the adaptive machinery (and its interval maths) loads only here
            from repro.experiments import (
                SegmentedResultStore,
                run_adaptive_sweep,
                run_fingerprint,
            )

            config = _adaptive_config(args)
            try:
                # the fingerprint refuses an output dir whose leftover
                # segments came from a different spec/config/version
                store = SegmentedResultStore(output_dir, fingerprint=run_fingerprint(
                    spec=spec.to_dict(),
                    adaptive=config.to_dict(),
                    scenario={"name": scenario.name, "version": scenario.version},
                ))
                result = run_adaptive_sweep(
                    spec, config, jobs=args.jobs, cache=cache,
                    progress=progress, progress_interval_s=args.progress_interval,
                    store=store,
                )
            except ValueError as error:
                raise SystemExit(f"error: {error}") from None
            # merged artefacts are byte-compatible with a ResultStore.write of
            # the same records, and the segments stay behind for resume/audit
            written = store.merge(spec=spec.to_dict(), stats=result.stats_payload())
            return result, store, written
        result = run_sweep(
            spec, jobs=args.jobs, cache=cache,
            progress=progress, progress_interval_s=args.progress_interval,
        )
        written = ResultStore(output_dir).write(
            result.records, spec=spec.to_dict(), stats=result.stats.to_dict()
        )
        return result, None, written

    if args.trace:
        # the artefact write runs inside the trace, so it gets its own span
        with start_trace() as tracer:
            result, store, written = _execute()
        written["trace"] = str(write_trace(
            os.path.join(output_dir, "trace.jsonl"), tracer.records
        ))
    else:
        result, store, written = _execute()
    stats = result.stats

    headers = tidy_headers(result.records)
    preview_limit = 12
    preview = format_table(
        headers,
        [[record.get(column, "") for column in headers]
         for record in result.records[:preview_limit]],
        title=f"{scenario.name} — first {min(preview_limit, len(result.records))} "
        f"of {len(result.records)} records",
    )
    lines = [
        preview,
        "",
        f"trials: {stats.num_trials}  executed: {stats.executed}  "
        f"cache hits: {stats.cache_hits} ({stats.cache_hit_rate:.0%})  "
        f"jobs: {stats.jobs}  elapsed: {stats.elapsed_s:.2f}s  "
        f"({stats.trials_per_second:.1f} trials/s)",
    ]
    if args.adaptive:
        lines.append(
            f"adaptive: {result.points_stopped_early}/{len(result.points)} points "
            f"stopped early in {result.waves} wave(s); realised "
            f"{stats.num_trials}/{result.ceiling_trials} ceiling trials "
            f"(ci_width={result.config.ci_width:g}, {result.config.method} @ "
            f"{result.config.confidence:.0%}, {len(store.segments())} segment(s))"
        )
    lines.extend(f"{name}: {path}" for name, path in sorted(written.items()))
    return "\n".join(lines)


def _run_serve(args: argparse.Namespace) -> str:
    from repro.experiments import ResultCache
    from repro.service import JobQueue, make_server, serve
    from repro.warehouse import Warehouse

    cache = None if args.no_cache else ResultCache(args.cache_dir)
    warehouse = None
    if not args.no_warehouse:
        warehouse = Warehouse(args.warehouse or os.path.join(args.data_dir, "warehouse.sqlite"))
    queue = JobQueue(
        args.data_dir, cache=cache, max_workers=args.max_workers, warehouse=warehouse
    )
    server = make_server(args.host, args.port, queue)
    host, port = server.server_address[0], server.server_address[1]
    print(f"sweep service listening on http://{host}:{port}{'' if cache else ' (cache off)'}",
          flush=True)
    if warehouse is not None:
        print(f"warehouse: {warehouse.path} (query with: repro query --db {warehouse.path})",
              flush=True)
    print(f"submit with: repro submit <scenario> --url http://{host}:{port}", flush=True)
    serve(server, queue)
    return "sweep service stopped"


def _run_submit(args: argparse.Namespace) -> str:
    from repro.service import ServiceError, SweepServiceClient
    from repro.telemetry.progress import ProgressEvent, render_progress

    _, spec = _resolve_spec(args)
    client = SweepServiceClient(args.url)
    adaptive = _adaptive_config(args).to_dict() if args.adaptive else None
    try:
        response = client.submit(
            spec, jobs=args.jobs, cache=not args.no_cache_job,
            trace=args.trace_job, adaptive=adaptive,
        )
    except ServiceError as error:
        raise SystemExit(f"error: {error}") from None
    job = response["job"]
    job_id = job["job_id"]
    lines = [
        f"job: {job_id}  state: {job['state']}  "
        f"trials: {job['num_trials']}"
        + ("  (deduplicated: joined an existing job)" if response["deduplicated"] else ""),
    ]
    if not args.watch:
        lines.append(f"poll with: curl {args.url}/api/v1/jobs/{job_id}")
        return "\n".join(lines)

    def heartbeat(status: dict) -> None:
        progress = status.get("progress")
        if progress:
            event = ProgressEvent(
                completed=progress["completed"], total=progress["total"],
                executed=progress["executed"], cache_hits=progress["cache_hits"],
                elapsed_s=progress["elapsed_s"], final=progress["final"],
            )
            print(render_progress(event), file=sys.stderr, flush=True)

    try:
        status = client.wait(job_id, timeout_s=args.timeout, on_progress=heartbeat)
    except (ServiceError, TimeoutError) as error:
        raise SystemExit(f"error: {error}") from None
    if status["state"] != "done":
        raise SystemExit(f"error: job {job_id} {status['state']}: {status.get('error')}")
    stats = status["stats"] or {}
    records = client.records(job_id)
    lines.append(
        f"done: {records['count']} records  "
        f"executed: {stats.get('executed')}  cache hits: {stats.get('cache_hits')}  "
        f"elapsed: {stats.get('elapsed_s', 0.0):.2f}s"
    )
    lines.extend(
        f"{name}: {path}" for name, path in sorted((status.get("artifacts") or {}).items())
    )
    return "\n".join(lines)


def _parse_when(token: str | None, option: str) -> float | None:
    """Parse an ISO date/time CLI value into POSIX seconds (None passes through)."""
    if token is None:
        return None
    from datetime import datetime

    try:
        return datetime.fromisoformat(token).timestamp()
    except ValueError:
        raise SystemExit(
            f"error: {option} expects an ISO date/time (e.g. 2026-08-01 or "
            f"2026-08-01T12:30), got {token!r}"
        ) from None


def _warehouse_filters(expressions: Sequence[str]):
    """Parse every ``--where`` expression, mapping bad syntax to SystemExit."""
    from repro.warehouse import parse_filter

    try:
        return [parse_filter(expression) for expression in expressions]
    except ValueError as error:
        raise SystemExit(f"error: {error}") from None


def _run_ingest(args: argparse.Namespace) -> str:
    from repro.warehouse import SchemaVersionError, Warehouse

    warehouse = Warehouse(args.db)
    try:
        report = warehouse.ingest(*args.paths)
    except (FileNotFoundError, SchemaVersionError) as error:
        raise SystemExit(f"error: {error}") from None
    counts = report.to_dict()
    summary = "  ".join(f"{name}: {value}" for name, value in counts.items())
    return f"warehouse: {args.db}\n{summary}"


def _run_query(args: argparse.Namespace) -> str:
    import csv
    import json
    from datetime import datetime

    from repro.experiments.store import tidy_headers
    from repro.warehouse import SchemaVersionError, Warehouse

    filters = _warehouse_filters(args.where)
    warehouse = Warehouse(args.db)
    try:
        runs = warehouse.runs(
            scenario=args.scenario,
            version=args.scenario_version,
            source=args.source,
            since=_parse_when(args.since, "--since"),
            until=_parse_when(args.until, "--until"),
            where=filters,
        )
    except SchemaVersionError as error:
        raise SystemExit(f"error: {error}") from None

    if args.trials:
        rows = warehouse.trials(
            run_ids=[run.run_id for run in runs] or None,
            where=filters,
            limit=args.limit,
        ) if runs else []
        records = [{"run_id": row.run_id, **row.record} for row in rows]
        if args.format == "json":
            return json.dumps(records, indent=2, sort_keys=True)
        headers = ["run_id"] + [h for h in tidy_headers(records) if h != "run_id"]
        if args.format == "csv":
            import io

            buffer = io.StringIO()
            writer = csv.writer(buffer)
            writer.writerow(headers)
            for record in records:
                writer.writerow([record.get(column, "") for column in headers])
            return buffer.getvalue().rstrip("\n")
        table = format_table(
            headers,
            [[record.get(column, "") for column in headers] for record in records],
            title=f"{len(records)} trial record(s) from {len(runs)} run(s)",
        )
        return table

    if args.format == "json":
        return json.dumps([run.to_dict() for run in runs], indent=2, sort_keys=True)
    headers = ["Run", "Scenario", "Version", "Source", "Trials", "Ingested", "Path"]
    rows = [
        (
            run.run_id,
            run.scenario,
            run.scenario_version or "-",
            run.source,
            run.num_trials,
            datetime.fromtimestamp(run.ingested_at).strftime("%Y-%m-%d %H:%M:%S"),
            run.source_path,
        )
        for run in runs
    ]
    if args.format == "csv":
        import io

        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(header.lower() for header in headers)
        writer.writerows(rows)
        return buffer.getvalue().rstrip("\n")
    return format_table(
        headers, rows,
        title=f"{len(rows)} warehouse run(s) in {args.db} "
        "(inspect records with --trials, diff with 'repro compare')",
    )


def _run_compare(args: argparse.Namespace) -> str:
    import json

    from repro.warehouse import SchemaVersionError, Warehouse, render_comparison

    warehouse = Warehouse(args.db)
    try:
        report = warehouse.compare(
            args.run_a,
            args.run_b,
            metrics=args.metric or None,
            by=args.by,
            threshold=args.threshold / 100.0,
            higher_is_better=args.higher_is_better,
            scenario=args.scenario,
        )
    except (LookupError, SchemaVersionError) as error:
        raise SystemExit(f"error: {error}") from None
    output = (
        json.dumps(report.to_dict(), indent=2, sort_keys=True)
        if args.format == "json"
        else render_comparison(report)
    )
    if args.fail_on_regression and report.regressions:
        print(output)
        raise SystemExit(
            f"error: {len(report.regressions)} metric regression(s) beyond "
            f"{args.threshold:g}%"
        )
    return output


def _run_trace(args: argparse.Namespace) -> str:
    import json

    from repro.telemetry.summary import render_run_metrics, render_trace_summary
    from repro.telemetry.tracing import read_trace, validate_trace

    try:
        records = read_trace(args.file)
    except OSError as error:
        raise SystemExit(f"error: cannot read trace file: {error}") from None
    except (ValueError, KeyError) as error:
        raise SystemExit(f"error: malformed trace file {args.file!r}: {error}") from None

    lines = [render_trace_summary(records, slowest=args.slowest)]
    # the sweep manifest, when it sits next to the trace, adds the run's
    # metrics and (under --check) the trial span count to cross-check
    manifest = None
    manifest_path = os.path.join(os.path.dirname(os.path.abspath(args.file)),
                                 "manifest.json")
    if os.path.exists(manifest_path):
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        metrics = (manifest.get("stats") or {}).get("metrics")
        if metrics:
            lines.append("\n" + render_run_metrics(metrics))
    if args.check:
        problems = validate_trace(records)
        if manifest is not None:
            expected = (manifest.get("stats") or {}).get("num_trials")
            trial_spans = sum(1 for record in records if record.name == "trial")
            if expected is not None and trial_spans != expected:
                problems.append(
                    f"trace has {trial_spans} trial spans but the manifest "
                    f"records num_trials={expected}"
                )
            else:
                lines.append(f"manifest cross-check: {trial_spans} trial spans "
                             f"== stats.num_trials")
        if problems:
            print("\n".join(lines))
            raise SystemExit(
                "trace check FAILED:\n" + "\n".join(f"  - {p}" for p in problems)
            )
        lines.append(f"trace check OK: {len(records)} spans, schema and "
                     f"span-tree integrity verified")
    return "\n".join(lines)


def _configure_logging(args: argparse.Namespace) -> None:
    """Wire --verbose/--quiet to the stdlib logging tree (stderr)."""
    if args.verbose:
        level = logging.DEBUG
    elif args.quiet:
        level = logging.ERROR
    else:
        level = logging.WARNING
    logging.basicConfig(
        level=level,
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )
    # basicConfig is a no-op when the root logger is already configured
    # (e.g. under a test runner) — force the level so the flags still apply
    logging.getLogger().setLevel(level)


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    _configure_logging(args)

    if args.command == "table1":
        from repro.analysis.table1 import render_table1, reproduce_table1

        output = render_table1(reproduce_table1())
    elif args.command == "table2":
        from repro.analysis.table2 import render_table2, reproduce_table2

        output = render_table2(reproduce_table2(num_paths=args.num_paths))
    elif args.command == "figure6":
        from repro.analysis.figure6 import render_figure6, reproduce_figure6

        output = render_figure6(reproduce_figure6(num_paths=args.num_paths))
    elif args.command == "table3":
        from repro.analysis.table3 import render_table3, reproduce_table3

        output = render_table3(reproduce_table3(num_paths=args.num_paths))
    elif args.command == "report":
        from repro.analysis.report import comparison_report

        output = comparison_report(num_paths=args.num_paths)
    elif args.command == "bitwidth":
        output = _run_bitwidth(args)
    elif args.command == "lifetime":
        output = _run_lifetime(args)
    elif args.command == "estimate":
        output = _run_estimate(args)
    elif args.command == "ipcore":
        output = _run_ipcore(args)
    elif args.command == "ser":
        output = _run_ser(args)
    elif args.command == "scenarios":
        output = _run_scenarios(args)
    elif args.command == "sweep":
        output = _run_sweep(args)
    elif args.command == "serve":
        output = _run_serve(args)
    elif args.command == "submit":
        output = _run_submit(args)
    elif args.command == "trace":
        output = _run_trace(args)
    elif args.command == "ingest":
        output = _run_ingest(args)
    elif args.command == "query":
        output = _run_query(args)
    elif args.command == "compare":
        output = _run_compare(args)
    elif args.command == "export":
        from repro.analysis.export import export_all

        written = export_all(args.output_dir, num_paths=args.num_paths)
        output = "\n".join(f"{name}: {path}" for name, path in sorted(written.items()))
    else:  # pragma: no cover - argparse enforces the choices
        parser.error(f"unknown command {args.command!r}")
        return 2
    try:
        print(output)
    except BrokenPipeError:  # e.g. `repro sweep ... | head`
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

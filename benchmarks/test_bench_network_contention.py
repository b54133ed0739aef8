"""Benchmark — batched contention engine vs the per-packet event loop.

Runs the contention-realistic network stack (per-packet CSMA collision
draws with bounded retries, plus a TTL-flooding variant) through both the
event loop and the batched general path at equal trial counts and records
the speed-up.  Both engines evaluate the same counter-based uniforms and the
same closed-form accounting, so besides being faster the batched engine
returns *identical* results — packet drops included — which this benchmark
asserts, making it an end-to-end equivalence check at benchmark scale.

The hard gate is >= 5x (the same bar as the legacy network benchmark); on
this workload the batched general path typically measures ~10-16x even on a
loaded single-core runner, since the event loop draws and prices every
attempt of every hop in Python while the batch engine vectorises whole event
segments between deaths.  The measured ratio is stored in ``extra_info``
(and the benchmark JSON artifact in CI, where ``benchmarks/compare.py``
tracks regressions against the previous run).
"""

from __future__ import annotations

import time

from repro.modem.energy_budget import ModemEnergyBudget
from repro.network.mac import CsmaMac
from repro.network.routing import RoutedForwarding, TtlFlooding
from repro.network.simulator import NetworkSimulator
from repro.network.topology import grid_deployment
from repro.network.traffic import PeriodicTraffic
from repro.utils.tables import format_table

PROTOCOLS = {"routed": RoutedForwarding(), "flooding": TtlFlooding(ttl=4)}
SEEDS = [0, 1, 2]
ROUNDS = 2
MIN_SPEEDUP = 5.0


def _sweep(batch: bool, protocol):
    budget = ModemEnergyBudget(
        transmit_power_w=2.0,
        receive_frontend_power_w=0.05,
        processing_energy_per_estimation_j=500.76e-6,
        processing_idle_power_w=0.01,
    )
    deployment = grid_deployment(5, 5, spacing_m=200.0)
    shared = dict(
        traffic=PeriodicTraffic(report_interval_s=60.0, packet_symbols=32,
                                jitter_fraction=0.1),
        communication_range_m=300.0,
        battery_capacity_j=8_000.0,
        mac=CsmaMac(channel_load=0.2, max_attempts=5),
        protocol=protocol,
    )
    horizon_s = 30.0 * 86_400.0
    simulators = [
        NetworkSimulator(deployment=deployment, energy_budget=budget, rng=seed, **shared)
        for seed in SEEDS
    ]
    if batch:
        return [simulator.run(max_time_s=horizon_s) for simulator in simulators]
    # the scalar oracle, called directly: one event loop per seed
    return [simulator.run_event_loop(max_time_s=horizon_s) for simulator in simulators]


def _signature(results):
    return [
        (r.first_death_time_s, r.packets_generated, r.packets_delivered,
         r.packets_dropped, tuple(sorted(r.node_alive.items())))
        for r in results
    ]


def test_bench_network_contention(benchmark):
    # Interleave every (protocol, engine) measurement round by round so
    # machine-load drift hits all of them equally — the asserted gate uses
    # these interleaved timings.
    keys = [(name, batch) for name in PROTOCOLS for batch in (False, True)]
    times = {key: float("inf") for key in keys}
    results = {}
    for _ in range(ROUNDS):
        for name, batch in keys:
            start = time.perf_counter()
            outcome = _sweep(batch, PROTOCOLS[name])
            times[(name, batch)] = min(times[(name, batch)], time.perf_counter() - start)
            results[(name, batch)] = outcome

    # seed-locked equivalence at benchmark scale: identical trial outcomes,
    # contention drops included
    for name in PROTOCOLS:
        assert _signature(results[(name, True)]) == _signature(results[(name, False)]), (
            f"{name} results diverged from the event loop"
        )
        assert all(r.first_death_time_s is not None for r in results[(name, True)])
    # the routed CSMA workload must actually drop packets to contention
    assert all(r.packets_dropped > 0 for r in results[("routed", True)])

    # the recorded pytest-benchmark timing is the batched engine's full sweep
    benchmark.pedantic(
        lambda: [_sweep(True, protocol) for protocol in PROTOCOLS.values()],
        iterations=1,
        rounds=1,
    )

    event_total = sum(times[(name, False)] for name in PROTOCOLS)
    batch_total = sum(times[(name, True)] for name in PROTOCOLS)
    speedup = event_total / batch_total
    benchmark.extra_info["trials_per_protocol"] = len(SEEDS)
    benchmark.extra_info["protocols"] = len(PROTOCOLS)
    benchmark.extra_info["event_loop_s"] = round(event_total, 4)
    benchmark.extra_info["batch_s"] = round(batch_total, 4)
    benchmark.extra_info["speedup"] = round(speedup, 2)

    print()
    print(
        format_table(
            ["Protocol", "Event loop (s)", "Batched (s)", "Speed-up"],
            [
                (
                    name,
                    round(times[(name, False)], 3),
                    round(times[(name, True)], 3),
                    f"{times[(name, False)] / times[(name, True)]:.1f}x",
                )
                for name in PROTOCOLS
            ]
            + [("contention sweep (total)", round(event_total, 3), round(batch_total, 3),
                f"{speedup:.1f}x")],
            title=(
                f"Contention sweep — batched general path vs event loop "
                f"(25 nodes, CSMA, {len(SEEDS)} jittered trials x {len(PROTOCOLS)} protocols)"
            ),
        )
    )

    assert speedup >= MIN_SPEEDUP, (
        f"batched contention sweep only {speedup:.2f}x faster (gate: {MIN_SPEEDUP}x)"
    )

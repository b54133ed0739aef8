#!/usr/bin/env python3
"""Deployment lifetime of an underwater sensor network vs processing platform.

The paper's motivation (Section I): small, dense underwater sensor networks
need low-energy modems for long deployments.  This example carries the Table 3
per-estimation energies to the network level:

* deploy a 5 x 5 grid of nodes 200 m apart with a corner sink,
* route reports to the sink over the acoustic connectivity graph,
* price every packet with the modem energy budget (transmit amplifier,
  receive front end, and the channel-estimation energy of the chosen
  hardware platform — an estimator runs once per 22.4 ms receive window while
  listening),
* run both the analytical lifetime model and the event-driven simulator, and
  compare platforms.

Run with:  python examples/sensor_network_lifetime.py
"""

from __future__ import annotations

from repro.experiments import get_scenario, run_sweep
from repro.modem.energy_budget import ModemEnergyBudget
from repro.network.simulator import NetworkSimulator
from repro.network.topology import grid_deployment
from repro.network.traffic import PeriodicTraffic
from repro.utils.tables import format_table

PLATFORM_ENERGIES_UJ = {
    "MicroBlaze": 2000.40,
    "TI C6713 DSP": 500.76,
    "Virtex-4 1FC 16bit": 360.52,
    "Spartan-3 14FC 8bit": 25.82,
    "Virtex-4 112FC 8bit": 9.50,
}


def analytical_study() -> None:
    spec = (
        get_scenario("network-lifetime").spec
        .with_axis("report_interval_s", (120.0,))
        .with_axis("topology", ("grid",))
        .with_zipped({
            "platform": tuple(PLATFORM_ENERGIES_UJ),
            "energy_uj": tuple(PLATFORM_ENERGIES_UJ.values()),
        })
        .with_base(
            grid_rows=5, grid_cols=5, spacing_m=200.0, communication_range_m=300.0,
            battery_capacity_j=200_000.0, packet_symbols=32, continuous_detection=True,
        )
    )
    lifetimes = {record["platform"]: record["lifetime_days"] for record in run_sweep(spec).records}
    print(format_table(
        ["Platform", "Lifetime (days)", "vs MicroBlaze"],
        [
            (name, round(days, 2), f"{days / lifetimes['MicroBlaze']:.2f}X")
            for name, days in sorted(lifetimes.items(), key=lambda kv: kv[1])
        ],
        title="Analytical deployment lifetime (25 nodes, continuous listening)",
    ))
    print()


def simulated_study() -> None:
    """Event-driven simulation for the two extreme platforms."""
    rows = []
    for name in ("MicroBlaze", "Virtex-4 112FC 8bit"):
        energy_uj = PLATFORM_ENERGIES_UJ[name]
        budget = ModemEnergyBudget(
            transmit_power_w=2.0,
            receive_frontend_power_w=0.05,
            processing_energy_per_estimation_j=energy_uj * 1e-6,
            # continuous detection: one estimation per 22.4 ms receive window
            processing_idle_power_w=0.01 + energy_uj * 1e-6 / 22.4e-3,
        )
        simulator = NetworkSimulator(
            deployment=grid_deployment(4, 4, spacing_m=200.0),
            energy_budget=budget,
            traffic=PeriodicTraffic(report_interval_s=120.0, packet_symbols=32,
                                    jitter_fraction=0.0),
            communication_range_m=300.0,
            battery_capacity_j=50_000.0,
            rng=0,
        )
        result = simulator.run(max_time_s=30 * 86_400.0, stop_at_first_death=True)
        totals = result.total_energy_by_component()
        rows.append((
            name,
            # None means the network outlived the horizon (a 0.0-day death is real)
            ">30" if result.lifetime_days is None else round(result.lifetime_days, 2),
            result.packets_delivered,
            round(totals["processing_j"] + totals["idle_j"], 1),
            round(totals["transmit_j"], 1),
        ))
    print(format_table(
        ["Platform", "Lifetime (days)", "Packets delivered", "Listen+processing (J)", "Transmit (J)"],
        rows,
        title="Event-driven simulation (16 nodes, 50 kJ batteries)",
    ))


def main() -> None:
    analytical_study()
    simulated_study()


if __name__ == "__main__":
    main()

"""Experiment E9 (extension) — sensor-network deployment lifetime by platform.

The paper's introduction motivates the energy comparison with deployment
lifetime of small, dense underwater sensor networks.  This benchmark carries
the Table 3 per-estimation energies into a 25-node network whose receivers run
continuous channel-estimation while listening, and reports the resulting
deployment lifetime (first node death) per hardware platform — the ordering
must follow the paper's energy ranking, with the fully parallel FPGA core
giving the longest deployment.
"""

from __future__ import annotations

from repro.experiments import get_scenario, run_sweep
from repro.utils.tables import format_table

SPEC = (
    get_scenario("network-lifetime").spec
    .with_axis("report_interval_s", (120.0,))
    .with_axis("topology", ("grid",))
    .with_base(
        grid_rows=5, grid_cols=5, spacing_m=200.0, communication_range_m=300.0,
        battery_capacity_j=200_000.0,   # a D-cell class lithium pack
        packet_symbols=32,
    )
)


def _study():
    return {record["platform"]: record["lifetime_days"] for record in run_sweep(SPEC).records}


def test_bench_network_lifetime(benchmark):
    lifetimes = benchmark(_study)
    print()
    print(
        format_table(
            ["Platform", "Deployment lifetime (days)"],
            sorted(lifetimes.items(), key=lambda kv: kv[1]),
            title="E9 — 25-node deployment lifetime by signal-processing platform",
        )
    )

    # ordering follows the paper's per-estimation energy ranking
    assert (
        lifetimes["Virtex-4 112FC 8bit"]
        >= lifetimes["Spartan-3 14FC 8bit"]
        >= lifetimes["Virtex-4 1FC 16bit"]
        >= lifetimes["TI C6713 DSP"]
        >= lifetimes["MicroBlaze"]
    )
    # the FPGA platform buys a material lifetime extension over the microcontroller
    assert lifetimes["Virtex-4 112FC 8bit"] > 1.3 * lifetimes["MicroBlaze"]
    # and all lifetimes are physically sensible (days to months, not seconds)
    assert all(1.0 < days < 365.0 for days in lifetimes.values())

"""Experiment E8 (ablation) — the parallelism trade-off over the full divisor set.

The paper evaluates three parallelism levels (1, 14, 112 FC blocks); this
ablation sweeps every divisor of 112 on both devices at 8 bits, confirming the
monotone area/power-up, energy-down trend, the Spartan-3 feasibility cutoff at
28 blocks (DSP48 limit), and that the Pareto frontier spans serial (smallest)
to fully parallel (lowest energy).
"""

from __future__ import annotations

from repro.core.dse import DesignSpaceExplorer, divisors
from repro.hardware.devices import SPARTAN3_XC3S5000, VIRTEX4_XC4VSX55
from repro.utils.tables import format_table


def _run_sweep():
    return {
        family: DesignSpaceExplorer(
            devices=(device,),
            parallelism_levels=tuple(divisors(112)),
            bit_widths=(8,),
            include_infeasible=True,
        ).explore()
        for family, device in (("Virtex-4", VIRTEX4_XC4VSX55), ("Spartan-3", SPARTAN3_XC3S5000))
    }


def test_bench_ablation_parallelism(benchmark):
    sweeps = benchmark(_run_sweep)
    print()
    for family, evaluations in sweeps.items():
        print(
            format_table(
                ["#FC", "feasible", "slices", "time us", "power W", "energy uJ"],
                [
                    (e.point.num_fc_blocks, e.feasible, e.slices, e.time_us, e.power_w, e.energy_uj)
                    for e in evaluations
                ],
                title=f"E8 — parallelism sweep on {family} (8-bit)",
            )
        )
        print()

    assert [e.point.num_fc_blocks for e in sweeps["Virtex-4"]] == divisors(112)

    for family, evaluations in sweeps.items():
        feasible = [e for e in evaluations if e.feasible]
        energies = [e.energy_uj for e in feasible]
        slices = [e.slices for e in feasible]
        powers = [e.power_w for e in feasible]
        assert energies == sorted(energies, reverse=True), f"{family}: energy must fall"
        assert slices == sorted(slices), f"{family}: area must grow"
        assert powers == sorted(powers), f"{family}: power must grow"

    # Spartan-3 feasibility cutoff: 2 DSP48 per block, 104 available -> 28 blocks max
    spartan_feasibility = {e.point.num_fc_blocks: e.feasible for e in sweeps["Spartan-3"]}
    assert spartan_feasibility[28] and not spartan_feasibility[56]
    # Virtex-4 can host every level
    assert all(e.feasible for e in sweeps["Virtex-4"])

    # the Pareto frontier (area vs energy) runs from the serial to the most parallel design
    explorer = DesignSpaceExplorer(
        devices=(VIRTEX4_XC4VSX55,), parallelism_levels=tuple(divisors(112)), bit_widths=(8,)
    )
    front = explorer.pareto_front()
    front_levels = {e.point.num_fc_blocks for e in front}
    assert 1 in front_levels and 112 in front_levels

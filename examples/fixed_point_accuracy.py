#!/usr/bin/env python3
"""Bit-width exploration: how much datapath precision does the IP core need?

Section IV.C of the paper trades datapath bits against accuracy ("8-10 bits is
sufficient for accurate channel estimation with optimal dynamic range
scaling").  This example sweeps the word length of the bit-accurate
fixed-point Matching Pursuits model and prints, per word length:

* the channel-estimation error against the true channel,
* the deviation from the floating-point reference,
* the support-recovery rate,
* and the hardware cost of that word length (slices / power / energy on the
  fully parallel Virtex-4 core) — the accuracy-vs-energy trade the designer
  actually faces.

The sweep runs the ``fixedpoint-bitwidth`` scenario, which hands all trials
of each word length to the batched fixed-point datapath in one call; its
per-trial scalar reference is pinned identical, bit for bit.

Run with:  python examples/fixed_point_accuracy.py
"""

from __future__ import annotations

from repro.experiments import get_scenario, run_sweep
from repro.hardware.devices import VIRTEX4_XC4VSX55
from repro.hardware.fpga import FPGAImplementation
from repro.utils.tables import format_table

WORD_LENGTHS = (4, 6, 8, 10, 12, 16)


def main() -> None:
    spec = (
        get_scenario("fixedpoint-bitwidth").spec
        .with_axis("word_length", WORD_LENGTHS)
        .with_base(snr_db=25.0)
        .with_seed(base_seed=0, replicates=20)
    )
    result = run_sweep(spec)
    error, support, vs_float = (
        result.group_mean(by="word_length", metric=metric)
        for metric in ("normalized_error", "support_recovery", "error_vs_float")
    )
    rows = []
    for bits in WORD_LENGTHS:
        hardware = FPGAImplementation(VIRTEX4_XC4VSX55, num_fc_blocks=112, word_length=bits)
        rows.append((
            bits,
            round(error[bits], 4),
            round(vs_float[bits], 4),
            f"{support[bits]:.0%}",
            hardware.area.slices,
            round(hardware.power.total_power_w, 2),
            round(hardware.energy.energy_uj, 2),
        ))
    print(format_table(
        ["Bits", "Error vs truth", "Error vs float", "Support recovery",
         "Slices (112 FC, V4)", "Power (W)", "Energy (uJ)"],
        rows,
        title="Fixed-point accuracy vs hardware cost of the MP IP core",
    ))
    print("\nObservation: estimation quality saturates by 8-10 bits while area,"
          " power and energy keep growing with the word length — matching the"
          " paper's choice of an 8-bit datapath for the lowest-energy design.")


if __name__ == "__main__":
    main()

"""Export the regenerated experiment data to CSV / JSON.

The benchmark harness prints ASCII tables; for plotting (the paper's Figure 6
scatter, SER curves, lifetime bars) it is more convenient to have the raw
series on disk.  :func:`export_all` writes one CSV file per experiment plus a
``summary.json`` with the headline numbers, using only the standard library so
no plotting dependency is required.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Iterable, Sequence

from repro.utils.atomic import atomic_writer

__all__ = ["write_csv", "export_all"]


def write_csv(path: Path | str, headers: Sequence[str], rows: Iterable[Sequence]) -> Path:
    """Atomically write one CSV file (creating parent directories).

    Goes through :func:`repro.utils.atomic.atomic_writer` so an interrupted
    export never leaves a truncated CSV behind (``ResultStore`` writes sweep
    results through this too).
    """

    def _write(handle) -> None:
        writer = csv.writer(handle)
        writer.writerow(headers)
        for row in rows:
            writer.writerow(row)

    return atomic_writer(path, _write, newline="")


def export_all(output_dir: Path | str, num_paths: int = 6) -> dict[str, Path]:
    """Regenerate Tables 1-3 and Figure 6 and write them as CSV + a JSON summary.

    Returns a mapping from artefact name to the file written.
    """
    # imported here: every sweep's ResultStore uses write_csv, not the tables
    from repro.analysis.figure6 import reproduce_figure6
    from repro.analysis.table1 import reproduce_table1
    from repro.analysis.table2 import reproduce_table2
    from repro.analysis.table3 import reproduce_table3

    output_dir = Path(output_dir)
    written: dict[str, Path] = {}

    table1 = reproduce_table1()
    written["table1"] = write_csv(
        output_dir / "table1_parameters.csv",
        ["quantity", "unit", "paper_value", "reproduced_value", "matches"],
        [(r.quantity, r.unit, r.paper_value, r.reproduced_value, r.matches) for r in table1],
    )

    table2 = reproduce_table2(num_paths=num_paths)
    written["table2"] = write_csv(
        output_dir / "table2_area_timing.csv",
        ["word_length", "fc_blocks", "device", "feasible", "slices", "paper_slices",
         "time_us", "paper_time_us", "throughput_per_us", "paper_throughput_per_us"],
        [
            (r.word_length, r.num_fc_blocks, r.device_family, r.feasible, r.slices,
             r.paper_slices, r.time_us, r.paper_time_us, r.throughput_per_us,
             r.paper_throughput_per_us)
            for r in table2
        ],
    )

    figure6 = reproduce_figure6(num_paths=num_paths)
    written["figure6"] = write_csv(
        output_dir / "figure6_power_energy.csv",
        ["word_length", "fc_blocks", "device", "feasible", "power_w", "paper_power_w",
         "energy_uj", "paper_energy_uj", "quiescent_power_w"],
        [
            (p.word_length, p.num_fc_blocks, p.device_family, p.feasible, p.power_w,
             p.paper_power_w, p.energy_uj, p.paper_energy_uj, p.quiescent_power_w)
            for p in figure6
        ],
    )

    table3 = reproduce_table3(num_paths=num_paths)
    written["table3"] = write_csv(
        output_dir / "table3_platform_comparison.csv",
        ["platform", "time_us", "paper_time_us", "power_w", "paper_power_w",
         "energy_uj", "paper_energy_uj", "decrease_vs_microcontroller",
         "paper_decrease_vs_microcontroller", "decrease_vs_dsp", "paper_decrease_vs_dsp"],
        [
            (r.label, r.time_us, r.paper_time_us, r.power_w, r.paper_power_w,
             r.energy_uj, r.paper_energy_uj, r.energy_decrease_vs_microcontroller,
             r.paper_decrease_vs_microcontroller, r.energy_decrease_vs_dsp,
             r.paper_decrease_vs_dsp)
            for r in table3
        ],
    )

    headline = next(r for r in table3 if "112FC" in r.label)
    summary = {
        "table1_matches": all(r.matches for r in table1),
        "table2_rows": len(table2),
        "table2_infeasible_points": sum(1 for r in table2 if not r.feasible),
        "headline_energy_decrease_vs_microcontroller": headline.energy_decrease_vs_microcontroller,
        "headline_energy_decrease_vs_dsp": headline.energy_decrease_vs_dsp,
        "paper_headline_vs_microcontroller": headline.paper_decrease_vs_microcontroller,
        "paper_headline_vs_dsp": headline.paper_decrease_vs_dsp,
    }
    written["summary"] = atomic_writer(
        output_dir / "summary.json",
        lambda handle: json.dump(summary, handle, indent=2),
    )
    return written

"""Experiment harness: one module per paper artefact plus the published values.

* :mod:`repro.analysis.paper_data` — every number the paper reports (Tables
  1-3, the Figure 6 anchor points), used by the benchmarks to print
  paper-vs-measured comparisons.
* :mod:`repro.analysis.table1` — regenerate the AquaModem design parameters.
* :mod:`repro.analysis.figure4` — regenerate the composite Walsh/m-sequence
  waveform of Figure 4.
* :mod:`repro.analysis.table2` — regenerate the area / timing / throughput
  design-space exploration.
* :mod:`repro.analysis.figure6` — regenerate the power / energy series.
* :mod:`repro.analysis.table3` — regenerate the platform comparison and the
  210x / 52x headline ratios.
* :mod:`repro.analysis.report` — paper-vs-measured report rendering.
* :mod:`repro.analysis.export` — CSV / JSON exports of the regenerated data.
* :mod:`repro.analysis.intervals` — binomial and normal confidence intervals
  and the streaming aggregators of the adaptive sweeps.

The extension studies (E6 bit width, E7 DS-SS vs FSK, E8 parallelism, E9
lifetime) are scenario sweeps of :mod:`repro.experiments.registry`; the
``repro bitwidth``/``ser``/``ipcore``/``lifetime`` commands render them.
"""

from repro._lazy import lazy_exports

__all__ = [
    "paper_data",
    "reproduce_table1",
    "reproduce_figure4",
    "reproduce_table2",
    "Table2Row",
    "reproduce_figure6",
    "Figure6Point",
    "reproduce_table3",
    "Table3Row",
    "export_all",
    "write_csv",
    "comparison_report",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "table1": ("reproduce_table1",),
    "figure4": ("reproduce_figure4",),
    "table2": ("reproduce_table2", "Table2Row"),
    "figure6": ("reproduce_figure6", "Figure6Point"),
    "table3": ("reproduce_table3", "Table3Row"),
    "export": ("export_all", "write_csv"),
    "report": ("comparison_report",),
})

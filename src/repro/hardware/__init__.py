"""Hardware platform models: FPGA devices, area/timing/power/energy estimation,
and instruction-cost models for the DSP and microcontroller baselines.

The paper obtained its numbers from Xilinx ISE 9.1 synthesis reports, the
Xilinx Power Estimator, TI's spreadsheet power estimator and an embedded
timer.  None of those tools are available here, so this subpackage provides
*calibrated analytical models* of the same quantities (see DESIGN.md §2):

* :mod:`repro.hardware.devices` — the FPGA device database (resources,
  quiescent power, per-slice dynamic-power coefficient, clock calibration).
* :mod:`repro.hardware.area` — slices / DSP48 / BRAM usage of an IP-core
  configuration, with a per-device feasibility check.
* :mod:`repro.hardware.timing` — maximum clock frequency and execution time.
* :mod:`repro.hardware.power` — quiescent + dynamic power.
* :mod:`repro.hardware.energy` — energy per estimation and duty-cycled
  average power.
* :mod:`repro.hardware.fpga` — :class:`FPGAImplementation`, the one-stop
  evaluation of a design point (used by the DSE engine).
* :mod:`repro.hardware.opcounts` — operation counts of the MP workload.
* :mod:`repro.hardware.processors` — cycle-cost models of the TI C6713 DSP
  and the MicroBlaze soft core.
* :mod:`repro.hardware.comparison` — the Table 3 platform comparison.

The models keep the paper's scope: energies exclude reconfiguration at
power-up (as Figure 6 states), and no ASIC alternative is modelled.
"""

from repro._lazy import lazy_exports

__all__ = [
    "FPGADevice",
    "VIRTEX4_XC4VSX55",
    "SPARTAN3_XC3S5000",
    "DEVICE_LIBRARY",
    "get_device",
    "AreaEstimate",
    "estimate_area",
    "is_feasible",
    "TimingEstimate",
    "max_clock_frequency",
    "estimate_timing",
    "PowerEstimate",
    "estimate_power",
    "EnergyEstimate",
    "estimate_energy",
    "duty_cycled_average_power",
    "FPGAImplementation",
    "OperationCounts",
    "matching_pursuit_operation_counts",
    "ProcessorModel",
    "ProcessorImplementation",
    "ti_c6713",
    "microblaze_soft_core",
    "PlatformComparison",
    "PlatformResult",
    "compare_platforms",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "devices": (
        "FPGADevice", "VIRTEX4_XC4VSX55", "SPARTAN3_XC3S5000", "DEVICE_LIBRARY", "get_device",
    ),
    "area": ("AreaEstimate", "estimate_area", "is_feasible"),
    "timing": ("TimingEstimate", "max_clock_frequency", "estimate_timing"),
    "power": ("PowerEstimate", "estimate_power"),
    "energy": ("EnergyEstimate", "estimate_energy", "duty_cycled_average_power"),
    "fpga": ("FPGAImplementation",),
    "opcounts": ("OperationCounts", "matching_pursuit_operation_counts"),
    "processors": ("ProcessorModel", "ProcessorImplementation", "ti_c6713", "microblaze_soft_core"),
    "comparison": ("PlatformComparison", "PlatformResult", "compare_platforms"),
})

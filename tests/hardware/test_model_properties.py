"""Cross-device properties of the area/timing/power/energy models.

The calibration tests pin the paper's two devices at their Table 2/3 design
points; these check the shape of the models over every device in
``DEVICE_LIBRARY``, every characterised bit width and every parallelism
``P`` that divides the 112 delays: the Figure 6 trends (power rises and time
and energy fall as ``P`` grows), feasibility that never returns once lost,
and the Section VI claim that every reconfigurable design point saves
energy over both processor baselines.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.hardware.devices import DEVICE_LIBRARY
from repro.hardware.fpga import FPGAImplementation
from repro.hardware.processors import (
    ProcessorImplementation,
    microblaze_soft_core,
    ti_c6713,
)

DEVICES = list(DEVICE_LIBRARY.values())
DEVICE_IDS = [device.name for device in DEVICES]
WORD_LENGTHS = (8, 12, 16)
#: every parallelism that divides the 112 delays of the AquaModem geometry
PARALLELISMS = tuple(p for p in range(1, 113) if 112 % p == 0)

device_param = pytest.mark.parametrize("device", DEVICES, ids=DEVICE_IDS)
grid_param = pytest.mark.parametrize(
    "device, word_length",
    [(device, bits) for device in DEVICES for bits in WORD_LENGTHS],
    ids=[f"{device.name}-{bits}bit" for device in DEVICES for bits in WORD_LENGTHS],
)


def _sweep(device, word_length):
    return [FPGAImplementation(device, p, word_length) for p in PARALLELISMS]


def _strictly_increasing(values):
    return all(a < b for a, b in zip(values, values[1:]))


class TestDeviceCalibration:
    @device_param
    def test_calibration_knots_are_reproduced_exactly(self, device):
        for bits, slices in device.slices_per_fc_block.items():
            assert device.fc_block_slices(bits) == pytest.approx(slices, rel=1e-12)
        for bits, clock in device.clock_frequency_hz.items():
            assert device.max_clock_hz(bits) == pytest.approx(clock, rel=1e-12)

    @device_param
    def test_wider_datapath_is_slower_and_larger(self, device):
        widths = range(4, 25)
        clocks = [device.max_clock_hz(bits) for bits in widths]
        blocks = [device.fc_block_slices(bits) for bits in widths]
        assert _strictly_increasing(clocks[::-1])
        assert _strictly_increasing(blocks)

    @device_param
    def test_serial_design_sits_just_above_the_quiescent_floor(self, device):
        power = FPGAImplementation(device, 1, 8).power
        assert power.quiescent_power_w == device.quiescent_power_w
        assert 0.0 < power.dynamic_power_w < 0.1 * power.quiescent_power_w


class TestParallelismTrends:
    @grid_param
    def test_power_rises_with_parallelism(self, device, word_length):
        powers = [design.power.total_power_w for design in _sweep(device, word_length)]
        assert _strictly_increasing(powers)

    @grid_param
    def test_execution_time_falls_with_parallelism(self, device, word_length):
        designs = _sweep(device, word_length)
        times = [design.timing.execution_time_s for design in designs]
        assert _strictly_increasing(times[::-1])
        # the clock depends only on the bit width, so the time follows the cycles
        clocks = {design.timing.clock_frequency_hz for design in designs}
        assert len(clocks) == 1

    @grid_param
    def test_energy_falls_with_parallelism(self, device, word_length):
        """Figure 6: the most parallel design is the least energy-consuming."""
        energies = [design.energy.energy_j for design in _sweep(device, word_length)]
        assert _strictly_increasing(energies[::-1])

    @grid_param
    def test_feasibility_never_returns_once_lost(self, device, word_length):
        feasible = [design.is_feasible for design in _sweep(device, word_length)]
        first_infeasible = feasible.index(False) if False in feasible else len(feasible)
        assert not any(feasible[first_infeasible:])


class TestAgainstProcessors:
    @pytest.fixture(scope="class")
    def baseline_energies_j(self):
        return {
            "microcontroller": ProcessorImplementation(microblaze_soft_core()).energy.energy_j,
            "dsp": ProcessorImplementation(ti_c6713()).energy.energy_j,
        }

    @grid_param
    def test_every_feasible_design_beats_both_processors(
        self, device, word_length, baseline_energies_j
    ):
        """Section VI: each reconfigurable design saves energy over the DSP and uC."""
        feasible = [d for d in _sweep(device, word_length) if d.is_feasible]
        for design in feasible:
            assert design.energy.energy_j < baseline_energies_j["dsp"]
            assert design.energy.energy_j < baseline_energies_j["microcontroller"]

    @pytest.mark.parametrize("factory", [microblaze_soft_core, ti_c6713],
                             ids=["microblaze", "c6713"])
    @pytest.mark.parametrize("factor", [0.5, 2.0])
    def test_processor_energy_is_linear_in_active_power(self, factory, factor):
        base = ProcessorImplementation(factory())
        scaled = ProcessorImplementation(
            factory(active_power_w=factor * base.power_w)
        )
        assert scaled.execution_time_s == base.execution_time_s
        assert scaled.energy.energy_j == pytest.approx(factor * base.energy.energy_j, rel=1e-12)

    @pytest.mark.parametrize("factory", [microblaze_soft_core, ti_c6713],
                             ids=["microblaze", "c6713"])
    def test_processor_time_and_energy_scale_inversely_with_clock(self, factory):
        base = ProcessorImplementation(factory())
        faster = ProcessorImplementation(factory(clock_hz=2.0 * base.model.clock_hz))
        assert faster.execution_time_s == pytest.approx(base.execution_time_s / 2, rel=1e-12)
        assert faster.energy.energy_j == pytest.approx(base.energy.energy_j / 2, rel=1e-12)


class TestReportRows:
    @grid_param
    def test_report_row_is_self_consistent(self, device, word_length):
        for design in _sweep(device, word_length):
            row = design.report_row()
            assert row["energy_uj"] == pytest.approx(row["power_w"] * row["time_us"], rel=1e-12)
            assert row["power_w"] == pytest.approx(
                device.quiescent_power_w + row["dynamic_power_w"], rel=1e-12
            )
            assert row["time_us"] == pytest.approx(
                row["cycles"] / row["clock_mhz"], rel=1e-12
            )
            assert row["part"] == device.name and row["feasible"] == design.is_feasible

    @device_param
    def test_a_cheaper_device_copy_only_lowers_power(self, device):
        """Quiescent power moves the power and energy, never the area or the time."""
        cheaper = dataclasses.replace(device, quiescent_power_w=device.quiescent_power_w / 2)
        for p in PARALLELISMS:
            base, halved = FPGAImplementation(device, p, 8), FPGAImplementation(cheaper, p, 8)
            assert halved.area == base.area
            assert halved.timing == base.timing
            assert halved.power.total_power_w == pytest.approx(
                base.power.total_power_w - device.quiescent_power_w / 2, rel=1e-12
            )
            assert halved.energy.energy_j < base.energy.energy_j

"""Timing model: clock frequency, execution time and throughput.

The execution time of one channel estimation is

``time = cycles / f_max(device, word_length)``

where the cycle count comes from the IP core's control schedule
(:class:`repro.core.ipcore.control.ControlUnit`) and the maximum clock
frequency from the device calibration table.  The paper's Table 2 "timing"
column assumes the receive vector is already in on-chip memory, and so does
this model.

Throughput follows the paper's definition — "maximum clock frequency divided
by the number of clock cycles", i.e. channel estimations per second; the
Table 2 column reports it per microsecond, and :attr:`TimingEstimate.throughput_per_us`
matches that unit.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.ipcore.control import ControlUnit, ScheduleBreakdown
from repro.hardware.devices import FPGADevice
from repro.utils.validation import check_integer

__all__ = [
    "TimingEstimate",
    "max_clock_frequency",
    "estimate_timing",
    "timing_from_schedule",
]


@dataclass(frozen=True)
class TimingEstimate:
    """Timing of one channel estimation on one design point."""

    cycles: int
    clock_frequency_hz: float
    execution_time_s: float

    @property
    def execution_time_us(self) -> float:
        """Execution time in microseconds (the paper's Table 2 unit)."""
        return self.execution_time_s * 1e6

    @property
    def throughput_hz(self) -> float:
        """Channel estimations per second (f_max / cycles)."""
        return self.clock_frequency_hz / self.cycles

    @property
    def throughput_per_us(self) -> float:
        """Channel estimations per microsecond (the unit of the Table 2 column)."""
        return self.throughput_hz * 1e-6

    def meets_deadline(self, deadline_s: float) -> bool:
        """True if the estimation finishes within ``deadline_s`` (e.g. 22.4 ms)."""
        return self.execution_time_s <= deadline_s


def max_clock_frequency(device: FPGADevice, word_length: int) -> float:
    """Maximum clock frequency of the IP core on ``device`` at ``word_length`` bits."""
    return device.max_clock_hz(word_length)


def timing_from_schedule(
    device: FPGADevice, schedule: ScheduleBreakdown, word_length: int
) -> TimingEstimate:
    """Turn a closed-form control schedule into a timing estimate.

    The IP core's schedule depends only on the geometry (never on the data),
    and it is all that P changes: a batch's estimates are the same at every
    P.  So a single :class:`~repro.core.ipcore.control.ScheduleBreakdown` —
    e.g. the one every trial of a :class:`~repro.core.ipcore.batch.BatchIPCoreRun`
    shares — prices a whole batch of estimations on ``device``.
    """
    cycles = schedule.total_cycles
    clock = max_clock_frequency(device, word_length)
    return TimingEstimate(
        cycles=cycles,
        clock_frequency_hz=clock,
        execution_time_s=cycles / clock,
    )


def estimate_timing(
    device: FPGADevice,
    num_fc_blocks: int,
    word_length: int,
    num_paths: int = 6,
    num_delays: int = 112,
    window_length: int = 224,
    **control_overrides: int,
) -> TimingEstimate:
    """Estimate cycles, clock and execution time for a design point.

    ``control_overrides`` are forwarded to the cycle model (e.g.
    ``qgen_cycles_per_iteration``) for sensitivity studies.
    """
    check_integer("num_paths", num_paths, minimum=1)
    control = ControlUnit(
        num_delays=num_delays,
        window_length=window_length,
        num_fc_blocks=num_fc_blocks,
        num_paths=num_paths,
        **control_overrides,
    )
    return timing_from_schedule(device, control.schedule(), word_length)

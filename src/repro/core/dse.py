"""Design-space exploration of the Matching Pursuits IP core.

Section IV of the paper sweeps three axes — level of parallelism (number of
FC blocks), datapath bit width and FPGA device — and evaluates area, timing,
throughput, power and energy for every combination (Table 2 and Figure 6).
:class:`DesignSpaceExplorer` performs that sweep over the calibrated hardware
models, flags infeasible points (e.g. the fully parallel Spartan-3 design
which exceeds the device's multiplier count), checks the 22.4 ms real-time
deadline, and extracts Pareto-optimal points for the ablation study E8.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.hardware.devices import FPGADevice, SPARTAN3_XC3S5000, VIRTEX4_XC4VSX55
from repro.hardware.fpga import FPGAImplementation
from repro.utils.tables import AsciiTable
from repro.utils.validation import check_integer, check_positive

__all__ = [
    "DesignPoint",
    "DesignPointEvaluation",
    "DesignSpaceExplorer",
    "divisors",
    "PAPER_PARALLELISM_LEVELS",
    "PAPER_BIT_WIDTHS",
    "REAL_TIME_DEADLINE_S",
]

#: The parallelism levels the paper evaluates (Table 2).
PAPER_PARALLELISM_LEVELS: tuple[int, ...] = (112, 14, 1)

#: The bit widths the paper evaluates (Table 2).
PAPER_BIT_WIDTHS: tuple[int, ...] = (8, 12, 16)

#: The real-time constraint: a new receive vector arrives every 22.4 ms.
REAL_TIME_DEADLINE_S: float = 22.4e-3


def divisors(n: int) -> list[int]:
    """All positive divisors of ``n`` in increasing order (valid FC-block counts)."""
    n = check_integer("n", n, minimum=1)
    result = [d for d in range(1, n + 1) if n % d == 0]
    return result


@dataclass(frozen=True)
class DesignPoint:
    """One point of the design space: (device, parallelism, bit width)."""

    device: FPGADevice
    num_fc_blocks: int
    word_length: int

    def __str__(self) -> str:
        return f"{self.device.family}/{self.device.name} P={self.num_fc_blocks} b={self.word_length}"


@dataclass(frozen=True)
class DesignPointEvaluation:
    """A design point together with its modelled metrics.

    The accuracy columns are populated only when the explorer runs with
    ``accuracy_trials > 0``: they are the E6 channel-estimation quality of
    the point's word length (mean normalised error against the true channel
    and mean support recovery), evaluated by a ``fixedpoint-bitwidth`` sweep.
    """

    point: DesignPoint
    implementation: FPGAImplementation
    feasible: bool
    slices: int
    dsp48: int
    bram_blocks: int
    time_us: float
    throughput_per_us: float
    power_w: float
    energy_uj: float
    meets_deadline: bool
    mean_normalized_error: float | None = None
    mean_support_recovery: float | None = None

    def dominates(self, other: "DesignPointEvaluation") -> bool:
        """Pareto dominance on (area, energy): no worse on both, better on one."""
        if not self.feasible or not other.feasible:
            return False
        no_worse = self.slices <= other.slices and self.energy_uj <= other.energy_uj
        better = self.slices < other.slices or self.energy_uj < other.energy_uj
        return no_worse and better


@dataclass
class DesignSpaceExplorer:
    """Sweep engine over devices x parallelism x bit width.

    Parameters
    ----------
    devices:
        FPGA devices to consider (defaults to the paper's two).
    parallelism_levels:
        FC-block counts to sweep (defaults to the paper's 112 / 14 / 1).
    bit_widths:
        Datapath widths to sweep (defaults to 8 / 12 / 16).
    num_paths:
        MP iterations Nf.
    num_delays, window_length:
        Problem geometry.
    include_infeasible:
        Keep infeasible points in the result list (flagged) instead of
        dropping them; the Table 2 bench needs them dropped, the ablation
        keeps them for reporting.
    accuracy_trials:
        Monte-Carlo trials behind the per-word-length accuracy columns
        (``mean_normalized_error`` / ``mean_support_recovery``).  0 — the
        default — skips the accuracy evaluation entirely, keeping the pure
        area/timing/power sweep cheap.  The accuracy model is the AquaModem
        waveform geometry, so it requires the paper's 112/224 problem size.
    accuracy_seed, accuracy_snr_db, accuracy_channel_paths:
        Problem parameters of the accuracy trials (paired seeds: every word
        length estimates the same channels).
    """

    devices: Sequence[FPGADevice] = field(
        default_factory=lambda: (VIRTEX4_XC4VSX55, SPARTAN3_XC3S5000)
    )
    parallelism_levels: Sequence[int] = PAPER_PARALLELISM_LEVELS
    bit_widths: Sequence[int] = PAPER_BIT_WIDTHS
    num_paths: int = 6
    num_delays: int = 112
    window_length: int = 224
    include_infeasible: bool = False
    real_time_deadline_s: float = REAL_TIME_DEADLINE_S
    accuracy_trials: int = 0
    accuracy_seed: int = 0
    accuracy_snr_db: float = 25.0
    accuracy_channel_paths: int = 4
    _accuracy_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        check_integer("num_paths", self.num_paths, minimum=1)
        check_integer("num_delays", self.num_delays, minimum=1)
        check_integer("window_length", self.window_length, minimum=1)
        check_positive("real_time_deadline_s", self.real_time_deadline_s)
        check_integer("accuracy_trials", self.accuracy_trials, minimum=0)
        if self.accuracy_trials > 0 and (self.num_delays, self.window_length) != (112, 224):
            raise ValueError(
                "the accuracy columns model the AquaModem waveform "
                "(num_delays=112, window_length=224); run accuracy_trials=0 "
                "for other geometries"
            )
        for level in self.parallelism_levels:
            check_integer("parallelism level", level, minimum=1)
            if self.num_delays % level != 0:
                raise ValueError(
                    f"parallelism level {level} does not divide num_delays {self.num_delays}"
                )
        for bits in self.bit_widths:
            check_integer("bit width", bits, minimum=2, maximum=64)

    # ------------------------------------------------------------------ #
    def points(self) -> Iterable[DesignPoint]:
        """Enumerate the design points in the sweep order of Table 2.

        Order: bit width (outer), then parallelism (descending), then device —
        matching the row grouping of the paper's table.
        """
        for bits in self.bit_widths:
            for level in self.parallelism_levels:
                for device in self.devices:
                    yield DesignPoint(device=device, num_fc_blocks=level, word_length=bits)

    def _accuracy_columns(self, word_length: int) -> tuple[float | None, float | None]:
        """The (mean error, mean support recovery) of one word length.

        The first request runs one ``fixedpoint-bitwidth`` sweep over *all*
        of the explorer's bit widths at once (paired seeds, shared channel
        draws); later requests — including word lengths outside
        ``bit_widths`` — fill the cache incrementally.
        """
        if self.accuracy_trials <= 0:
            return None, None
        if word_length not in self._accuracy_cache:
            from repro.experiments.registry import get_scenario
            from repro.experiments.runner import run_sweep

            missing = sorted(
                ({int(bits) for bits in self.bit_widths} | {int(word_length)})
                - set(self._accuracy_cache)
            )
            spec = (
                get_scenario("fixedpoint-bitwidth").spec
                .with_axis("word_length", tuple(missing))
                .with_base(
                    snr_db=float(self.accuracy_snr_db),
                    num_channel_paths=int(self.accuracy_channel_paths),
                    num_paths=int(self.num_paths),
                )
                .with_seed(base_seed=self.accuracy_seed, replicates=self.accuracy_trials)
            )
            result = run_sweep(spec)
            errors = result.group_mean(by="word_length", metric="normalized_error")
            supports = result.group_mean(by="word_length", metric="support_recovery")
            for bits in missing:
                self._accuracy_cache[bits] = (errors[bits], supports[bits])
        return self._accuracy_cache[word_length]

    def evaluate_point(self, point: DesignPoint) -> DesignPointEvaluation:
        """Run every hardware model on one design point."""
        impl = FPGAImplementation(
            device=point.device,
            num_fc_blocks=point.num_fc_blocks,
            word_length=point.word_length,
            num_paths=self.num_paths,
            num_delays=self.num_delays,
            window_length=self.window_length,
        )
        area = impl.area
        timing = impl.timing
        mean_error, mean_support = self._accuracy_columns(point.word_length)
        return DesignPointEvaluation(
            point=point,
            implementation=impl,
            feasible=area.feasible,
            slices=area.slices,
            dsp48=area.dsp48,
            bram_blocks=area.bram_blocks,
            time_us=timing.execution_time_us,
            throughput_per_us=timing.throughput_per_us,
            power_w=impl.power.total_power_w,
            energy_uj=impl.energy.energy_uj,
            meets_deadline=timing.meets_deadline(self.real_time_deadline_s),
            mean_normalized_error=mean_error,
            mean_support_recovery=mean_support,
        )

    def explore(self) -> list[DesignPointEvaluation]:
        """Evaluate every point of the sweep."""
        evaluations = [self.evaluate_point(p) for p in self.points()]
        if self.include_infeasible:
            return evaluations
        return [e for e in evaluations if e.feasible]

    # ------------------------------------------------------------------ #
    # Analyses
    # ------------------------------------------------------------------ #
    def pareto_front(
        self, evaluations: list[DesignPointEvaluation] | None = None
    ) -> list[DesignPointEvaluation]:
        """Pareto-optimal feasible points on the (slices, energy) plane."""
        if evaluations is None:
            evaluations = self.explore()
        feasible = [e for e in evaluations if e.feasible]
        front = [
            e
            for e in feasible
            if not any(other.dominates(e) for other in feasible)
        ]
        return sorted(front, key=lambda e: e.slices)

    def minimum_energy_point(
        self, evaluations: list[DesignPointEvaluation] | None = None
    ) -> DesignPointEvaluation:
        """The feasible point with the lowest energy per estimation."""
        if evaluations is None:
            evaluations = self.explore()
        feasible = [e for e in evaluations if e.feasible]
        if not feasible:
            raise ValueError("no feasible design points in the sweep")
        return min(feasible, key=lambda e: e.energy_uj)

    def render_table(self, evaluations: list[DesignPointEvaluation] | None = None) -> str:
        """ASCII rendering in the layout of Table 2 (plus power/energy columns).

        When the evaluations carry accuracy columns (``accuracy_trials > 0``)
        an "Err vs truth" column is appended — the E6 estimation quality of
        each word length next to its area/energy cost.
        """
        if evaluations is None:
            evaluations = self.explore()
        with_accuracy = any(e.mean_normalized_error is not None for e in evaluations)
        headers = [
            "Bits", "#FC", "Device", "Feasible",
            "Slices", "Time (us)", "Tput (1/us)", "Power (W)", "Energy (uJ)",
        ]
        if with_accuracy:
            headers.append("Err vs truth")
        table = AsciiTable(
            headers=headers,
            title="Design space exploration of the MP IP core",
            float_format=".4g",
        )
        for e in evaluations:
            row = [
                e.point.word_length,
                e.point.num_fc_blocks,
                e.point.device.family,
                e.feasible,
                e.slices,
                e.time_us,
                e.throughput_per_us,
                e.power_w,
                e.energy_uj,
            ]
            if with_accuracy:
                row.append("-" if e.mean_normalized_error is None else e.mean_normalized_error)
            table.add_row(*row)
        return table.render()

"""Unit tests for the design-space exploration engine."""

from __future__ import annotations

import pytest

from repro.core.dse import (
    DesignPoint,
    DesignSpaceExplorer,
    PAPER_BIT_WIDTHS,
    REAL_TIME_DEADLINE_S,
    divisors,
)
from repro.hardware.devices import SPARTAN3_XC3S5000, VIRTEX4_XC4VSX55


class TestDivisors:
    def test_divisors_of_112(self):
        assert divisors(112) == [1, 2, 4, 7, 8, 14, 16, 28, 56, 112]

    def test_divisors_of_one(self):
        assert divisors(1) == [1]

    def test_validation(self):
        with pytest.raises(ValueError):
            divisors(0)


class TestDesignSpaceExplorer:
    @pytest.fixture(scope="class")
    def explorer(self) -> DesignSpaceExplorer:
        return DesignSpaceExplorer(include_infeasible=True)

    @pytest.fixture(scope="class")
    def evaluations(self, explorer):
        return explorer.explore()

    def test_point_count(self, evaluations):
        # 3 bit widths x 3 parallelism levels x 2 devices
        assert len(evaluations) == 18

    def test_infeasible_points_are_the_spartan3_fully_parallel_ones(self, evaluations):
        infeasible = [e for e in evaluations if not e.feasible]
        assert len(infeasible) == 3
        assert all(e.point.device.family == "Spartan-3" for e in infeasible)
        assert all(e.point.num_fc_blocks == 112 for e in infeasible)
        assert all("dsp48" in e.implementation.area.limiting_resources for e in infeasible)

    def test_feasible_only_filtering(self):
        explorer = DesignSpaceExplorer(include_infeasible=False)
        assert len(explorer.explore()) == 15

    def test_all_points_meet_realtime_deadline(self, evaluations):
        # Section V: even the most serial design is well within 22.4 ms
        assert all(e.meets_deadline for e in evaluations)
        assert all(e.time_us < REAL_TIME_DEADLINE_S * 1e6 for e in evaluations)

    def test_power_increases_with_parallelism(self, evaluations):
        for device in ("Virtex-4", "Spartan-3"):
            for bits in PAPER_BIT_WIDTHS:
                powers = {
                    e.point.num_fc_blocks: e.power_w
                    for e in evaluations
                    if e.point.device.family == device
                    and e.point.word_length == bits
                    and e.feasible
                }
                levels = sorted(powers)
                assert [powers[p] for p in levels] == sorted(powers[p] for p in levels)

    def test_energy_decreases_with_parallelism(self, evaluations):
        for device in ("Virtex-4", "Spartan-3"):
            for bits in PAPER_BIT_WIDTHS:
                energies = {
                    e.point.num_fc_blocks: e.energy_uj
                    for e in evaluations
                    if e.point.device.family == device
                    and e.point.word_length == bits
                    and e.feasible
                }
                levels = sorted(energies)
                assert [energies[p] for p in levels] == sorted(
                    (energies[p] for p in levels), reverse=True
                )

    def test_virtex4_draws_more_power_than_spartan3(self, evaluations):
        """Figure 6: the Virtex-4 consumes more power at every comparable point."""
        for bits in PAPER_BIT_WIDTHS:
            for p in (1, 14):
                v4 = next(
                    e for e in evaluations
                    if e.point.device.family == "Virtex-4"
                    and e.point.word_length == bits and e.point.num_fc_blocks == p
                )
                s3 = next(
                    e for e in evaluations
                    if e.point.device.family == "Spartan-3"
                    and e.point.word_length == bits and e.point.num_fc_blocks == p
                )
                assert v4.power_w > s3.power_w

    def test_minimum_energy_point_is_fully_parallel_8bit_virtex4(self, explorer, evaluations):
        best = explorer.minimum_energy_point(evaluations)
        assert best.point.device.family == "Virtex-4"
        assert best.point.num_fc_blocks == 112
        assert best.point.word_length == 8

    def test_pareto_front_is_nondominated_and_sorted(self, explorer, evaluations):
        front = explorer.pareto_front(evaluations)
        assert front
        slices = [e.slices for e in front]
        assert slices == sorted(slices)
        feasible = [e for e in evaluations if e.feasible]
        for member in front:
            assert not any(other.dominates(member) for other in feasible)

    def test_render_table_contains_every_point(self, explorer, evaluations):
        text = explorer.render_table(evaluations)
        assert text.count("Virtex-4") == 9
        assert text.count("Spartan-3") == 9

    def test_non_divisor_level_rejected(self):
        with pytest.raises(ValueError):
            DesignSpaceExplorer(parallelism_levels=(13,))

    def test_evaluate_point_direct(self):
        explorer = DesignSpaceExplorer()
        point = DesignPoint(VIRTEX4_XC4VSX55, num_fc_blocks=112, word_length=8)
        evaluation = explorer.evaluate_point(point)
        assert evaluation.feasible
        assert evaluation.slices == 11508
        assert "Virtex-4" in str(point)

    def test_custom_sweep_axes(self):
        explorer = DesignSpaceExplorer(
            devices=(SPARTAN3_XC3S5000,),
            parallelism_levels=(1, 2, 4),
            bit_widths=(8,),
        )
        assert len(explorer.explore()) == 3


class TestAccuracyColumn:
    """The E6 accuracy columns, computed by a ``fixedpoint-bitwidth`` sweep."""

    ACCURACY_TRIALS = 4

    @pytest.fixture(scope="class")
    def batched(self):
        explorer = DesignSpaceExplorer(
            include_infeasible=True, accuracy_trials=self.ACCURACY_TRIALS
        )
        return explorer.explore()

    def test_accuracy_columns_populated(self, batched):
        assert all(e.mean_normalized_error is not None for e in batched)
        assert all(e.mean_support_recovery is not None for e in batched)
        assert all(0.0 <= e.mean_support_recovery <= 1.0 for e in batched)

    def test_accuracy_columns_equal_scalar_oracle(self, batched):
        """The columns are the word-length means of the scalar-datapath trials."""
        from repro.experiments import get_scenario

        scenario = get_scenario("fixedpoint-bitwidth")
        spec = (
            scenario.spec.with_axis("word_length", (8, 12, 16))
            .with_base(snr_db=25.0, num_channel_paths=4, num_paths=6)
            .with_seed(base_seed=0, replicates=self.ACCURACY_TRIALS)
        )
        by_bits: dict[int, list] = {}
        for trial in spec.expand():
            metrics = scenario.run_trial(trial.params, trial.seed)
            by_bits.setdefault(trial.params["word_length"], []).append(metrics)
        for evaluation in batched:
            trials = by_bits[evaluation.point.word_length]
            assert evaluation.mean_normalized_error == (
                sum(m["normalized_error"] for m in trials) / len(trials)
            )
            assert evaluation.mean_support_recovery == (
                sum(m["support_recovery"] for m in trials) / len(trials)
            )

    def test_accuracy_depends_only_on_word_length(self, batched):
        by_width: dict[int, set] = {}
        for e in batched:
            by_width.setdefault(e.point.word_length, set()).add(
                (e.mean_normalized_error, e.mean_support_recovery)
            )
        assert all(len(values) == 1 for values in by_width.values())

    def test_wider_words_estimate_no_worse(self, batched):
        errors = {e.point.word_length: e.mean_normalized_error for e in batched}
        assert errors[16] <= errors[8]

    def test_infeasible_spartan3_fully_parallel_still_flagged(self, batched):
        """The accuracy columns must not disturb the feasibility analysis."""
        infeasible = [e for e in batched if not e.feasible]
        assert len(infeasible) == 3
        assert all(e.point.device.family == "Spartan-3" for e in infeasible)
        assert all(e.point.num_fc_blocks == 112 for e in infeasible)
        assert all(e.mean_normalized_error is not None for e in infeasible)

    def test_disabled_by_default(self):
        evaluation = DesignSpaceExplorer().explore()[0]
        assert evaluation.mean_normalized_error is None
        assert evaluation.mean_support_recovery is None

    def test_render_table_gains_accuracy_column(self, batched):
        explorer = DesignSpaceExplorer(include_infeasible=True, accuracy_trials=2)
        text = explorer.render_table(batched)
        assert "Err vs truth" in text
        plain = DesignSpaceExplorer(include_infeasible=True)
        assert "Err vs truth" not in plain.render_table(plain.explore())

    def test_accuracy_requires_aquamodem_geometry(self):
        with pytest.raises(ValueError, match="112"):
            DesignSpaceExplorer(accuracy_trials=2, num_delays=56, window_length=112)

    def test_word_length_outside_bit_widths_fills_incrementally(self):
        from repro.core.dse import DesignPoint
        from repro.hardware.devices import VIRTEX4_XC4VSX55

        explorer = DesignSpaceExplorer(bit_widths=(8,), accuracy_trials=2)
        point = DesignPoint(VIRTEX4_XC4VSX55, num_fc_blocks=14, word_length=10)
        evaluation = explorer.evaluate_point(point)
        assert evaluation.mean_normalized_error is not None

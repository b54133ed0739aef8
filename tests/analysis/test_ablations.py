"""Tests for the ablation / extension studies (experiments E6-E9)."""

from __future__ import annotations

import warnings

import pytest

from repro.analysis.ablations import (
    aquamodem_signal_matrices,
    bitwidth_accuracy_ablation,
    dsss_vs_fsk_ablation,
    network_lifetime_study,
    parallelism_ablation,
)
from repro.experiments import ResultCache
from repro.hardware.devices import SPARTAN3_XC3S5000


class TestAquamodemSignalMatrices:
    def test_geometry(self):
        matrices = aquamodem_signal_matrices()
        assert matrices.S.shape == (224, 112)


class TestBitwidthAccuracy:
    @pytest.fixture(scope="class")
    def results(self):
        return bitwidth_accuracy_ablation(
            word_lengths=(4, 8, 12), num_trials=8, snr_db=25.0, rng=0
        )

    def test_result_per_word_length(self, results):
        assert [r.word_length for r in results] == [4, 8, 12]

    def test_eight_bits_close_to_float(self, results):
        """The paper's claim (via Meng et al.): 8-10 bits suffice."""
        by_bits = {r.word_length: r for r in results}
        assert by_bits[8].mean_error_vs_float < 0.25
        assert by_bits[8].mean_support_recovery > 0.9
        assert by_bits[8].mean_normalized_error < 0.2

    def test_four_bits_clearly_worse(self, results):
        by_bits = {r.word_length: r for r in results}
        assert by_bits[4].mean_normalized_error > 1.5 * by_bits[8].mean_normalized_error

    def test_wider_words_do_not_hurt_float_agreement(self, results):
        by_bits = {r.word_length: r for r in results}
        assert by_bits[12].mean_error_vs_float <= by_bits[4].mean_error_vs_float

    def test_jobs_and_cache_apply_and_change_nothing(self, results, tmp_path):
        """The ablation is a plain sweep: a parallel, cached run is identical
        and fills the cache, with no warning about ignored arguments."""
        cache = ResultCache(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            parallel = bitwidth_accuracy_ablation(
                word_lengths=(4, 8, 12), num_trials=8, snr_db=25.0, rng=0,
                jobs=2, cache=cache,
            )
        assert parallel == results
        assert cache.count("fixedpoint-bitwidth") == 24


class TestParallelismAblation:
    def test_all_divisors_evaluated(self):
        results = parallelism_ablation()
        assert [e.point.num_fc_blocks for e in results] == [1, 2, 4, 7, 8, 14, 16, 28, 56, 112]

    def test_energy_monotone_decreasing_in_parallelism(self):
        results = parallelism_ablation()
        feasible = [e for e in results if e.feasible]
        energies = [e.energy_uj for e in feasible]
        assert energies == sorted(energies, reverse=True)

    def test_spartan3_feasibility_cutoff(self):
        results = parallelism_ablation(device=SPARTAN3_XC3S5000)
        feasibility = {e.point.num_fc_blocks: e.feasible for e in results}
        assert feasibility[28] and not feasibility[56] and not feasibility[112]


class TestDsssVsFsk:
    def test_dsss_never_worse_than_fsk(self):
        curves = dsss_vs_fsk_ablation(
            snr_points_db=(-6.0, 0.0), num_symbols=48, rng=0
        )
        assert set(curves) == {"DSSS", "FSK"}
        for dsss_point, fsk_point in zip(curves["DSSS"], curves["FSK"]):
            assert dsss_point.snr_db == fsk_point.snr_db
            assert dsss_point.symbol_error_rate <= fsk_point.symbol_error_rate


class TestNetworkLifetimeStudy:
    @pytest.fixture(scope="class")
    def lifetimes(self):
        return network_lifetime_study(grid_size=(3, 3), report_interval_s=120.0)

    def test_all_platforms_reported(self, lifetimes):
        assert set(lifetimes) == {
            "MicroBlaze", "TI C6713 DSP", "Virtex-4 1FC 16bit",
            "Spartan-3 14FC 8bit", "Virtex-4 112FC 8bit",
        }
        assert all(days > 0 for days in lifetimes.values())

    def test_lifetime_ordering_follows_processing_energy(self, lifetimes):
        assert (
            lifetimes["Virtex-4 112FC 8bit"]
            >= lifetimes["Spartan-3 14FC 8bit"]
            >= lifetimes["Virtex-4 1FC 16bit"]
            >= lifetimes["TI C6713 DSP"]
            >= lifetimes["MicroBlaze"]
        )

    def test_fpga_gains_meaningful_lifetime_over_microblaze(self, lifetimes):
        assert lifetimes["Virtex-4 112FC 8bit"] > 1.2 * lifetimes["MicroBlaze"]

    def test_duty_cycled_mode_shrinks_the_gap(self):
        continuous = network_lifetime_study(grid_size=(3, 3))
        duty_cycled = network_lifetime_study(grid_size=(3, 3), continuous_detection=False)
        gap_continuous = (
            continuous["Virtex-4 112FC 8bit"] / continuous["MicroBlaze"]
        )
        gap_duty = duty_cycled["Virtex-4 112FC 8bit"] / duty_cycled["MicroBlaze"]
        assert gap_continuous > gap_duty

"""The extension studies (experiments E6, E8, E9) through their front doors.

``repro bitwidth`` and ``repro lifetime`` render scenario sweeps, built by
:func:`repro.cli._study_spec`; the E8 parallelism study is the design-space
explorer with its infeasible points kept.  The paper's claims are checked on
what those produce.
"""

from __future__ import annotations

import warnings

import pytest

from repro.cli import _study_spec, build_parser
from repro.core.dse import DesignSpaceExplorer, divisors
from repro.experiments import ResultCache, run_sweep
from repro.hardware.devices import SPARTAN3_XC3S5000, VIRTEX4_XC4VSX55


def _spec(*argv: str):
    return _study_spec(build_parser().parse_args(list(argv)))


class TestBitwidthAccuracy:
    @pytest.fixture(scope="class")
    def spec(self):
        return _spec("bitwidth", "--trials", "8").with_axis("word_length", (4, 8, 12))

    @pytest.fixture(scope="class")
    def result(self, spec):
        return run_sweep(spec)

    @pytest.fixture(scope="class")
    def means(self, result):
        return {
            metric: result.group_mean(by="word_length", metric=metric)
            for metric in ("normalized_error", "support_recovery", "error_vs_float")
        }

    def test_trials_per_word_length(self, result):
        assert result.column("word_length") == [4] * 8 + [8] * 8 + [12] * 8

    def test_eight_bits_close_to_float(self, means):
        """The paper's claim (via Meng et al.): 8-10 bits suffice."""
        assert means["error_vs_float"][8] < 0.25
        assert means["support_recovery"][8] > 0.9
        assert means["normalized_error"][8] < 0.2

    def test_four_bits_clearly_worse(self, means):
        errors = means["normalized_error"]
        assert errors[4] > 1.5 * errors[8]

    def test_wider_words_do_not_hurt_float_agreement(self, means):
        assert means["error_vs_float"][12] <= means["error_vs_float"][4]

    def test_jobs_and_cache_apply_and_change_nothing(self, spec, result, tmp_path):
        """A parallel, cached run is identical and fills the cache, with no
        warning about ignored arguments."""
        cache = ResultCache(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            parallel = run_sweep(spec, jobs=2, cache=cache)
        assert parallel.records == result.records
        assert cache.count("fixedpoint-bitwidth") == 24


class TestParallelismSweep:
    @staticmethod
    def _explore(device):
        return DesignSpaceExplorer(
            devices=(device,),
            parallelism_levels=tuple(divisors(112)),
            bit_widths=(8,),
            include_infeasible=True,
        ).explore()

    def test_all_divisors_evaluated(self):
        results = self._explore(VIRTEX4_XC4VSX55)
        assert [e.point.num_fc_blocks for e in results] == [1, 2, 4, 7, 8, 14, 16, 28, 56, 112]

    def test_energy_monotone_decreasing_in_parallelism(self):
        feasible = [e for e in self._explore(VIRTEX4_XC4VSX55) if e.feasible]
        energies = [e.energy_uj for e in feasible]
        assert energies == sorted(energies, reverse=True)

    def test_spartan3_feasibility_cutoff(self):
        results = self._explore(SPARTAN3_XC3S5000)
        feasibility = {e.point.num_fc_blocks: e.feasible for e in results}
        assert feasibility[28] and not feasibility[56] and not feasibility[112]


class TestNetworkLifetime:
    @pytest.fixture(scope="class")
    def spec(self):
        return _spec("lifetime", "--grid", "3", "--battery-kj", "50")

    @staticmethod
    def _lifetimes(spec):
        return {r["platform"]: r["lifetime_days"] for r in run_sweep(spec).records}

    @pytest.fixture(scope="class")
    def lifetimes(self, spec):
        return self._lifetimes(spec)

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

    def test_duty_cycled_mode_shrinks_the_gap(self, spec, lifetimes):
        duty_cycled = self._lifetimes(spec.with_base(continuous_detection=False))
        gap_continuous = lifetimes["Virtex-4 112FC 8bit"] / lifetimes["MicroBlaze"]
        gap_duty = duty_cycled["Virtex-4 112FC 8bit"] / duty_cycled["MicroBlaze"]
        assert gap_continuous > gap_duty

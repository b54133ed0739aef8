"""Unit tests for the command-line interface."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import _lifetime_trials_spec, _study_spec, build_parser, main
from repro.experiments import get_scenario, run_sweep
from tests.experiments.oracle import oracle_records, scalar_oracles

GOLDEN = Path(__file__).parent / "golden"


class TestParser:
    def test_all_commands_registered(self):
        parser = build_parser()
        args = parser.parse_args(["table1"])
        assert args.command == "table1"
        for command in (
            "table2", "figure6", "table3", "report", "bitwidth", "lifetime", "estimate",
            "ipcore", "ser",
        ):
            assert parser.parse_args([command]).command == command

    def test_global_num_paths_option(self):
        args = build_parser().parse_args(["--num-paths", "4", "table3"])
        assert args.num_paths == 4

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestStudyGoldenTables:
    """The study subcommands render their scenario sweeps; their tables are
    pinned byte for byte in ``golden/``."""

    @pytest.mark.parametrize("argv, golden", [
        (["ipcore"], "ipcore.txt"),
        (["ipcore", "--parallelism", "--trials", "2"], "ipcore_parallelism_trials_2.txt"),
        (["bitwidth", "--trials", "2"], "bitwidth_trials_2.txt"),
        (["lifetime", "--grid", "3", "--battery-kj", "50"], "lifetime_grid_3_battery_kj_50.txt"),
        (["bitwidth"], "bitwidth.txt"),
        (["lifetime"], "lifetime.txt"),
    ], ids=["ipcore", "ipcore-parallelism", "bitwidth", "lifetime",
            "bitwidth-default", "lifetime-default"])
    def test_table_is_byte_identical(self, argv, golden, capsys):
        assert main(argv) == 0
        assert capsys.readouterr().out == (GOLDEN / golden).read_text(encoding="utf-8")

    def test_ser_renders_the_paired_sweep(self, capsys):
        """``repro ser`` prints one row per SNR point, read from the records
        of a one-replicate ``modem-ser-vs-snr`` sweep."""
        argv = ["ser", "--snr-db=-6,0", "--symbols", "24", "--frames", "2", "--seed", "3"]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        spec = _study_spec(build_parser().parse_args(argv))
        assert spec.seed.base_seed == 3 and spec.seed.replicates == 1
        ser = {(r["scheme"], r["snr_db"]): r["symbol_error_rate"] for r in run_sweep(spec).records}
        rows = [[cell.strip() for cell in line.split("|")] for line in lines[3:5]]
        assert [row[0] for row in rows] == ["-6", "0"]
        for row, snr in zip(rows, (-6.0, 0.0)):
            assert float(row[1]) == round(ser["DSSS", snr], 4)
            assert float(row[2]) == round(ser["FSK", snr], 4)
        assert lines[-1].startswith("elapsed: ")


class TestStudySpecs:
    """Each study flag lands on its scenario's spec; what no flag names is
    the registered scenario's.  A one-value axis folds into ``base``."""

    @staticmethod
    def _spec(*argv):
        return _study_spec(build_parser().parse_args(list(argv)))

    def test_bitwidth_trials_are_replicates_and_snr_a_base_value(self):
        spec = self._spec("bitwidth", "--trials", "3", "--snr-db", "12")
        registered = get_scenario("fixedpoint-bitwidth").spec
        assert spec.scenario == "fixedpoint-bitwidth"
        assert spec.seed.replicates == 3 and spec.seed.base_seed == registered.seed.base_seed
        assert spec.base == {**registered.base, "snr_db": 12.0}
        assert spec.grid == registered.grid

    def test_lifetime_pins_one_interval_and_topology(self):
        spec = self._spec("lifetime", "--grid", "4", "--battery-kj", "20",
                          "--report-interval-s", "90", "--topology", "random")
        registered = get_scenario("network-lifetime").spec
        assert spec.scenario == "network-lifetime"
        assert spec.grid == {}
        assert spec.zipped == registered.zipped
        assert spec.base == {**registered.base, "grid_rows": 4, "grid_cols": 4,
                             "battery_capacity_j": 20000.0,
                             "report_interval_s": 90.0, "topology": "random"}
        assert spec.seed == registered.seed

    @pytest.mark.parametrize("flags, levels", [
        ([], (1, 14, 112)),
        (["--parallelism"], (1, 2, 4, 8, 14, 28, 56, 112)),
    ], ids=["table2", "parallelism"])
    def test_ipcore_levels_word_length_and_seed_policy(self, flags, levels):
        spec = self._spec("ipcore", *flags, "--word-length", "10", "--trials", "5",
                          "--seed", "9", "--snr-db", "20")
        assert spec.scenario == "ipcore-parallelism"
        assert spec.grid == {"num_fc_blocks": levels}
        assert (spec.base["word_length"], spec.base["snr_db"]) == (10, 20.0)
        assert (spec.seed.base_seed, spec.seed.replicates) == (9, 5)

    def test_ser_snr_is_the_axis_and_one_replicate_per_point(self):
        spec = self._spec("ser", "--snr-db=-3,6", "--symbols", "24", "--frames", "3",
                          "--seed", "4")
        registered = get_scenario("modem-ser-vs-snr").spec
        assert spec.scenario == "modem-ser-vs-snr"
        assert spec.grid == {"scheme": registered.grid["scheme"], "snr_db": (-3.0, 6.0)}
        assert spec.base == {**registered.base, "num_symbols": 24, "num_frames": 3}
        assert (spec.seed.base_seed, spec.seed.replicates) == (4, 1)

    @pytest.mark.parametrize("command", ["bitwidth", "ipcore"])
    def test_trials_below_one_is_rejected(self, command):
        with pytest.raises(ValueError, match="replicates must be >= 1"):
            main([command, "--trials", "0"])


class TestMain:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "AquaModem design parameters" in out
        assert "224" in out

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "11508" in out

    def test_table3(self, capsys):
        assert main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "MicroBlaze" in out and "X" in out

    def test_figure6(self, capsys):
        assert main(["figure6"]) == 0
        assert "Energy (uJ)" in capsys.readouterr().out

    def test_estimate(self, capsys):
        assert main(["estimate", "--seed", "1", "--snr-db", "25"]) == 0
        out = capsys.readouterr().out
        assert "True channel taps" in out and "Estimated taps" in out

    def test_bitwidth(self, capsys):
        assert main(["bitwidth", "--trials", "2"]) == 0
        out = capsys.readouterr().out.lower()
        assert "word length" in out

    def test_bitwidth_jobs_prints_identical_table(self, capsys):
        assert main(["bitwidth", "--trials", "2"]) == 0
        serial = capsys.readouterr().out
        assert main(["bitwidth", "--trials", "2", "--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial

    @pytest.mark.parametrize("command", ["bitwidth", "lifetime", "ipcore", "ser"])
    @pytest.mark.parametrize("flag", ["--batch", "--no-batch"])
    def test_batch_switches_are_gone(self, command, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, flag])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_lifetime(self, capsys):
        assert main(["lifetime", "--grid", "3", "--battery-kj", "50"]) == 0
        out = capsys.readouterr().out
        assert "MicroBlaze" in out and "lifetime" in out.lower()

    @pytest.mark.parametrize("mode", [[], ["--trials", "1"]], ids=["analytical", "trials"])
    @pytest.mark.parametrize("grid", ["1", "0", "-3"])
    def test_lifetime_grid_below_two_is_a_usage_error(self, mode, grid, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["lifetime", "--grid", grid, *mode])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--grid" in err and "at least 2" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["estimate", "--snr-db", "nan"],
        ["bitwidth", "--snr-db", "inf"],
        ["ipcore", "--snr-db=-inf"],
        ["ser", "--snr-db", "nan"],
        ["ser", "--snr-db=-3,nan,3"],
        ["ser", "--snr-db", "0,inf"],
    ])
    def test_non_finite_snr_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--snr-db" in err and "finite" in err and "Traceback" not in err

    def test_ser_snr_list_rejects_a_non_number(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["ser", "--snr-db", "1,x"])
        assert excinfo.value.code == 2
        assert "invalid float value: 'x'" in capsys.readouterr().err

    def test_ser_snr_list_parses_every_point(self):
        args = build_parser().parse_args(["ser", "--snr-db=-12,-9.5,0"])
        assert args.snr_db == (-12.0, -9.5, 0.0)
        assert build_parser().parse_args(["ser"]).snr_db == (-9.0, -6.0, -3.0, 0.0, 3.0)

    @pytest.mark.parametrize("argv", [
        ["sweep", "platform-energy", "--jobs", "0"],
        ["sweep", "platform-energy", "--jobs", "-1"],
        ["bitwidth", "--jobs", "0"],
        ["lifetime", "--jobs", "-1"],
        ["submit", "platform-energy", "--jobs", "0"],
        ["serve", "--max-workers", "0"],
        ["serve", "--max-workers", "-2"],
    ])
    def test_worker_count_below_one_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "must be at least 1" in err and "Traceback" not in err

    def test_lifetime_trials_jobs_prints_identical_table(self, capsys):
        argv = ["lifetime", "--trials", "2", "--grid", "3", "--battery-kj", "1"]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        assert main([*argv, "--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial
        assert "note:" not in serial

    def test_export(self, capsys, tmp_path):
        assert main(["export", "--output-dir", str(tmp_path / "results")]) == 0
        out = capsys.readouterr().out
        assert "summary" in out
        assert (tmp_path / "results" / "summary.json").exists()
        assert (tmp_path / "results" / "table2_area_timing.csv").exists()

    def test_custom_num_paths_changes_table3(self, capsys):
        main(["--num-paths", "3", "table3"])
        out_3 = capsys.readouterr().out
        main(["--num-paths", "6", "table3"])
        out_6 = capsys.readouterr().out
        assert out_3 != out_6


class TestLifetimeTrialsSweep:
    """``lifetime --trials`` is a ``network-contention`` sweep: its records
    equal the per-packet event loop's, trial by trial."""

    @pytest.mark.parametrize("flags", [
        [],
        ["--mac", "csma", "--channel-load", "0.2", "--protocol", "flooding", "--ttl", "3"],
        ["--mac", "csma", "--channel-load", "0.3", "--max-attempts", "3",
         "--protocol", "flooding", "--ttl", "3",
         "--drift-speed", "0.02", "--drift-epoch-s", "3600", "--battery-kj", "0.15"],
        ["--topology", "random", "--grid", "4", "--mac", "csma", "--capture", "0.1",
         "--seed", "3"],
    ], ids=["mac-none", "csma-flooding", "csma-flooding-drift", "random-csma"])
    def test_records_equal_scalar_oracle(self, flags, monkeypatch):
        args = build_parser().parse_args(
            ["lifetime", "--trials", "2", "--grid", "3", "--battery-kj", "0.5", *flags]
        )
        spec = _lifetime_trials_spec(args)
        records = run_sweep(spec).records
        assert len(records) == 10
        assert all(record["lifetime_days"] is not None for record in records)
        scalar_oracles(monkeypatch)
        assert records == oracle_records(spec)

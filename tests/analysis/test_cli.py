"""Unit tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_commands_registered(self):
        parser = build_parser()
        args = parser.parse_args(["table1"])
        assert args.command == "table1"
        for command in ("table2", "figure6", "table3", "report", "bitwidth", "lifetime", "estimate"):
            assert parser.parse_args([command]).command == command

    def test_global_num_paths_option(self):
        args = build_parser().parse_args(["--num-paths", "4", "table3"])
        assert args.num_paths == 4

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


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

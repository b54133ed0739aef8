"""CLI smoke tests for ``repro scenarios`` and ``repro sweep``."""

from __future__ import annotations

import json

import pytest

from repro.cli import _parse_axis_value, _parse_set_option, main
from repro.experiments.store import read_jsonl


class TestSetOptionParsing:
    def test_value_types(self):
        assert _parse_axis_value("3") == 3 and isinstance(_parse_axis_value("3"), int)
        assert _parse_axis_value("2.5") == 2.5
        assert _parse_axis_value("true") is True
        assert _parse_axis_value("DSSS") == "DSSS"

    def test_axis_with_values(self):
        assert _parse_set_option("word_length=4,8") == ("word_length", (4, 8))
        assert _parse_set_option("scheme=DSSS") == ("scheme", ("DSSS",))

    def test_malformed_option_rejected(self):
        with pytest.raises(ValueError, match="AXIS=V1,V2"):
            _parse_set_option("word_length")
        with pytest.raises(ValueError, match="AXIS=V1,V2"):
            _parse_set_option("=4,8")


class TestScenariosCommand:
    def test_lists_builtins(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        for name in ("fixedpoint-bitwidth", "ipcore-parallelism", "modem-ser-vs-snr",
                     "platform-energy", "mp-refinement", "network-lifetime"):
            assert name in out


class TestIPCoreCommand:
    def test_ipcore_parallelism_table(self, capsys):
        assert main(["ipcore", "--parallelism", "--trials", "2"]) == 0
        out = capsys.readouterr().out
        for level in ("1 ", "14 ", "112"):
            assert level in out
        assert "27776" in out and "248" in out
        assert "bit-identical at every P" in out


class TestSweepCommand:
    def test_sweep_writes_results_and_caches(self, tmp_path, capsys):
        output = tmp_path / "out"
        cache = tmp_path / "cache"
        argv = [
            "sweep", "platform-energy",
            "--output", str(output), "--cache-dir", str(cache),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "cache hits: 0" in first

        records = read_jsonl(output / "results.jsonl")
        assert len(records) == 5
        assert (output / "results.csv").is_file()
        manifest = json.loads((output / "manifest.json").read_text())
        assert manifest["spec"]["scenario"] == "platform-energy"
        assert manifest["stats"]["num_trials"] == 5

        # second run: everything comes from the cache
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "cache hits: 5 (100%)" in second
        assert read_jsonl(output / "results.jsonl") == records

    def test_sweep_set_override_and_no_cache(self, tmp_path, capsys):
        output = tmp_path / "out"
        argv = [
            "sweep", "network-lifetime",
            "--set", "report_interval_s=120.0",
            "--set", "topology=grid",
            "--set", "grid_rows=3", "--set", "grid_cols=3",
            "--no-cache", "--output", str(output),
        ]
        assert main(argv) == 0
        records = read_jsonl(output / "results.jsonl")
        assert len(records) == 5  # 5 zipped platforms x 1 interval x 1 topology
        assert {r["grid_rows"] for r in records} == {3}
        assert {r["topology"] for r in records} == {"grid"}

    @pytest.mark.parametrize("scenario,overrides", [
        ("fixedpoint-bitwidth", ["--set", "word_length=6,8"]),
        ("ipcore-parallelism", ["--set", "num_fc_blocks=1,14", "--set", "word_length=8"]),
    ])
    def test_sweep_jobs_matches_serial(self, tmp_path, capsys, scenario, overrides):
        """Per-worker run_batch chunks write byte-identical results."""
        serial_out = tmp_path / "serial"
        parallel_out = tmp_path / "parallel"
        base = ["sweep", scenario, *overrides, "--replicates", "3", "--no-cache"]
        assert main(base + ["--output", str(serial_out)]) == 0
        assert main(base + ["--output", str(parallel_out), "--jobs", "2"]) == 0
        capsys.readouterr()
        serial = (serial_out / "results.jsonl").read_bytes()
        assert serial == (parallel_out / "results.jsonl").read_bytes()
        assert len(read_jsonl(serial_out / "results.jsonl")) == 6

    def test_unknown_scenario_exits_with_message(self, capsys):
        with pytest.raises(SystemExit, match="unknown scenario"):
            main(["sweep", "nope"])

    def test_adaptive_refuses_another_runs_segments(self, tmp_path, capsys):
        output = tmp_path / "out"
        base = [
            "sweep", "modem-ser-vs-snr", "--adaptive",
            "--ci-width", "0.2", "--min-trials", "4", "--wave", "4",
            "--no-cache", "--output", str(output),
        ]
        assert main(base + ["--max-trials", "8"]) == 0
        capsys.readouterr()
        # same config resumes over the leftover segments without complaint
        assert main(base + ["--max-trials", "8"]) == 0
        capsys.readouterr()
        # a different ceiling re-numbers the trials: merging would corrupt
        with pytest.raises(SystemExit, match="different sweep"):
            main(base + ["--max-trials", "12"])

    def test_adaptive_unknown_metric_exits_with_candidates(self, tmp_path, capsys):
        with pytest.raises(SystemExit, match="never appeared.*symbol_error_rate"):
            main([
                "sweep", "modem-ser-vs-snr", "--adaptive", "--metric", "serr",
                "--ci-width", "0.2", "--max-trials", "8", "--min-trials", "4",
                "--no-cache", "--output", str(tmp_path / "out"),
            ])

    def test_typoed_axis_rejected_with_known_parameters(self, capsys):
        with pytest.raises(SystemExit, match="unknown axis 'platfrm'.*platform"):
            main(["sweep", "platform-energy", "--set", "platfrm=X"])

    def test_zipped_axis_set_selects_rows_keeping_pairing(self, tmp_path, capsys):
        output = tmp_path / "out"
        argv = [
            "sweep", "network-lifetime",
            "--set", "platform=MicroBlaze,Virtex-4 112FC 8bit",
            "--set", "report_interval_s=120.0",
            "--set", "topology=grid",
            "--no-cache", "--output", str(output),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        records = read_jsonl(output / "results.jsonl")
        assert [(r["platform"], r["energy_uj"]) for r in records] == [
            ("MicroBlaze", 2000.40), ("Virtex-4 112FC 8bit", 9.50),
        ]

    def test_zipped_axis_unknown_value_exits_cleanly(self, capsys):
        with pytest.raises(SystemExit, match="not a value of zipped axis"):
            main(["sweep", "network-lifetime", "--set", "platform=Raspberry Pi"])

"""CLI tests for ``repro sweep --trace/--progress`` and ``repro trace``."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.telemetry.tracing import read_trace, validate_trace


@pytest.fixture()
def traced_sweep(tmp_path, capsys):
    """One traced platform-energy sweep; yields its output directory."""
    output = tmp_path / "out"
    argv = ["sweep", "platform-energy", "--no-cache",
            "--output", str(output), "--trace"]
    assert main(argv) == 0
    capsys.readouterr()
    return output


class TestSweepTraceFlag:
    def test_writes_valid_trace_next_to_results(self, traced_sweep):
        trace_path = traced_sweep / "trace.jsonl"
        assert trace_path.is_file()
        records = read_trace(trace_path)
        assert validate_trace(records) == []
        manifest = json.loads((traced_sweep / "manifest.json").read_text())
        trial_spans = sum(1 for r in records if r.name == "trial")
        assert trial_spans == manifest["stats"]["num_trials"]

    def test_trace_path_is_reported(self, tmp_path, capsys):
        output = tmp_path / "out"
        assert main(["sweep", "platform-energy", "--no-cache",
                     "--output", str(output), "--trace"]) == 0
        assert f"trace: {output / 'trace.jsonl'}" in capsys.readouterr().out

    def test_untraced_sweep_writes_no_trace(self, tmp_path, capsys):
        output = tmp_path / "out"
        assert main(["sweep", "platform-energy", "--no-cache",
                     "--output", str(output)]) == 0
        capsys.readouterr()
        assert not (output / "trace.jsonl").exists()

    def test_artifact_write_has_a_span(self, traced_sweep):
        writes = [r for r in read_trace(traced_sweep / "trace.jsonl") if r.name == "store.write"]
        assert len(writes) == 1
        assert writes[0].parent_id is None
        assert writes[0].attributes == {"records": 5}

    def test_adaptive_merge_has_a_span(self, tmp_path, capsys):
        output = tmp_path / "out"
        assert main([
            "sweep", "modem-ser-vs-snr", "--adaptive", "--ci-width", "0.2",
            "--max-trials", "4", "--min-trials", "4", "--wave", "4",
            "--no-cache", "--output", str(output), "--trace",
        ]) == 0
        capsys.readouterr()
        assert main(["trace", str(output / "trace.jsonl"), "--check"]) == 0
        assert "trace check OK" in capsys.readouterr().out
        names = [r.name for r in read_trace(output / "trace.jsonl")]
        assert names.count("store.merge") == 1 and "store.write" not in names

    def test_manifest_metrics_folded_when_traced(self, traced_sweep):
        manifest = json.loads((traced_sweep / "manifest.json").read_text())
        metrics = manifest["stats"]["metrics"]
        assert metrics["sweep.trials_executed"] == 5


class TestSweepProgressFlag:
    def test_progress_heartbeats_on_stderr(self, tmp_path, capsys):
        output = tmp_path / "out"
        assert main(["sweep", "platform-energy", "--no-cache",
                     "--output", str(output), "--progress"]) == 0
        err = capsys.readouterr().err
        assert "progress: 0/5" in err
        assert "done in" in err


class TestBatchedSweepTrace:
    """A batch-native sweep (one ``run_batch`` call per chunk) still traces
    one ``trial`` span per trial, so ``repro trace --check`` holds."""

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_ipcore_sweep_passes_trace_check(self, tmp_path, capsys, jobs):
        output = tmp_path / "out"
        assert main(["sweep", "ipcore-parallelism", "--no-cache", "--replicates", "2",
                     "--jobs", jobs, "--output", str(output), "--trace"]) == 0
        capsys.readouterr()
        assert main(["trace", str(output / "trace.jsonl"), "--check"]) == 0
        out = capsys.readouterr().out
        assert "trace check OK" in out
        assert "manifest cross-check: 18 trial spans == stats.num_trials" in out
        records = read_trace(output / "trace.jsonl")
        batches = [r for r in records if r.name == "trial.batch"]
        assert len(batches) == int(jobs)  # one run_batch chunk per worker
        assert sum(r.attributes["trials"] for r in batches) == 18


class TestTraceCommand:
    def test_summary_report(self, traced_sweep, capsys):
        assert main(["trace", str(traced_sweep / "trace.jsonl")]) == 0
        out = capsys.readouterr().out
        assert "Span tree" in out
        assert "sweep.execute" in out
        assert "Slowest 'trial' spans" in out

    def test_check_passes_and_cross_checks_manifest(self, traced_sweep, capsys):
        assert main(["trace", str(traced_sweep / "trace.jsonl"), "--check"]) == 0
        out = capsys.readouterr().out
        assert "trace check OK" in out
        assert "manifest cross-check: 5 trial spans" in out

    def test_check_fails_on_corrupt_tree(self, traced_sweep, capsys):
        trace_path = traced_sweep / "trace.jsonl"
        lines = trace_path.read_text().splitlines()
        payload = json.loads(lines[0])
        payload["parent_id"] = "ghost.99"
        lines[0] = json.dumps(payload)
        trace_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SystemExit, match="trace check FAILED"):
            main(["trace", str(trace_path), "--check"])

    def test_check_fails_on_trial_count_mismatch(self, traced_sweep):
        trace_path = traced_sweep / "trace.jsonl"
        kept = [line for line in trace_path.read_text().splitlines()
                if json.loads(line)["name"] != "trial"]
        trace_path.write_text("\n".join(kept) + "\n")
        with pytest.raises(SystemExit, match="manifest records num_trials=5"):
            main(["trace", str(trace_path), "--check"])

    def test_missing_file_exits_cleanly(self):
        with pytest.raises(SystemExit, match="cannot read trace file"):
            main(["trace", "/nonexistent/trace.jsonl"])


class TestVerbosityFlags:
    def test_verbose_and_quiet_are_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit):
            main(["-v", "-q", "scenarios"])

    def test_verbose_emits_sweep_diagnostics(self, tmp_path, capsys, caplog):
        output = tmp_path / "out"
        import logging

        with caplog.at_level(logging.DEBUG, logger="repro.experiments.runner"):
            assert main(["--verbose", "sweep", "platform-energy", "--no-cache",
                         "--output", str(output)]) == 0
        assert any("cache scan done" in message for message in caplog.messages)

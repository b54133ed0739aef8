"""Unit tests for the CI benchmark regression comparator (benchmarks/compare.py)."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "bench_compare",
    Path(__file__).resolve().parents[2] / "benchmarks" / "compare.py",
)
compare = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare)


def write_bench(
    path: Path, stats: dict[str, float], speedups: dict[str, float] | None = None
) -> str:
    speedups = speedups or {}
    payload = {
        "benchmarks": [
            {
                "name": name,
                "stats": {"min": value, "mean": value * 1.1},
                "extra_info": (
                    {"speedup": speedups[name]} if name in speedups else {}
                ),
            }
            for name, value in stats.items()
        ]
    }
    path.write_text(json.dumps(payload))
    return str(path)


class TestCompare:
    def test_within_threshold_passes(self, tmp_path, capsys):
        baseline = write_bench(tmp_path / "base.json", {"bench_a": 1.0, "bench_b": 2.0})
        current = write_bench(tmp_path / "cur.json", {"bench_a": 1.2, "bench_b": 1.9})
        assert compare.main([baseline, current, "--max-slowdown", "1.30"]) == 0
        assert "all 2 benchmarks within" in capsys.readouterr().out

    def test_regression_fails(self, tmp_path, capsys):
        baseline = write_bench(tmp_path / "base.json", {"bench_a": 1.0})
        current = write_bench(tmp_path / "cur.json", {"bench_a": 1.5})
        assert compare.main([baseline, current, "--max-slowdown", "1.30"]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert "FAIL bench_a" in out

    def test_speedup_passes(self, tmp_path):
        baseline = write_bench(tmp_path / "base.json", {"bench_a": 2.0})
        current = write_bench(tmp_path / "cur.json", {"bench_a": 0.5})
        assert compare.main([baseline, current]) == 0

    def test_missing_baseline_passes_with_note(self, tmp_path, capsys):
        current = write_bench(tmp_path / "cur.json", {"bench_a": 1.0})
        assert compare.main([str(tmp_path / "nope.json"), current]) == 0
        assert "no baseline" in capsys.readouterr().out

    def test_corrupt_baseline_treated_as_missing(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        current = write_bench(tmp_path / "cur.json", {"bench_a": 1.0})
        assert compare.main([str(bad), current]) == 0

    def test_missing_current_errors(self, tmp_path):
        baseline = write_bench(tmp_path / "base.json", {"bench_a": 1.0})
        assert compare.main([baseline, str(tmp_path / "nope.json")]) == 2

    def test_required_benchmark_enforced(self, tmp_path, capsys):
        baseline = write_bench(tmp_path / "base.json", {"bench_a": 1.0})
        current = write_bench(tmp_path / "cur.json", {"bench_a": 1.0})
        assert compare.main([baseline, current, "--require", "bench_a"]) == 0
        assert compare.main([baseline, current, "--require", "network_batch"]) == 2
        assert "required benchmarks not found" in capsys.readouterr().out

    def test_disjoint_benchmarks_pass(self, tmp_path, capsys):
        """Renamed benchmarks compare nothing — pass, never crash."""
        baseline = write_bench(tmp_path / "base.json", {"old_name": 1.0})
        current = write_bench(tmp_path / "cur.json", {"new_name": 1.0})
        assert compare.main([baseline, current]) == 0
        assert "no common benchmarks" in capsys.readouterr().out

    def test_mean_metric_selectable(self, tmp_path):
        baseline = write_bench(tmp_path / "base.json", {"bench_a": 1.0})
        current = write_bench(tmp_path / "cur.json", {"bench_a": 1.25})
        # min ratio 1.25 < 1.30 passes; mean is also 1.25x -> still passes
        assert compare.main([baseline, current, "--metric", "mean"]) == 0


class TestSpeedupBasis:
    def test_in_run_speedup_preferred_over_wallclock(self, tmp_path, capsys):
        """A slower VM (2x wall-clock) must not fail when the in-run relative
        speedup held steady — the speedup basis is runner-speed independent."""
        baseline = write_bench(tmp_path / "base.json", {"bench_a": 1.0},
                               speedups={"bench_a": 15.0})
        current = write_bench(tmp_path / "cur.json", {"bench_a": 2.0},
                              speedups={"bench_a": 14.5})
        assert compare.main([baseline, current]) == 0
        assert "speedup" in capsys.readouterr().out

    def test_degraded_speedup_fails_even_with_fast_wallclock(self, tmp_path, capsys):
        baseline = write_bench(tmp_path / "base.json", {"bench_a": 1.0},
                               speedups={"bench_a": 15.0})
        current = write_bench(tmp_path / "cur.json", {"bench_a": 0.9},
                              speedups={"bench_a": 6.0})  # 2.5x worse relative
        assert compare.main([baseline, current]) == 1
        assert "FAIL bench_a [speedup]" in capsys.readouterr().out

    def test_wallclock_fallback_when_speedup_missing_on_one_side(self, tmp_path):
        baseline = write_bench(tmp_path / "base.json", {"bench_a": 1.0})
        current = write_bench(tmp_path / "cur.json", {"bench_a": 1.5},
                              speedups={"bench_a": 15.0})
        assert compare.main([baseline, current]) == 1  # falls back to 1.5x wall-clock


#: two metrics with the directions and bounds of BENCHMARK.json's end-to-end set
BOUNDS = {"end_to_end": [
    {"name": "op_p50_ref", "better": "lower", "bound": 0.25},
    {"name": "trials_per_ref", "better": "higher", "bound": 0.25},
]}


def ledger(**changes: tuple[float, float]) -> dict:
    """A one-workload ledger: metric -> (parent median, change median)."""
    metrics = {name: {"parent": {"median": parent}, "change": {"median": change}}
               for name, (parent, change) in changes.items()}
    return {"end_to_end": {"cli-sweep": {"metrics": metrics}}}


class TestCheckLedger:
    def test_a_gain_in_either_direction_passes(self):
        lines, breaches = compare.check_ledger(
            ledger(op_p50_ref=(1.0, 0.5), trials_per_ref=(1.0, 2.0)), BOUNDS)
        assert breaches == []
        assert len(lines) == 2 and all(line.endswith("ok") for line in lines)

    def test_a_change_exactly_at_the_bound_passes(self):
        _, breaches = compare.check_ledger(
            ledger(op_p50_ref=(1.0, 1.25), trials_per_ref=(1.0, 0.75)), BOUNDS)
        assert breaches == []

    def test_lower_is_better_breaches_upwards_only(self):
        _, breaches = compare.check_ledger(
            ledger(op_p50_ref=(2.0, 2.6), trials_per_ref=(1.0, 1.0)), BOUNDS)
        assert breaches == ["cli-sweep op_p50_ref: +30.0% against a 25% bound"]

    def test_higher_is_better_breaches_downwards_only(self):
        _, breaches = compare.check_ledger(
            ledger(op_p50_ref=(1.0, 1.0), trials_per_ref=(4.0, 2.8)), BOUNDS)
        assert breaches == ["cli-sweep trials_per_ref: -30.0% against a 25% bound"]

    def test_a_single_file_without_a_ledger_is_an_error(self, tmp_path, capsys):
        plain = write_bench(tmp_path / "bench.json", {"bench_a": 1.0})
        assert compare.main([plain]) == 2
        assert "no 'end_to_end' key" in capsys.readouterr().out

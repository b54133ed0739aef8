#!/usr/bin/env python3
"""Compare two pytest-benchmark JSON files, or check a committed ledger.

Used by CI: the previous successful run's benchmark artifact is downloaded
(when available) and compared against the current run's JSON; a benchmark
that slowed down by more than ``--max-slowdown`` fails the job.  A missing
or empty baseline passes with a note (first run, renamed benchmark, expired
artifact), so the gate never blocks bootstrap.

Benchmarks that record an in-run relative ``speedup`` in ``extra_info``
(the batched-engine benchmarks measure batch vs reference loop in the same
process) are compared on that ratio instead of absolute wall-clock, so the
gate is robust to CI runner VMs of different speeds across runs; plain
benchmarks fall back to the wall-clock metric.

Usage::

    python benchmarks/compare.py baseline.json current.json \
        --max-slowdown 1.30 [--metric min|mean] [--require NAME ...]

``--require`` marks benchmarks that must exist in the current file (e.g. the
link-batch, network-batch, fixedpoint-batch and ipcore-batch benchmarks),
guarding against a gate that silently compares nothing.

Given one file, a ``BENCH_<pr>.json`` ledger (it has an ``end_to_end``
key), it checks the ledger instead::

    python benchmarks/compare.py BENCH_19.json

For every workload and end-to-end metric, the change's median must not be
worse than the parent's median by more than the metric's bound in
``BENCHMARK.json`` (relative, in the metric's ``better`` direction).
Exit 1 on a breach.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def load_benchmarks(path: str) -> dict[str, dict] | None:
    """Benchmark stats + extra_info by name, or None when the file is absent/unreadable."""
    file = Path(path)
    if not file.is_file():
        return None
    try:
        payload = json.loads(file.read_text())
    except (OSError, ValueError):
        return None
    return {
        bench["name"]: {
            "stats": bench.get("stats", {}),
            "extra_info": bench.get("extra_info", {}),
        }
        for bench in payload.get("benchmarks", [])
    }


def compare(
    baseline: dict[str, dict],
    current: dict[str, dict],
    metric: str,
    max_slowdown: float,
) -> tuple[list[tuple[str, str, float, float, float]], list[str]]:
    """Per-benchmark (name, basis, baseline, current, ratio) rows plus failures.

    ``ratio > 1`` always means "got worse".  When both sides recorded an
    in-run relative ``speedup`` the ratio is baseline_speedup /
    current_speedup (runner-speed independent); otherwise it is
    current_time / baseline_time on the wall-clock ``metric``.
    """
    rows: list[tuple[str, str, float, float, float]] = []
    failures: list[str] = []
    for name in sorted(set(baseline) & set(current)):
        base_speedup = baseline[name]["extra_info"].get("speedup")
        current_speedup = current[name]["extra_info"].get("speedup")
        if base_speedup and current_speedup:
            basis = "speedup"
            base_value, current_value = base_speedup, current_speedup
            ratio = base_speedup / current_speedup
        else:
            basis = metric
            base_value = baseline[name]["stats"].get(metric)
            current_value = current[name]["stats"].get(metric)
            if not base_value or current_value is None:
                continue
            ratio = current_value / base_value
        rows.append((name, basis, base_value, current_value, ratio))
        if ratio > max_slowdown:
            failures.append(
                f"{name} [{basis}]: {current_value:.4f} vs baseline {base_value:.4f} "
                f"({ratio:.2f}x worse > allowed {max_slowdown:.2f}x)"
            )
    return rows, failures


def check_ledger(ledger: dict, benchmark: dict) -> tuple[list[str], list[str]]:
    """One line per workload x end-to-end metric of a ledger, plus its breaches.

    The change's median is compared with the parent's as a relative change;
    it breaches when it is worse, in the metric's ``better`` direction, by
    more than the metric's bound.
    """
    lines: list[str] = []
    breaches: list[str] = []
    for workload, result in ledger["end_to_end"].items():
        for entry in benchmark["end_to_end"]:
            name, bound = entry["name"], entry["bound"]
            medians = result["metrics"][name]
            parent, change = medians["parent"]["median"], medians["change"]["median"]
            shift = (change - parent) / parent
            worse_by = shift if entry["better"] == "lower" else -shift
            verdict = "BREACH" if worse_by > bound else "ok"
            lines.append(f"{workload:<12} {name:<15} {parent:>11.4g} {change:>11.4g} "
                         f"{shift:>+8.1%} {bound:>6.0%}  {verdict}")
            if worse_by > bound:
                breaches.append(f"{workload} {name}: {shift:+.1%} against a {bound:.0%} bound")
    return lines, breaches


def main_ledger(path: str) -> int:
    """Check one ``BENCH_<pr>.json`` ledger against ``BENCHMARK.json``'s bounds."""
    ledger = json.loads(Path(path).read_text())
    if "end_to_end" not in ledger:
        print(f"error: {path!r} has no 'end_to_end' key; give two benchmark files to compare")
        return 2
    lines, breaches = check_ledger(ledger, json.loads(BENCHMARK.read_text()))
    print(f"{'workload':<12} {'metric':<15} {'parent':>11} {'change':>11} "
          f"{'shift':>8} {'bound':>6}  verdict")
    print("\n".join(lines))
    if breaches:
        print()
        for breach in breaches:
            print(f"FAIL {breach}")
        return 1
    print(f"\nall {len(lines)} end-to-end medians within their bounds")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="previous run's benchmark JSON, or a BENCH_<pr>.json "
                        "ledger to check on its own")
    parser.add_argument("current", nargs="?", help="this run's benchmark JSON")
    parser.add_argument("--max-slowdown", type=float, default=1.30,
                        help="fail when current/baseline exceeds this (default: 1.30)")
    parser.add_argument("--metric", choices=("min", "mean", "median"), default="min",
                        help="stat to compare (default: min, the least noisy)")
    parser.add_argument("--require", action="append", default=[], metavar="SUBSTRING",
                        help="fail unless a current benchmark name contains this "
                        "substring (repeatable)")
    args = parser.parse_args(argv)
    if args.current is None:
        return main_ledger(args.baseline)

    current = load_benchmarks(args.current)
    if current is None:
        print(f"error: current benchmark file {args.current!r} is missing or unreadable")
        return 2
    missing = [
        required for required in args.require
        if not any(required in name for name in current)
    ]
    if missing:
        print(f"error: required benchmarks not found in {args.current!r}: {missing}")
        print(f"       present: {sorted(current)}")
        return 2

    baseline = load_benchmarks(args.baseline)
    if baseline is None:
        print(f"no baseline at {args.baseline!r} — first run or expired artifact; "
              "nothing to compare, passing")
        return 0
    rows, failures = compare(baseline, current, args.metric, args.max_slowdown)
    if not rows:
        print("no common benchmarks between baseline and current — passing")
        return 0
    width = max(len(name) for name, *_ in rows)
    print(f"{'benchmark':<{width}}  basis    baseline   current  worse-by")
    for name, basis, base_value, current_value, ratio in rows:
        marker = "  << REGRESSION" if ratio > args.max_slowdown else ""
        print(
            f"{name:<{width}}  {basis:<7}  {base_value:8.4f}  {current_value:8.4f}"
            f"  {ratio:5.2f}x{marker}"
        )
    if failures:
        print()
        for failure in failures:
            print(f"FAIL {failure}")
        return 1
    print(f"\nall {len(rows)} benchmarks within {args.max_slowdown:.2f}x of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())

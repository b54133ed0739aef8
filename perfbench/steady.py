"""Steadiness check: repeated runs of every workload, interleaved.

    python3 perfbench/steady.py --runs 10 --first-seed 1 --save a.json
    python3 perfbench/steady.py --runs 10 --first-seed 101 --compare a.json

Round ``i`` runs each workload once with seed ``first_seed + i``, so drift
of the host hits every workload alike.  For each end-to-end metric it
prints the median, the quartiles and the spread (interquartile range over
median) against the metric's bound in ``BENCHMARK.json``; ``--compare``
also checks each median against an earlier saved set.  Exit code 1 when a
run fails or a spread or a median shift exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from harness.stats import spread

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=None, help="comma-separated (default: all)")
    parser.add_argument("--save", default=None, help="write the raw values here (JSON)")
    parser.add_argument("--compare", default=None, help="earlier --save file to compare with")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = (args.workloads.split(",") if args.workloads
                 else [entry["name"] for entry in spec["workloads"]])
    values: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
    ok = True
    for index in range(args.runs):
        for workload in workloads:
            result = run_once(workload, args.first_seed + index, spec["run_seconds"])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {args.first_seed + index}: "
                      f"{result['failed']}/{result['attempted']} ops failed")
                ok = False
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            print(f"run {index + 1}/{args.runs} {workload}: " + ", ".join(
                f"{name}={metric['value']:.4g}" for name, metric in result["metrics"].items()
            ), flush=True)

    earlier = json.loads(Path(args.compare).read_text()) if args.compare else None
    print(f"\n{'workload':<12} {'metric':<13} {'unit':<5} {'median':>10} {'q1':>10} "
          f"{'q3':>10} {'spread':>7} {'bound':>6}  verdict")
    for workload in workloads:
        for entry in spec["end_to_end"]:
            name, bound = entry["name"], entry["bound"]
            samples = values[workload][name]
            if len(samples) < 2:
                print(f"{workload:<12} {name:<13} {entry['unit']:<5} {samples[0]:>10.4g}")
                continue
            q1, q2, q3 = statistics.quantiles(samples, n=4)
            share = spread(samples)
            verdict = "ok" if share <= bound / 3 else "wide" if share <= bound else "TOO WIDE"
            ok = ok and share <= bound
            if earlier is not None:
                before = statistics.median(earlier[workload][name])
                now = statistics.median(samples)
                change = (now - before) / before
                worse = change > bound if entry["better"] == "lower" else -change > bound
                verdict += f"; median {change:+.1%} vs saved" + (" WORSE" if worse else "")
                ok = ok and not worse
            print(f"{workload:<12} {name:<13} {entry['unit']:<5} {q2:>10.4g} {q1:>10.4g} "
                  f"{q3:>10.4g} {share:>7.2%} {bound:>6.0%}  {verdict}")
    if args.save:
        Path(args.save).write_text(json.dumps(values, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""End-to-end benchmark of the ``repro`` package: one workload per run.

    python3 perfbench/run.py --workload cli-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is run from ``src/``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  A readable report goes to standard error.  The exit code is
non-zero, and no result is printed, when the run cannot be made.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import traceback

from harness import cli_sweep, service_mix
from harness.host import BENCH_DIR, Context, Outcome, Sentinel, cli_probes
from harness.stats import median

WORKLOADS = {
    "cli-sweep": cli_sweep.run,
    "service-mix": service_mix.run,
}
ROOT = BENCH_DIR.parent


def end_to_end(outcome: Outcome, sentinel: Sentinel) -> dict[str, float]:
    """The end-to-end metrics; op times count in reference-process times.

    Each op's wall time is divided by the mean of the reference samples
    taken just before and just after it (``host.Sentinel``), which cancels
    the host's speed drift that raw seconds carry from run to run.
    """
    relative = [op["wall"] / sentinel.reference(op["ref"]) for op in outcome.ops]
    return {
        "setup_s": median(outcome.setup),
        "trials_per_ref": sum(op["records"] for op in outcome.ops) / sum(relative),
        "op_p50_ref": median(relative),
        "peak_rss_mb": outcome.peak_rss_mb,
    }


def wall_clock(outcome: Outcome) -> dict[str, float]:
    """``op_p50_ref`` and ``trials_per_ref`` in plain seconds, as the run saw them."""
    walls = [op["wall"] for op in outcome.ops]
    return {
        "wall.op_p50_s": median(walls),
        "wall.trials_per_s": sum(op["records"] for op in outcome.ops) / sum(walls),
    }


def per_layer(ctx: Context, outcome: Outcome, sentinel: Sentinel,
              failed: int, attempted: int) -> dict[str, float]:
    metrics = dict(outcome.layers)
    metrics.update(cli_probes(ctx))
    metrics.update(wall_clock(outcome))
    plain = sum(op["wall"] for op in outcome.ops) / len(outcome.ops)
    traced = sum(op["wall"] for op in outcome.traced_ops) / len(outcome.traced_ops)
    metrics["telemetry.overhead_ratio"] = traced / plain
    metrics["host.cpu_per_wall"] = outcome.cpu_per_wall
    metrics["host.calib_s"] = median(sentinel.samples)
    metrics["fail_ratio"] = failed / attempted
    return metrics


def purpose_lines(workload: str, layers: dict[str, float]) -> list[str]:
    """The layer shares that say each workload measures what it was built for."""
    if workload == "cli-sweep":
        share = layers["cli.import_s"] / layers["wall.op_p50_s"]
        return [f"purpose: cli.import_s is {share:.0%} of the median op time (expected > 50%)"]
    share = layers["trace.engine_share"]
    return [f"purpose: engine calls take {share:.0%} of traced op time (expected < 50%)"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    ctx = Context(root=ROOT, workdir=workdir, seed=args.seed, seconds=args.seconds,
                  trace=bool(args.trace))
    sentinel = Sentinel(ctx)
    try:
        outcome = WORKLOADS[args.workload](ctx, sentinel)
        ops = outcome.ops + outcome.traced_ops
        failures = [op["error"] for op in ops if op["error"] is not None]
        e2e = end_to_end(outcome, sentinel)
        measured = (per_layer(ctx, outcome, sentinel, len(failures), len(ops))
                    if args.trace else e2e)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        ctx.stop_all()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    report = [f"{args.workload} seed={args.seed}: {len(outcome.ops)} ops untraced, "
              f"{len(outcome.traced_ops)} traced, {len(failures)} failed; "
              f"setup samples {[round(s, 3) for s in outcome.setup]}",
              f"host.calib_s (reference process) samples: min {min(sentinel.samples):.5f} "
              f"median {median(sentinel.samples):.5f} max {max(sentinel.samples):.5f} "
              f"({len(sentinel.samples)})"]
    report += [f"{name} = {value:.6g}" for name, value in {**e2e, **wall_clock(outcome)}.items()]
    report += [f"failed op: {error}" for error in failures[:10]]
    if args.trace:
        report += outcome.report + purpose_lines(args.workload, measured)
        report += [f"{entry['name']} = 0 (not exercised by {args.workload})"
                   for entry in wanted if entry["name"] not in measured]
    print("\n".join(report), file=sys.stderr)

    result = {
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {entry["name"]: {"value": float(measured.get(entry["name"], 0.0)),
                                    "unit": entry["unit"]} for entry in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark — the batch-native fixed-point sweep vs its scalar oracle (E6).

Runs the full bitwidth ablation (the paper's six word lengths, 48 paired
Monte-Carlo channels each) two ways at equal trial counts and records the
speed-up:

* the default path — a plain ``run_sweep`` of the ``fixedpoint-bitwidth``
  scenario (what ``repro bitwidth`` renders), which hands every cache miss
  to the scenario's ``run_batch`` (one ``estimate_batch`` per word length);
* the scalar oracle, called directly — the scenario's ``run_trial`` (the
  scalar :meth:`~repro.core.fixedpoint_mp.FixedPointMatchingPursuit.estimate`)
  once per trial, aggregated the same way.

The batched datapath is pinned bit-identical on raw integer codes, so
besides being faster the sweep returns *identical* results — which this
benchmark also asserts, both at the aggregated-ablation level and trial by
trial, making it an end-to-end equivalence check at benchmark scale.

The hard gate is >= 5x; the scalar path pays dozens of small NumPy calls per
trial while the batched datapath re-quantises whole trial stacks at once,
and the remaining floor is the per-trial metric evaluation both paths share.
The measured ratio is stored in ``extra_info`` (and the benchmark JSON
artifact in CI, where ``benchmarks/compare.py`` tracks regressions against
the previous run).
"""

from __future__ import annotations

import time

from repro.experiments import get_scenario, run_sweep
from repro.utils.tables import format_table

TRIALS = 48
ROUNDS = 3
MIN_SPEEDUP = 5.0
METRICS = ("normalized_error", "support_recovery", "error_vs_float")

#: The paper's six word lengths at 25 dB, TRIALS paired channels each.
SPEC = get_scenario("fixedpoint-bitwidth").spec.with_seed(base_seed=0, replicates=TRIALS)
WORD_LENGTHS = SPEC.grid["word_length"]


def _means(rows) -> dict[int, list[float]]:
    """Per word length, the mean of every metric over ``(word_length, metrics)`` rows."""
    by_bits: dict[int, list[dict]] = {}
    for bits, metrics in rows:
        by_bits.setdefault(bits, []).append(metrics)
    return {
        bits: [sum(float(metrics[name]) for metrics in group) / len(group) for name in METRICS]
        for bits, group in by_bits.items()
    }


def _ablation():
    return _means((record["word_length"], record) for record in run_sweep(SPEC).records)


def _scalar_metrics() -> list[dict]:
    """The scalar oracle, called directly: ``run_trial`` once per trial."""
    scenario = get_scenario("fixedpoint-bitwidth")
    return [scenario.run_trial(trial.params, trial.seed) for trial in SPEC.expand()]


def _scalar_ablation():
    return _means(
        (trial.params["word_length"], metrics)
        for trial, metrics in zip(SPEC.expand(), _scalar_metrics())
    )


def test_bench_fixedpoint_batch(benchmark):
    # Interleave the sweep and scalar measurements round by round so
    # machine-load drift hits both equally; the gate uses the interleaved
    # minima (round 1 also warms the shared memoised channel problems, so
    # neither path is charged for problem generation the other skips).
    paths = {True: _ablation, False: _scalar_ablation}
    times = {True: float("inf"), False: float("inf")}
    results = {}
    for _ in range(ROUNDS):
        for batch in (False, True):
            start = time.perf_counter()
            outcome = paths[batch]()
            times[batch] = min(times[batch], time.perf_counter() - start)
            results[batch] = outcome

    # result identity at benchmark scale — aggregated ablation results ...
    assert results[True] == results[False], "batched ablation diverged from the oracle"
    # ... and the underlying metrics, trial for trial, with ==
    records = run_sweep(SPEC).records
    assert [{name: r[name] for name in METRICS} for r in records] == _scalar_metrics()

    # the recorded pytest-benchmark timing is the batch-native sweep
    benchmark.pedantic(_ablation, iterations=1, rounds=1)

    speedup = times[False] / times[True]
    benchmark.extra_info["word_lengths"] = len(WORD_LENGTHS)
    benchmark.extra_info["trials_per_word_length"] = TRIALS
    benchmark.extra_info["scalar_sweep_s"] = round(times[False], 4)
    benchmark.extra_info["batch_s"] = round(times[True], 4)
    benchmark.extra_info["speedup"] = round(speedup, 2)

    print()
    print(
        format_table(
            ["Path", "Time (s)", "Speed-up"],
            [
                ("scalar oracle (run_trial)", round(times[False], 3), "1.0x"),
                ("run_sweep (run_batch)", round(times[True], 3), f"{speedup:.1f}x"),
            ],
            title=(
                f"E6 bitwidth ablation — batch-native sweep vs scalar oracle "
                f"({len(WORD_LENGTHS)} word lengths x {TRIALS} trials)"
            ),
        )
    )

    assert speedup >= MIN_SPEEDUP, (
        f"batched bitwidth ablation only {speedup:.2f}x faster (gate: {MIN_SPEEDUP}x)"
    )

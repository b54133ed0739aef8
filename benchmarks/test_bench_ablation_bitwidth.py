"""Experiment E6 (ablation) — channel-estimation accuracy vs datapath bit width.

Section IV.C, citing Meng et al. [21], claims 8-10 bits with optimal
dynamic-range scaling are sufficient for accurate channel estimation.  The
ablation sweeps the word length of the fixed-point MP datapath and measures
estimation error against the true channel and against the floating-point
reference.
"""

from __future__ import annotations

from repro.experiments import get_scenario, run_sweep
from repro.utils.tables import format_table

#: The paper's six word lengths at 25 dB, 12 paired channels each (what
#: ``repro bitwidth`` renders).
SPEC = get_scenario("fixedpoint-bitwidth").spec.with_seed(base_seed=0, replicates=12)
METRICS = ("normalized_error", "support_recovery", "error_vs_float")


def test_bench_ablation_bitwidth(benchmark):
    result = benchmark.pedantic(run_sweep, args=(SPEC,), iterations=1, rounds=1)
    error, support, vs_float = (
        result.group_mean(by="word_length", metric=metric) for metric in METRICS
    )
    print()
    print(
        format_table(
            ["Word length", "error vs true channel", "support recovery", "error vs float MP"],
            [(bits, error[bits], support[bits], vs_float[bits]) for bits in error],
            title="E6 — fixed-point MP accuracy vs word length",
        )
    )

    # the paper's claim: 8 bits are already accurate ...
    assert support[8] > 0.9
    assert vs_float[8] < 0.25
    assert error[8] < 0.2
    # ... 10+ bits do not change the story ...
    assert abs(error[10] - error[8]) < 0.1
    assert vs_float[16] < 0.1
    # ... while very low precision clearly degrades estimation
    assert error[4] > 1.5 * error[8]

"""Experiment E7 (ablation) — DS-SS vs FSK symbol error rate in multipath.

Section III motivates the DS-SS waveform by the claim (Freitag et al.,
Proakis) that spread-spectrum signalling yields significantly lower error
rates than FSK in the frequency-selective underwater channel.  The benchmark
runs both schemes over the same random shallow-water multipath channels (the
``modem-ser-vs-snr`` scenario's paired seeds) at a sweep of SNRs, pools the
symbol errors of 30 replicates, and checks the claim where the pooled counts
carry it.

One draw cannot carry it: at -9 dB DS-SS makes more errors than FSK in most
draws and in the pooled counts (the MP channel estimate of the matched
filter + RAKE receiver breaks down), and single draws show DS-SS errors at
0 and 3 dB.  The -9 dB crossover is asserted too, so a receiver change that
moves it is noticed.
"""

from __future__ import annotations

from collections import Counter

from repro.experiments import get_scenario, run_sweep
from repro.utils.tables import format_table

SNR_POINTS_DB = (-9.0, -6.0, -3.0, 0.0, 3.0)
SPEC = (
    get_scenario("modem-ser-vs-snr").spec
    .with_axis("snr_db", SNR_POINTS_DB)
    .with_base(num_symbols=120, num_frames=10)
    .with_seed(base_seed=0, replicates=30)
)


def test_bench_ablation_dsss_vs_fsk(benchmark):
    result = benchmark.pedantic(run_sweep, args=(SPEC,), iterations=1, rounds=1)
    errors: Counter = Counter()
    sent: Counter = Counter()
    for record in result.records:
        errors[record["scheme"], record["snr_db"]] += record["symbol_errors"]
        sent[record["scheme"], record["snr_db"]] += record["symbols_sent"]
    ser = {key: errors[key] / sent[key] for key in sent}
    print()
    print(
        format_table(
            ["SNR (dB)", "DS-SS errors", "FSK errors", "DS-SS SER", "FSK SER"],
            [
                (snr, errors["DSSS", snr], errors["FSK", snr], ser["DSSS", snr], ser["FSK", snr])
                for snr in SNR_POINTS_DB
            ],
            title="E7 — symbol errors pooled over 30 paired draws, DS-SS vs "
            "non-coherent FSK (multipath channel)",
        )
    )

    # who wins: DS-SS makes fewer errors from -6 dB up ...
    for snr in SNR_POINTS_DB[1:]:
        assert errors["DSSS", snr] < errors["FSK", snr], (snr, errors)
    # ... FSK pays a real multipath penalty: at least twice the DS-SS SER from -3 dB up ...
    for snr in (-3.0, 0.0, 3.0):
        assert ser["FSK", snr] > 2 * ser["DSSS", snr], (snr, ser)
    # ... the DS-SS link is essentially error free once the per-sample SNR reaches 0 dB ...
    assert ser["DSSS", 0.0] < 0.01 and ser["DSSS", 3.0] < 0.01
    # ... and below -6 dB the order flips: the -9 dB crossover
    assert errors["DSSS", -9.0] > errors["FSK", -9.0], errors

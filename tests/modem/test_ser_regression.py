"""Statistical regression guard for the E7 conclusion (batched engine).

Future refactors of the batched engine must not bend the physics: over a
fixed seed set the SER curves stay monotone non-increasing in SNR (common
random numbers pair the channel/noise realisations across SNR points), the
DS-SS link is error free at high SNR, and DS-SS is no worse than FSK there —
the Section III claim experiment E7 exists to check.
"""

from __future__ import annotations

import pytest

from repro.analysis.ablations import dsss_vs_fsk_ablation
from repro.modem.link import LinkSimulator

SNR_POINTS_DB = (-12.0, -9.0, -6.0, -3.0, 0.0, 3.0, 6.0)
SEEDS = (0, 1, 2)
HIGH_SNR_DB = (0.0, 3.0, 6.0)


def _aggregated_ser(scheme: str) -> list[float]:
    """Pooled SER per SNR point; seeds are re-used across points (CRN pairing)."""
    sent = {snr: 0 for snr in SNR_POINTS_DB}
    errors = {snr: 0 for snr in SNR_POINTS_DB}
    for seed in SEEDS:
        for snr in SNR_POINTS_DB:
            result = LinkSimulator(rng=seed).run(
                scheme, snr, num_symbols=120, num_frames=10
            )
            sent[snr] += result.symbols_sent
            errors[snr] += result.symbol_errors
    return [errors[snr] / sent[snr] for snr in SNR_POINTS_DB]


@pytest.mark.parametrize("scheme", ["DSSS", "FSK"])
def test_ser_monotone_non_increasing_in_snr(scheme):
    ser = _aggregated_ser(scheme)
    assert all(lo >= hi for lo, hi in zip(ser, ser[1:])), (
        f"{scheme} SER not monotone over SNR: {ser}"
    )
    # the sweep actually exercises both regimes
    assert ser[0] > 0.0
    assert ser[-1] == 0.0


def test_dsss_error_free_and_no_worse_than_fsk_at_high_snr():
    for seed in SEEDS:
        for snr in HIGH_SNR_DB:
            dsss = LinkSimulator(rng=seed).run(
                "DSSS", snr, num_symbols=120, num_frames=10
            )
            fsk = LinkSimulator(rng=seed).run(
                "FSK", snr, num_symbols=120, num_frames=10
            )
            assert dsss.symbol_error_rate == 0.0
            assert dsss.symbol_error_rate <= fsk.symbol_error_rate


def test_ablation_preserves_e7_conclusion_on_batched_engine():
    """The E7 ablation itself (unpaired scheme streams), on the batched engine."""
    curves = dsss_vs_fsk_ablation(
        snr_points_db=(-9.0, -6.0, -3.0, 0.0, 3.0), num_symbols=120, rng=0
    )
    dsss = [r.symbol_error_rate for r in curves["DSSS"]]
    fsk = [r.symbol_error_rate for r in curves["FSK"]]
    assert all(d <= f for d, f in zip(dsss, fsk))
    assert dsss[-2] == 0.0 and dsss[-1] == 0.0

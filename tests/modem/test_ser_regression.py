"""Statistical regression guard for the E7 conclusion (batched engine).

Future refactors of the batched engine must not bend the physics: over a
fixed seed set the SER curves stay monotone non-increasing in SNR (common
random numbers pair the channel/noise realisations across SNR points), the
DS-SS link is error free at high SNR, and DS-SS is no worse than FSK there —
the Section III claim experiment E7 exists to check.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.experiments import get_scenario, run_sweep
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


def test_e7_conclusion_holds_on_pooled_paired_draws():
    """DS-SS makes fewer symbol errors than FSK from -6 dB up, pooled over
    paired ``modem-ser-vs-snr`` replicates (both schemes see the same
    channels in each).

    One draw cannot carry the claim: at -9 dB DS-SS loses in most draws and
    in the pooled counts, and single draws show DS-SS errors at 0 and 3 dB.
    So the claim is asserted where the pooled counts hold it, not at -9 dB.
    """
    spec = (
        get_scenario("modem-ser-vs-snr").spec
        .with_axis("snr_db", (-9.0, -6.0, -3.0, 0.0, 3.0))
        .with_base(num_symbols=120, num_frames=10)
        .with_seed(base_seed=0, replicates=8)
    )
    errors: Counter = Counter()
    sent: Counter = Counter()
    for record in run_sweep(spec).records:
        errors[record["scheme"], record["snr_db"]] += record["symbol_errors"]
        sent[record["scheme"], record["snr_db"]] += record["symbols_sent"]
    for snr in (-6.0, -3.0, 0.0, 3.0):
        assert errors["DSSS", snr] < errors["FSK", snr], (snr, errors)
    for snr in (0.0, 3.0):
        assert errors["DSSS", snr] / sent["DSSS", snr] < 0.01, (snr, errors)

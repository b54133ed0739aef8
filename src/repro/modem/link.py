"""Monte-Carlo link-level simulation: symbol error rate vs SNR.

Experiment E7 checks the claim (Section III, citing Freitag et al.) that
DS-SS waveforms achieve lower error rates than FSK in the frequency-selective
underwater channel.  :class:`LinkSimulator` runs both schemes over the same
multipath channels and noise realisations and reports symbol error rates.

The simulation runs on the batched engine
(:class:`repro.modem.batch.BatchLinkEngine`), which vectorises the
Monte-Carlo loop across frames while consuming an identical RNG stream.  The
original per-frame loops, :meth:`LinkSimulator.run_dsss_perframe` and
:meth:`LinkSimulator.run_fsk_perframe`, are kept as the executable
specification (the same role :func:`matching_pursuit_naive` plays for the
vectorised Matching Pursuits) and are pinned seed-for-seed equal to the
batched engine by ``tests/modem/test_batch_equivalence.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.channel.multipath import MultipathChannel, random_sparse_channel
from repro.channel.simulator import add_noise_for_snr, apply_channel
from repro.dsp.modulation.fsk import FSKModulator
from repro.modem.config import AquaModemConfig
from repro.modem.receiver import Receiver
from repro.modem.transmitter import Transmitter
from repro.utils.rng import as_rng
from repro.utils.validation import check_integer

__all__ = ["LinkResult", "LinkSimulator"]


@dataclass(frozen=True)
class LinkResult:
    """Outcome of one link simulation at one SNR point."""

    scheme: str
    snr_db: float
    symbols_sent: int
    symbol_errors: int

    @property
    def symbol_error_rate(self) -> float:
        """Estimated symbol error rate (errors / symbols).

        With no symbols sent the rate is undefined and reported as NaN — a
        silent 0.0 would read as "error free" in aggregated SER curves.
        """
        if self.symbols_sent == 0:
            return float("nan")
        return self.symbol_errors / self.symbols_sent


@dataclass
class LinkSimulator:
    """Monte-Carlo link simulator for the DS-SS and FSK schemes.

    Parameters
    ----------
    config:
        AquaModem waveform configuration.
    channel:
        Multipath channel; ``None`` draws a fresh random sparse channel per
        frame (matching how field conditions change between packets).
    num_channel_paths:
        Number of paths of the randomly drawn channels.
    rng:
        Seed or generator for symbols, channels and noise.
    """

    config: AquaModemConfig = field(default_factory=AquaModemConfig)
    channel: MultipathChannel | None = None
    num_channel_paths: int = 4
    rng: np.random.Generator | int | None = None

    def __post_init__(self) -> None:
        self.rng = as_rng(self.rng)
        self.transmitter = Transmitter(config=self.config)
        self.receiver = Receiver(config=self.config)
        self.fsk = FSKModulator(
            num_tones=self.config.walsh_symbols,
            samples_per_symbol=self.config.samples_per_symbol,
            guard_samples=self.config.samples_per_guard,
        )
        self._engine = None

    @property
    def engine(self):
        """The batched engine, sharing this simulator's RNG stream."""
        if self._engine is None:
            from repro.modem.batch import BatchLinkEngine

            self._engine = BatchLinkEngine(
                config=self.config,
                channel=self.channel,
                num_channel_paths=self.num_channel_paths,
                rng=self.rng,
                transmitter=self.transmitter,
                receiver=self.receiver,
                fsk=self.fsk,
            )
        return self._engine

    # ------------------------------------------------------------------ #
    def _draw_channel(self) -> MultipathChannel:
        if self.channel is not None:
            return self.channel
        max_delay = max(self.config.multipath_spread_samples, self.num_channel_paths * 2 + 1)
        return random_sparse_channel(
            num_paths=self.num_channel_paths,
            max_delay=max_delay,
            rng=self.rng,
        )

    def run_dsss(self, snr_db: float, num_symbols: int, num_frames: int = 10) -> LinkResult:
        """Simulate the DS-SS + MP + RAKE chain at one SNR point."""
        return self.engine.run_dsss(snr_db, num_symbols, num_frames)

    def run_dsss_perframe(
        self, snr_db: float, num_symbols: int, num_frames: int = 10
    ) -> LinkResult:
        """Per-frame reference loop for the DS-SS chain (executable spec)."""
        check_integer("num_symbols", num_symbols, minimum=1)
        check_integer("num_frames", num_frames, minimum=1)
        symbols_per_frame = max(1, num_symbols // num_frames)
        errors = 0
        sent = 0
        for _ in range(num_frames):
            channel = self._draw_channel()
            tx_symbols = self.rng.integers(0, self.config.walsh_symbols, size=symbols_per_frame)
            frame = self.transmitter.transmit_symbols(tx_symbols)
            received = apply_channel(frame.samples, channel)
            received = add_noise_for_snr(received, snr_db, rng=self.rng)
            output = self.receiver.receive(received)
            n = min(output.symbols.shape[0], tx_symbols.shape[0])
            errors += int(np.count_nonzero(output.symbols[:n] != tx_symbols[:n]))
            sent += n
        return LinkResult(scheme="DSSS", snr_db=snr_db, symbols_sent=sent, symbol_errors=errors)

    def run_fsk(self, snr_db: float, num_symbols: int, num_frames: int = 10) -> LinkResult:
        """Simulate the non-coherent FSK chain at one SNR point."""
        return self.engine.run_fsk(snr_db, num_symbols, num_frames)

    def run_fsk_perframe(
        self, snr_db: float, num_symbols: int, num_frames: int = 10
    ) -> LinkResult:
        """Per-frame reference loop for the FSK chain (executable spec)."""
        check_integer("num_symbols", num_symbols, minimum=1)
        check_integer("num_frames", num_frames, minimum=1)
        symbols_per_frame = max(1, num_symbols // num_frames)
        errors = 0
        sent = 0
        for _ in range(num_frames):
            channel = self._draw_channel()
            tx_symbols = self.rng.integers(0, self.fsk.alphabet_size, size=symbols_per_frame)
            samples = self.fsk.modulate(tx_symbols)
            received = apply_channel(samples, channel)
            received = add_noise_for_snr(received, snr_db, rng=self.rng)
            result = self.fsk.demodulate(received)
            n = min(result.symbols.shape[0], tx_symbols.shape[0])
            errors += int(np.count_nonzero(result.symbols[:n] != tx_symbols[:n]))
            sent += n
        return LinkResult(scheme="FSK", snr_db=snr_db, symbols_sent=sent, symbol_errors=errors)

    def run(self, scheme: str, snr_db: float, num_symbols: int, num_frames: int = 10) -> LinkResult:
        """Dispatch to :meth:`run_dsss` or :meth:`run_fsk` by scheme name."""
        scheme_lower = scheme.lower()
        if scheme_lower in ("dsss", "ds-ss", "ds_cdma", "dscdma"):
            return self.run_dsss(snr_db, num_symbols, num_frames)
        if scheme_lower == "fsk":
            return self.run_fsk(snr_db, num_symbols, num_frames)
        raise ValueError(f"unknown scheme {scheme!r}; expected 'DSSS' or 'FSK'")

    def run_curve(
        self,
        scheme: str,
        snr_points_db: list[float],
        num_symbols: int,
        num_frames: int = 10,
    ) -> list[LinkResult]:
        """SER at each SNR point (the batched engine pipelines the points)."""
        return self.engine.run_curve(scheme, snr_points_db, num_symbols, num_frames)


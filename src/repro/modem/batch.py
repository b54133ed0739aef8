"""Batched Monte-Carlo link-simulation engine (the fast E7 hot path).

:class:`repro.modem.link.LinkSimulator` specifies the experiment one frame at
a time: draw a channel, draw symbols, modulate, pass through the channel, add
noise, receive, count errors.  That inner loop is pure Python calling tiny
NumPy kernels, so the Monte-Carlo SER-vs-SNR curves behind the paper's
DS-SS-beats-FSK claim spend most of their time in interpreter overhead.

:class:`BatchLinkEngine` runs the *same experiment* vectorised across all
frames of an SNR point:

* the random draws (channel taps, transmit symbols, unit noise) are made
  frame by frame in **exactly the order the per-frame loop makes them**, so
  with a shared seed the engine consumes an identical RNG stream and — since
  every arithmetic step below is element-for-element identical — produces the
  received sample stack *bit for bit* equal to the per-frame path's frames;
* modulation is one fancy-indexed assignment for the whole batch
  (``modulate_batch``), the multipath channels and noise are applied as
  batched array ops (``apply_channel_batch`` / ``add_noise_for_snr_batch``),
  every frame's pilot is channel-estimated in a single batched Matching
  Pursuits call (``matching_pursuit_batch``), and all symbol decisions fall
  out of batched correlation matmuls (``receive_batch`` /
  ``demodulate_batch``).

The equivalence is locked down by ``tests/modem/test_batch_equivalence.py``;
``benchmarks/test_bench_link_batch.py`` records the speed-up.
"""

from __future__ import annotations

import contextvars
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro.channel.multipath import (
    MultipathChannel,
    random_sparse_channel,
    stack_channel_taps,
)
from repro.channel.simulator import (
    add_noise_for_snr_batch,
    apply_channel_batch,
    measure_signal_power_batch,
)
from repro.dsp.modulation.fsk import FSKModulator
from repro.modem.config import AquaModemConfig
from repro.modem.link import LinkResult
from repro.modem.receiver import Receiver
from repro.modem.transmitter import Transmitter
from repro.telemetry.metrics import counter, histogram
from repro.telemetry.tracing import span
from repro.utils.rng import as_rng
from repro.utils.validation import check_integer

__all__ = ["BatchLinkEngine"]

# per-batch telemetry (one update per SNR point, never per frame)
_FRAMES = counter("engine.link.frames")
_RNG_DRAWS = counter("engine.link.rng_draws")
_BATCH_FRAMES = histogram("engine.link.batch_frames")


@dataclass
class BatchLinkEngine:
    """Batched Monte-Carlo link simulator for the DS-SS and FSK schemes.

    Accepts the same parameters as
    :class:`~repro.modem.link.LinkSimulator` and, given the same seed,
    returns the same :class:`~repro.modem.link.LinkResult` counts — just
    several times faster.  ``LinkSimulator.run_dsss``/``run_fsk`` always run
    here (the per-frame loops stay as the executable specification);
    construct the engine directly only when driving the batched primitives
    yourself.

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
    #: Optional pre-built chain components (``LinkSimulator`` passes its own
    #: so the engine shares the already-constructed signal matrices).
    transmitter: Transmitter | None = None
    receiver: Receiver | None = None
    fsk: FSKModulator | None = None

    def __post_init__(self) -> None:
        self.rng = as_rng(self.rng)
        if self.transmitter is None:
            self.transmitter = Transmitter(config=self.config)
        if self.receiver is None:
            self.receiver = Receiver(config=self.config)
        if self.fsk is None:
            self.fsk = FSKModulator(
                num_tones=self.config.walsh_symbols,
                samples_per_symbol=self.config.samples_per_symbol,
                guard_samples=self.config.samples_per_guard,
            )

    # ------------------------------------------------------------------ #
    def _draw_channel(self) -> MultipathChannel:
        """One channel draw, RNG-identical to ``LinkSimulator._draw_channel``."""
        if self.channel is not None:
            return self.channel
        max_delay = max(self.config.multipath_spread_samples, self.num_channel_paths * 2 + 1)
        return random_sparse_channel(
            num_paths=self.num_channel_paths,
            max_delay=max_delay,
            rng=self.rng,
        )

    def _draw_frames(
        self, num_frames: int, symbols_per_frame: int, alphabet_size: int, frame_samples: int
    ) -> tuple[list[MultipathChannel], np.ndarray, tuple[np.ndarray, np.ndarray]]:
        """All random draws for a batch, in the per-frame loop's stream order.

        The per-frame path interleaves its draws — channel, transmit symbols,
        noise (real then imaginary) — for frame 0, then frame 1, and so on.
        Keeping that interleaving is what makes the engine seed-locked; the
        noise normals are drawn *unscaled* here because their per-frame scale
        depends on the received signal power, which is computed later as a
        batched op.
        """
        channels: list[MultipathChannel] = []
        tx_symbols = np.empty((num_frames, symbols_per_frame), dtype=np.int64)
        noise_real = np.empty((num_frames, frame_samples), dtype=np.float64)
        noise_imag = np.empty((num_frames, frame_samples), dtype=np.float64)
        for t in range(num_frames):
            channels.append(self._draw_channel())
            tx_symbols[t] = self.rng.integers(0, alphabet_size, size=symbols_per_frame)
            self.rng.standard_normal(out=noise_real[t])
            self.rng.standard_normal(out=noise_imag[t])
        _FRAMES.inc(num_frames)
        _BATCH_FRAMES.observe(num_frames)
        # symbols + 2 noise fills per frame, plus the channel draw when fresh
        _RNG_DRAWS.inc(num_frames * (3 + (1 if self.channel is None else 0)))
        return channels, tx_symbols, (noise_real, noise_imag)

    def _faded_stream(
        self,
        channels: list[MultipathChannel],
        symbols: np.ndarray,
        waveforms: np.ndarray,
        window_samples: int,
    ) -> np.ndarray | None:
        """Modulation + multipath, fused: fade the alphabet, gather the frames.

        Every transmitted symbol occupies ``window_samples`` (waveform + guard
        interval), and when each channel's largest tap delay plus the waveform
        length fits inside the window, a symbol's faded energy never leaves
        its own window.  The channel output is then fully determined by each
        frame's *faded alphabet* — the channel applied to the (small) waveform
        set — and the frame streams are a single gather of those faded
        waveforms, element-for-element identical to modulating the whole
        stream and convolving it (same per-tap products, same tap order).
        Returns ``None`` when a channel spills past the window; the caller
        then modulates the full stream and convolves it the generic way.
        """
        frames, _ = symbols.shape
        alphabet, symbol_samples = waveforms.shape
        delays, gains = stack_channel_taps(channels)
        if int(delays.max(initial=0)) + symbol_samples > window_samples:
            return None  # a tap spills into the next window; caller falls back
        faded_alphabet = np.zeros(
            (frames, alphabet, window_samples), dtype=np.complex128
        )
        for k in range(delays.shape[1]):
            slot_delays = delays[:, k]
            d = int(slot_delays[0])
            if np.all(slot_delays == d):
                faded_alphabet[:, :, d : d + symbol_samples] += (
                    gains[:, k, np.newaxis, np.newaxis] * waveforms[np.newaxis, :, :]
                )
                continue
            for t in range(frames):
                g = gains[t, k]
                if g == 0.0:
                    continue
                d = int(slot_delays[t])
                faded_alphabet[t, :, d : d + symbol_samples] += g * waveforms
        gathered = faded_alphabet[np.arange(frames)[:, np.newaxis], symbols]
        return gathered.reshape(frames, symbols.shape[1] * window_samples)

    def _received_batch(
        self, faded: np.ndarray, snr_db: float,
        unit_noise: tuple[np.ndarray, np.ndarray],
    ) -> np.ndarray:
        """Per-frame-SNR noise for the whole batch (in place; ``faded`` is dead)."""
        return add_noise_for_snr_batch(
            faded, snr_db,
            signal_power=measure_signal_power_batch(faded),
            unit_noise=unit_noise,
            out=faded,
        )

    @staticmethod
    def _count_errors(
        detected: np.ndarray, tx_symbols: np.ndarray
    ) -> tuple[int, int]:
        """Aggregate (symbols sent, symbol errors) over a decision batch."""
        n = min(detected.shape[1], tx_symbols.shape[1])
        errors = int(np.count_nonzero(detected[:, :n] != tx_symbols[:, :n]))
        return detected.shape[0] * n, errors

    # ------------------------------------------------------------------ #
    # draw / compute halves: the draw half consumes the RNG stream (in
    # per-frame order), the compute half is pure deterministic arithmetic —
    # which is what lets run_curve overlap the two across SNR points.
    # ------------------------------------------------------------------ #
    def _prepare_dsss(self, num_symbols: int, num_frames: int):
        """All random draws for one DS-SS SNR point (stream-order locked)."""
        check_integer("num_symbols", num_symbols, minimum=1)
        check_integer("num_frames", num_frames, minimum=1)
        with span("engine.link.draw", scheme="DSSS", frames=num_frames):
            symbols_per_frame = max(1, num_symbols // num_frames)
            # pilot + payload symbols, each followed by a guard interval
            pilot_symbols = 1 if self.transmitter.pilot_symbol is not None else 0
            frame_samples = (
                (symbols_per_frame + pilot_symbols)
                * self.transmitter.samples_per_symbol_period
            )
            channels, tx_symbols, unit_noise = self._draw_frames(
                num_frames, symbols_per_frame, self.config.walsh_symbols, frame_samples
            )
            full_symbols = tx_symbols
            if pilot_symbols:
                pilot = np.full((num_frames, 1), self.transmitter.pilot_symbol, dtype=np.int64)
                full_symbols = np.concatenate([pilot, tx_symbols], axis=1)
            return channels, tx_symbols, full_symbols, unit_noise

    def _finish_dsss(self, prepared, snr_db: float) -> LinkResult:
        """Deterministic arithmetic for one DS-SS SNR point."""
        channels, tx_symbols, full_symbols, unit_noise = prepared
        with span("engine.link.compute", scheme="DSSS", snr_db=snr_db):
            modulator = self.transmitter.modulator
            faded = self._faded_stream(
                channels, full_symbols, modulator.waveforms, modulator.samples_per_symbol
            )
            if faded is None:
                faded = apply_channel_batch(modulator.modulate_batch(full_symbols), channels)
            received = self._received_batch(faded, snr_db, unit_noise)
            output = self.receiver.receive_batch(received)
            sent, errors = self._count_errors(output.symbols, tx_symbols)
        return LinkResult(scheme="DSSS", snr_db=snr_db, symbols_sent=sent, symbol_errors=errors)

    def _prepare_fsk(self, num_symbols: int, num_frames: int):
        """All random draws for one FSK SNR point (stream-order locked)."""
        check_integer("num_symbols", num_symbols, minimum=1)
        check_integer("num_frames", num_frames, minimum=1)
        with span("engine.link.draw", scheme="FSK", frames=num_frames):
            symbols_per_frame = max(1, num_symbols // num_frames)
            frame_samples = symbols_per_frame * self.fsk.samples_per_symbol
            channels, tx_symbols, unit_noise = self._draw_frames(
                num_frames, symbols_per_frame, self.fsk.alphabet_size, frame_samples
            )
            return channels, tx_symbols, unit_noise

    def _finish_fsk(self, prepared, snr_db: float) -> LinkResult:
        """Deterministic arithmetic for one FSK SNR point."""
        channels, tx_symbols, unit_noise = prepared
        with span("engine.link.compute", scheme="FSK", snr_db=snr_db):
            faded = self._faded_stream(
                channels, tx_symbols, self.fsk.tones, self.fsk.samples_per_symbol
            )
            if faded is None:
                faded = apply_channel_batch(self.fsk.modulate_batch(tx_symbols), channels)
            received = self._received_batch(faded, snr_db, unit_noise)
            result = self.fsk.demodulate_batch(received)
            sent, errors = self._count_errors(result.symbols, tx_symbols)
        return LinkResult(scheme="FSK", snr_db=snr_db, symbols_sent=sent, symbol_errors=errors)

    def _halves(self, scheme: str):
        scheme_lower = scheme.lower()
        if scheme_lower in ("dsss", "ds-ss", "ds_cdma", "dscdma"):
            return self._prepare_dsss, self._finish_dsss
        if scheme_lower == "fsk":
            return self._prepare_fsk, self._finish_fsk
        raise ValueError(f"unknown scheme {scheme!r}; expected 'DSSS' or 'FSK'")

    # ------------------------------------------------------------------ #
    def run_dsss(self, snr_db: float, num_symbols: int, num_frames: int = 10) -> LinkResult:
        """Simulate the DS-SS + MP + RAKE chain at one SNR point, batched."""
        return self._finish_dsss(self._prepare_dsss(num_symbols, num_frames), snr_db)

    def run_fsk(self, snr_db: float, num_symbols: int, num_frames: int = 10) -> LinkResult:
        """Simulate the non-coherent FSK chain at one SNR point, batched."""
        return self._finish_fsk(self._prepare_fsk(num_symbols, num_frames), snr_db)

    def run(self, scheme: str, snr_db: float, num_symbols: int, num_frames: int = 10) -> LinkResult:
        """Dispatch to :meth:`run_dsss` or :meth:`run_fsk` by scheme name."""
        prepare, finish = self._halves(scheme)
        return finish(prepare(num_symbols, num_frames), snr_db)

    def run_curve(
        self,
        scheme: str,
        snr_points_db: list[float],
        num_symbols: int,
        num_frames: int = 10,
    ) -> list[LinkResult]:
        """Evaluate a whole SER-vs-SNR curve with draw/compute overlap.

        The random draws of successive SNR points must stay in stream order
        (that is the seed-lock), but each point's arithmetic never touches
        the generator — so the curve runs as a two-stage pipeline: the main
        thread draws point ``t+1`` while a worker thread computes point ``t``
        (NumPy's generator fills and array ops release the GIL).  At most
        two points' draws are in flight, so memory stays bounded no matter
        how long the curve is.  Results are identical to sequential
        :meth:`run` calls, point for point.
        """
        prepare, finish = self._halves(scheme)
        results: list[LinkResult] = []
        with span("engine.link.curve", scheme=scheme, points=len(snr_points_db)):
            with ThreadPoolExecutor(max_workers=1) as executor:
                pending: deque = deque()
                for snr in snr_points_db:
                    prepared = prepare(num_symbols, num_frames)
                    while len(pending) >= 2:
                        results.append(pending.popleft().result())
                    # copy_context: the worker thread's compute spans nest
                    # under this curve span instead of vanishing
                    ctx = contextvars.copy_context()
                    pending.append(executor.submit(ctx.run, finish, prepared, snr))
                results.extend(future.result() for future in pending)
        return results

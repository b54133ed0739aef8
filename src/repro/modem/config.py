"""AquaModem design parameters (Table 1) and their derived quantities.

The paper fixes the MP input sizes from the AquaModem's waveform design:

=============================  =======  ==============================
Walsh symbol length            Nw       8 symbols
m-sequence length              Lpn      7 chips
Chip duration                  Tc       0.2 ms
Sampling interval              Ts=Tc/2  0.1 ms
Symbol duration                Tsym     Lpn*Nw*Tc = 11.2 ms
Time guard interval            Tg       Tsym = 11.2 ms
Samples per symbol             Ns       Tsym/Ts = 112
Samples per time guard         Nt       Tg/Ts = 112
Total receive vector samples   Rv       Ns + Nt = 224
=============================  =======  ==============================

:class:`AquaModemConfig` encodes the three primary parameters (and the
carrier/waveform constraints behind them) and derives everything else, so the
whole Table 1 is regenerated from first principles by the E1 benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.utils.validation import check_integer, check_positive

if TYPE_CHECKING:
    from repro.dsp.signal_matrix import SignalMatrices

__all__ = ["AquaModemConfig", "aquamodem_signal_matrices"]


@dataclass(frozen=True)
class AquaModemConfig:
    """Configuration of the DS-SS AquaModem waveform.

    Parameters
    ----------
    walsh_symbols:
        ``Nw`` — number of orthogonal Walsh symbols (and Walsh code length).
    spreading_chips:
        ``Lpn`` — m-sequence length in chips.
    chip_duration_s:
        ``Tc`` — chip duration in seconds.
    samples_per_chip:
        Oversampling factor (2 => ``Ts = Tc/2``, Nyquist for the chip rate).
    guard_factor:
        Guard interval as a multiple of the symbol duration (1.0 in Table 1).
    num_paths:
        ``Nf`` — number of channel paths estimated by MP (6 from the Moorea
        field tests).
    carrier_frequency_hz:
        Acoustic carrier frequency (the AquaModem family operates around
        24 kHz); used by the propagation models, not by the baseband maths.
    multipath_spread_s:
        Design assumption for the shallow-water multipath spread (10 ms);
        the symbol duration must exceed it.
    """

    walsh_symbols: int = 8
    spreading_chips: int = 7
    chip_duration_s: float = 0.2e-3
    samples_per_chip: int = 2
    guard_factor: float = 1.0
    num_paths: int = 6
    carrier_frequency_hz: float = 24_000.0
    multipath_spread_s: float = 10e-3

    def __post_init__(self) -> None:
        check_integer("walsh_symbols", self.walsh_symbols, minimum=2)
        if self.walsh_symbols & (self.walsh_symbols - 1) != 0:
            raise ValueError(f"walsh_symbols must be a power of two, got {self.walsh_symbols}")
        check_integer("spreading_chips", self.spreading_chips, minimum=1)
        check_positive("chip_duration_s", self.chip_duration_s)
        check_integer("samples_per_chip", self.samples_per_chip, minimum=1)
        if self.guard_factor < 0:
            raise ValueError(f"guard_factor must be >= 0, got {self.guard_factor}")
        check_integer("num_paths", self.num_paths, minimum=1)
        check_positive("carrier_frequency_hz", self.carrier_frequency_hz)
        check_positive("multipath_spread_s", self.multipath_spread_s)

    # ------------------------------------------------------------------ #
    # Table 1 derived quantities
    # ------------------------------------------------------------------ #
    @property
    def chips_per_symbol(self) -> int:
        """Total chips per composite waveform: ``Nw * Lpn`` (56)."""
        return self.walsh_symbols * self.spreading_chips

    @property
    def sampling_interval_s(self) -> float:
        """``Ts = Tc / samples_per_chip`` (0.1 ms)."""
        return self.chip_duration_s / self.samples_per_chip

    @property
    def sampling_rate_hz(self) -> float:
        """Baseband sampling rate ``1 / Ts`` (10 kHz)."""
        return 1.0 / self.sampling_interval_s

    @property
    def symbol_duration_s(self) -> float:
        """``Tsym = Lpn * Nw * Tc`` (11.2 ms)."""
        return self.chips_per_symbol * self.chip_duration_s

    @property
    def guard_duration_s(self) -> float:
        """``Tg = guard_factor * Tsym`` (11.2 ms)."""
        return self.guard_factor * self.symbol_duration_s

    @property
    def samples_per_symbol(self) -> int:
        """``Ns = Tsym / Ts`` (112)."""
        return self.chips_per_symbol * self.samples_per_chip

    @property
    def samples_per_guard(self) -> int:
        """``Nt = Tg / Ts`` (112)."""
        return int(round(self.samples_per_symbol * self.guard_factor))

    @property
    def receive_vector_samples(self) -> int:
        """``Rv = Ns + Nt`` (224)."""
        return self.samples_per_symbol + self.samples_per_guard

    @property
    def total_symbol_period_s(self) -> float:
        """Time between successive receive vectors: ``Tsym + Tg`` (22.4 ms)."""
        return self.symbol_duration_s + self.guard_duration_s

    @property
    def bits_per_symbol(self) -> int:
        """log2(Nw) (3 bits)."""
        return self.walsh_symbols.bit_length() - 1

    @property
    def raw_bit_rate_bps(self) -> float:
        """Raw data rate: bits per symbol over the full symbol period (~134 bps)."""
        return self.bits_per_symbol / self.total_symbol_period_s

    @property
    def bandwidth_hz(self) -> float:
        """Occupied bandwidth, approximately the chip rate (5 kHz)."""
        return 1.0 / self.chip_duration_s

    @property
    def multipath_spread_samples(self) -> int:
        """The 10 ms design multipath spread expressed in samples."""
        return int(round(self.multipath_spread_s / self.sampling_interval_s))

    # ------------------------------------------------------------------ #
    def validate_waveform_design(self) -> None:
        """Check the waveform design rules stated in Section III.

        * the symbol duration must exceed the multipath spread (so the guard
          interval can absorb it), and
        * the sampling rate must be at least twice the chip rate (Nyquist).
        Raises ``ValueError`` if either rule is violated.
        """
        if self.symbol_duration_s <= self.multipath_spread_s:
            raise ValueError(
                f"symbol duration {self.symbol_duration_s * 1e3:.2f} ms does not exceed "
                f"the multipath spread {self.multipath_spread_s * 1e3:.2f} ms"
            )
        if self.samples_per_chip < 2:
            raise ValueError("sampling must be at least twice the chip rate (Nyquist)")

    def table1_rows(self) -> list[tuple[str, str, float | int]]:
        """The rows of Table 1 as (quantity, symbol, value-in-paper-units)."""
        return [
            ("Walsh symbol length", "Nw", self.walsh_symbols),
            ("m-sequence length", "Lpn", self.spreading_chips),
            ("Chip duration (ms)", "Tc", self.chip_duration_s * 1e3),
            ("Sampling interval (ms)", "Ts", self.sampling_interval_s * 1e3),
            ("Symbol duration (ms)", "Tsym", self.symbol_duration_s * 1e3),
            ("Time guard interval (ms)", "Tg", self.guard_duration_s * 1e3),
            ("Samples/symbol", "Ns", self.samples_per_symbol),
            ("Samples/time guard", "Nt", self.samples_per_guard),
            ("Total receive vector samples", "Rv", self.receive_vector_samples),
        ]


def aquamodem_signal_matrices(config: AquaModemConfig | None = None) -> SignalMatrices:
    """The S/A/a matrices for the AquaModem pilot waveform (224 x 112 geometry)."""
    # numpy loads here, not with the configuration the control plane reads
    from repro.dsp.signal_matrix import composite_signal_matrices

    config = config if config is not None else AquaModemConfig()
    return composite_signal_matrices(
        config.walsh_symbols, config.spreading_chips, config.samples_per_chip
    )

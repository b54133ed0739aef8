"""Underwater acoustic modem physical layer.

Puts the DSP, channel and core subpackages together into an end-to-end DS-SS
modem modelled on the UCSB AquaModem whose design parameters define the MP
input sizes (Table 1):

* :mod:`repro.modem.config` — :class:`AquaModemConfig`, Table 1 and every
  derived quantity (samples per symbol, receive-vector length, data rate);
* :mod:`repro.modem.frame` — bit <-> symbol packing for 8-ary symbols;
* :mod:`repro.modem.transmitter` / :mod:`repro.modem.receiver` — the DS-SS
  transmit chain and the MP + RAKE receive chain;
* :mod:`repro.modem.link` — Monte-Carlo link simulation (SER vs SNR) for the
  DS-SS and FSK schemes (experiment E7);
* :mod:`repro.modem.energy_budget` — per-packet transmit / receive / signal
  processing energy, parameterised by the hardware platform (feeds the
  sensor-network lifetime experiment E9).
"""

from repro._lazy import lazy_exports

__all__ = [
    "AquaModemConfig",
    "bits_to_symbols",
    "symbols_to_bits",
    "random_bits",
    "Transmitter",
    "Receiver",
    "ReceiverOutput",
    "BatchReceiverOutput",
    "BatchLinkEngine",
    "LinkSimulator",
    "LinkResult",
    "ModemEnergyBudget",
    "PacketEnergyBreakdown",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "config": ("AquaModemConfig",),
    "frame": ("bits_to_symbols", "symbols_to_bits", "random_bits"),
    "transmitter": ("Transmitter",),
    "receiver": ("BatchReceiverOutput", "Receiver", "ReceiverOutput"),
    "link": ("LinkSimulator", "LinkResult"),
    "batch": ("BatchLinkEngine",),
    "energy_budget": ("ModemEnergyBudget", "PacketEnergyBreakdown"),
})

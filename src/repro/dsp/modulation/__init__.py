"""Baseband modulators/demodulators for the two signalling schemes the paper
discusses: direct-sequence spread spectrum (DS-SS, the AquaModem scheme) and
non-coherent frequency shift keying (FSK, the common baseline the paper says
DS-SS outperforms).  Both operate on complex baseband sample streams so they
can share the same channel simulator.
"""

from repro._lazy import lazy_exports

__all__ = ["Modulator", "DemodulationResult", "DSSSModulator", "FSKModulator"]

__getattr__, __dir__ = lazy_exports(__name__, {
    "base": ("Modulator", "DemodulationResult"),
    "dsss": ("DSSSModulator",),
    "fsk": ("FSKModulator",),
})

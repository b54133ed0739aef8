"""Signal-processing substrate for the DS-SS acoustic modem.

This subpackage implements, from scratch, every signal-processing primitive
the paper's modem and Matching Pursuits kernel depend on:

* Walsh (Hadamard) orthogonal codes (:mod:`repro.dsp.walsh`);
* maximal-length (m-) sequences generated by LFSRs (:mod:`repro.dsp.msequence`);
* the composite Walsh x m-sequence spreading waveforms of Figure 4
  (:mod:`repro.dsp.spreading`);
* chip-to-sample conversion with rectangular pulses (:mod:`repro.dsp.sampling`);
* the S, A and a signal matrices of Section III (:mod:`repro.dsp.signal_matrix`);
* symbol detection and RAKE combining (:mod:`repro.dsp.detection`);
* DS-SS and non-coherent FSK modulators/demodulators (:mod:`repro.dsp.modulation`).
"""

from repro._lazy import lazy_exports

__all__ = [
    "walsh_matrix",
    "walsh_codes",
    "is_orthogonal_set",
    "LinearFeedbackShiftRegister",
    "m_sequence",
    "periodic_autocorrelation",
    "composite_waveform",
    "composite_waveform_set",
    "spread_symbols",
    "upsample_chips",
    "SignalMatrices",
    "build_signal_matrices",
    "detect_symbols",
    "rake_combine",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "walsh": ("walsh_matrix", "walsh_codes", "is_orthogonal_set"),
    "msequence": ("LinearFeedbackShiftRegister", "m_sequence", "periodic_autocorrelation"),
    "spreading": ("composite_waveform", "composite_waveform_set", "spread_symbols"),
    "sampling": ("upsample_chips",),
    "signal_matrix": ("SignalMatrices", "build_signal_matrices"),
    "detection": ("detect_symbols", "rake_combine"),
})

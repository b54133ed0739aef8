"""repro — reproduction of "Energy Benefits of Reconfigurable Hardware for Use
in Underwater Sensor Nets" (Benson, Irturk, Cho, Kastner, 2009).

The library implements, from scratch:

* the Matching Pursuits channel-estimation algorithm and a register-transfer
  level model of the paper's Filter-and-Cancel FPGA IP core (:mod:`repro.core`);
* the fixed-point arithmetic it runs on (:mod:`repro.fixedpoint`);
* the DS-SS AquaModem waveform and signal matrices (:mod:`repro.dsp`,
  :mod:`repro.modem`);
* a shallow-water multipath channel simulator (:mod:`repro.channel`);
* calibrated area / timing / power / energy models of the Virtex-4 and
  Spartan-3 FPGAs, the TI C6713 DSP and the MicroBlaze soft core
  (:mod:`repro.hardware`);
* an underwater sensor-network simulator that turns per-estimation energy
  into deployment lifetime (:mod:`repro.network`);
* an experiment harness that regenerates every table and figure of the paper
  (:mod:`repro.analysis`).

Quick start
-----------
>>> import numpy as np
>>> from repro import (AquaModemConfig, aquamodem_signal_matrices,
...                    random_sparse_channel, matching_pursuit)
>>> config = AquaModemConfig()
>>> matrices = aquamodem_signal_matrices(config)
>>> channel = random_sparse_channel(num_paths=3, max_delay=100, rng=0)
>>> received = matrices.synthesize(channel.coefficient_vector(112))
>>> estimate = matching_pursuit(received, matrices, num_paths=6)
>>> set(channel.delays.tolist()).issubset(set(estimate.path_indices.tolist()))
True
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core algorithm
    "matching_pursuit",
    "matching_pursuit_naive",
    "MatchingPursuitResult",
    "FixedPointMatchingPursuit",
    "BatchIPCoreEngine",
    "IPCoreConfig",
    "IPCoreSimulator",
    "DesignPoint",
    "DesignSpaceExplorer",
    # signal matrices and waveform
    "SignalMatrices",
    "build_signal_matrices",
    "aquamodem_signal_matrices",
    "AquaModemConfig",
    # channel
    "MultipathChannel",
    "random_sparse_channel",
    # hardware
    "FPGAImplementation",
    "VIRTEX4_XC4VSX55",
    "SPARTAN3_XC3S5000",
    "get_device",
    "ti_c6713",
    "microblaze_soft_core",
    "compare_platforms",
    # experiment orchestration
    "SweepSpec",
    "SeedPolicy",
    "Scenario",
    "get_scenario",
    "list_scenarios",
    "run_sweep",
    "ResultCache",
    "ResultStore",
    # modem / network
    "Transmitter",
    "Receiver",
    "NetworkSimulator",
    "grid_deployment",
    "random_deployment",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "channel.multipath": ("MultipathChannel", "random_sparse_channel"),
    "core.dse": ("DesignPoint", "DesignSpaceExplorer"),
    "core.fixedpoint_mp": ("FixedPointMatchingPursuit",),
    "core.ipcore": ("BatchIPCoreEngine", "IPCoreConfig", "IPCoreSimulator"),
    "core.matching_pursuit": (
        "MatchingPursuitResult", "matching_pursuit", "matching_pursuit_naive",
    ),
    "dsp.signal_matrix": ("SignalMatrices", "build_signal_matrices"),
    "experiments": (
        "ResultCache", "ResultStore", "Scenario", "SeedPolicy", "SweepSpec", "get_scenario",
        "list_scenarios", "run_sweep",
    ),
    "hardware.comparison": ("compare_platforms",),
    "hardware.devices": ("SPARTAN3_XC3S5000", "VIRTEX4_XC4VSX55", "get_device"),
    "hardware.fpga": ("FPGAImplementation",),
    "hardware.processors": ("microblaze_soft_core", "ti_c6713"),
    "modem.config": ("AquaModemConfig", "aquamodem_signal_matrices"),
    "modem.receiver": ("Receiver",),
    "modem.transmitter": ("Transmitter",),
    "network.simulator": ("NetworkSimulator",),
    "network.topology": ("grid_deployment", "random_deployment"),
})

"""Underwater acoustic channel substrate.

The paper's kernel estimates a *sparse multipath* channel: in shallow water
the transmitted waveform reaches the receiver over a handful of discrete
paths (direct, surface bounce, bottom bounce, multiple bounces) each with its
own delay and complex attenuation, spread over roughly 10 ms (Section III).
This subpackage simulates that environment from scratch:

* :mod:`repro.channel.propagation` — Thorp absorption, geometric spreading,
  transmission loss and the passive sonar equation;
* :mod:`repro.channel.noise` — Wenz-style ambient noise (turbulence,
  shipping, wind, thermal) and complex AWGN generation;
* :mod:`repro.channel.geometry` — image-method ray geometry for a shallow
  water column (surface/bottom reflections give physically motivated delays
  and amplitudes);
* :mod:`repro.channel.multipath` — sparse tapped-delay-line channel
  descriptions and random channel generation;
* :mod:`repro.channel.simulator` — apply a channel plus noise to a
  transmitted sample stream at a requested SNR.
"""

from repro._lazy import lazy_exports

__all__ = [
    "thorp_absorption_db_per_km",
    "spreading_loss_db",
    "transmission_loss_db",
    "received_level_db",
    "sound_speed_mackenzie",
    "ambient_noise_psd_db",
    "total_noise_level_db",
    "complex_awgn",
    "ShallowWaterGeometry",
    "image_method_paths",
    "MultipathChannel",
    "random_sparse_channel",
    "random_sparse_channel_batch",
    "ChannelSimulator",
    "apply_channel",
    "apply_channel_batch",
    "add_noise_for_snr",
    "add_noise_for_snr_batch",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "propagation": (
        "thorp_absorption_db_per_km", "spreading_loss_db", "transmission_loss_db",
        "received_level_db", "sound_speed_mackenzie",
    ),
    "noise": ("ambient_noise_psd_db", "total_noise_level_db", "complex_awgn"),
    "geometry": ("ShallowWaterGeometry", "image_method_paths"),
    "multipath": ("MultipathChannel", "random_sparse_channel", "random_sparse_channel_batch"),
    "simulator": (
        "ChannelSimulator", "apply_channel", "apply_channel_batch", "add_noise_for_snr",
        "add_noise_for_snr_batch",
    ),
})

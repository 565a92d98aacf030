"""Binary audio fingerprints from frame/band energy differences.

A snippet is split into equal-length frames, each frame into contiguous
frequency bands via Butterworth band-passes. A fingerprint bit is set when
the energy difference between successive bands increases from one frame to
the next. Fingerprints are compared by Hamming similarity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ziskit import dsp
from ziskit.core.types import AudioSnippet, Fingerprint
from ziskit.errors import IncompatibleFingerprints, InsufficientSamples, InvalidBand


@dataclass(frozen=True)
class SchurmannConfig:
    """Fingerprint parameters; defaults give (17-1)*(32-1) = 496 bits."""

    interval_s: int = 10
    n_frames: int = 17
    n_bands: int = 32
    band_width_hz: int = 250
    filter_order: int = 20

    def frame_len(self, rate_hz: int) -> int:
        # Fractional frame boundaries round down; the remainder is dropped.
        return (rate_hz * self.interval_s) // self.n_frames

    def band_edges(self, rate_hz: int) -> list[tuple[float, float]]:
        """Contiguous bands [1, b], [b+1, 2b], ...; top edge stays below Nyquist."""
        nyquist = rate_hz / 2
        edges = []
        for j in range(1, self.n_bands + 1):
            lo = (j - 1) * self.band_width_hz + 1
            hi = j * self.band_width_hz
            if hi >= nyquist:
                hi = nyquist - 1
            edges.append((float(lo), float(hi)))
        return edges

    def fits_rate(self, rate_hz: int) -> bool:
        """Whether every band, clamped below the Nyquist frequency, is a valid band."""
        return all(0 < lo < hi < rate_hz / 2 for lo, hi in self.band_edges(rate_hz))


def energy_matrix(x: AudioSnippet, cfg: SchurmannConfig) -> np.ndarray:
    """Per-frame, per-band signal energies, shape (n_frames, n_bands).

    Raises InvalidBand, before any filtering, when the rate is too low for the
    bands (`SchurmannConfig.fits_rate`: 15504 Hz or less for the default 32
    bands of 250 Hz).
    """
    d = cfg.frame_len(x.rate_hz)
    needed = cfg.n_frames * d
    if x.samples.size < needed:
        raise InsufficientSamples(
            f"need {needed} samples for {cfg.n_frames} frames of {d}, got {x.samples.size}")
    if not cfg.fits_rate(x.rate_hz):
        raise InvalidBand(f"{cfg.n_bands} bands of {cfg.band_width_hz} Hz do not fit "
                          f"below {x.rate_hz / 2} Hz")
    frames = x.as_float()[:needed].reshape(cfg.n_frames, d)
    energies = np.empty((cfg.n_frames, cfg.n_bands))
    for j, (lo, hi) in enumerate(cfg.band_edges(x.rate_hz)):
        filtered = dsp.bandpass(frames, lo, hi, cfg.filter_order, rate_hz=x.rate_hz)
        energies[:, j] = np.einsum("ij,ij->i", filtered, filtered)
    return energies


def audio_fingerprint(x: AudioSnippet, cfg: SchurmannConfig | None = None) -> Fingerprint:
    """Fingerprint a snippet; bit order is frames outer, bands inner.

    Bit k for frame i, band j is 1 iff
    (E[i+1,j] - E[i+1,j+1]) - (E[i,j] - E[i,j+1]) > 0; ties give 0.
    """
    cfg = cfg or SchurmannConfig()
    energies = energy_matrix(x, cfg)
    band_diff = energies[:, :-1] - energies[:, 1:]
    bits = (band_diff[1:, :] - band_diff[:-1, :]) > 0
    return Fingerprint(bits.reshape(-1).astype(np.uint8), x.device_id, x.start_time)


def fingerprint_similarity(f: Fingerprint, g: Fingerprint) -> float:
    """1 - hamming_distance/length, in [0, 1]."""
    if len(f) != len(g):
        raise IncompatibleFingerprints(f"lengths differ: {len(f)} vs {len(g)}")
    return 1.0 - float(np.count_nonzero(f.bits != g.bits)) / len(f)

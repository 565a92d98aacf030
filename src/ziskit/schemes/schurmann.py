"""Binary audio fingerprints from frame/band energy differences.

A snippet of one interval is split into N_FRAMES equal-length frames, each
frame into N_BANDS contiguous frequency bands of BAND_WIDTH_HZ via
Butterworth band-passes of order `dsp.FILTER_ORDER`: the fixed parameters of
Schürmann & Sigg (IEEE TMC 2013), which give (17-1)*(32-1) = 496 bits. A
fingerprint bit is set when the energy difference between successive bands
increases from one frame to the next. Fingerprints are compared by Hamming
similarity.
"""

from __future__ import annotations

import numpy as np

from ziskit import dsp
from ziskit.core.types import AudioSnippet, Fingerprint
from ziskit.errors import IncompatibleFingerprints, InsufficientSamples, InvalidBand

N_FRAMES = 17
N_BANDS = 32
BAND_WIDTH_HZ = 250


def frame_len(rate_hz: int, interval_s: int) -> int:
    # Fractional frame boundaries round down; the remainder is dropped.
    return (rate_hz * interval_s) // N_FRAMES


def band_edges(rate_hz: int) -> list[tuple[float, float]]:
    """Contiguous bands [1, b], [b+1, 2b], ...; top edge stays below Nyquist."""
    nyquist = rate_hz / 2
    edges = []
    for j in range(1, N_BANDS + 1):
        lo = (j - 1) * BAND_WIDTH_HZ + 1
        hi = j * BAND_WIDTH_HZ
        if hi >= nyquist:
            hi = nyquist - 1
        edges.append((float(lo), float(hi)))
    return edges


def fits_rate(rate_hz: int) -> bool:
    """Whether every band, clamped below the Nyquist frequency, is a valid band."""
    return all(0 < lo < hi < rate_hz / 2 for lo, hi in band_edges(rate_hz))


def energy_matrix(x: AudioSnippet, interval_s: int) -> np.ndarray:
    """Per-frame, per-band signal energies of an interval, shape (N_FRAMES, N_BANDS).

    Raises InvalidBand, before any filtering, when the rate is too low for the
    bands (`fits_rate`: 15504 Hz or less).
    """
    d = frame_len(x.rate_hz, interval_s)
    needed = N_FRAMES * d
    if x.samples.size < needed:
        raise InsufficientSamples(
            f"need {needed} samples for {N_FRAMES} frames of {d}, got {x.samples.size}")
    if not fits_rate(x.rate_hz):
        raise InvalidBand(f"{N_BANDS} bands of {BAND_WIDTH_HZ} Hz do not fit "
                          f"below {x.rate_hz / 2} Hz")
    # sosfilt converts the int16 frames to float64 exactly; one buffer takes every band.
    frames = x.samples[:needed].reshape(N_FRAMES, d)
    filtered = np.empty((N_FRAMES, d))
    energies = np.empty((N_FRAMES, N_BANDS))
    for j, (lo, hi) in enumerate(band_edges(x.rate_hz)):
        dsp.bandpass(frames, lo, hi, rate_hz=x.rate_hz, out=filtered)
        energies[:, j] = np.einsum("ij,ij->i", filtered, filtered)
    return energies


def audio_fingerprint(x: AudioSnippet, interval_s: int) -> Fingerprint:
    """Fingerprint a snippet of an `interval_s`-second interval; bit order is
    frames outer, bands inner.

    Bit k for frame i, band j is 1 iff
    (E[i+1,j] - E[i+1,j+1]) - (E[i,j] - E[i,j+1]) > 0; ties give 0.
    """
    energies = energy_matrix(x, interval_s)
    band_diff = energies[:, :-1] - energies[:, 1:]
    bits = (band_diff[1:, :] - band_diff[:-1, :]) > 0
    return Fingerprint(bits.reshape(-1).astype(np.uint8), x.device_id, x.start_time)


def fingerprint_similarity(f: Fingerprint, g: Fingerprint) -> float:
    """1 - hamming_distance/length, in [0, 1]."""
    if len(f) != len(g):
        raise IncompatibleFingerprints(f"lengths differ: {len(f)} vs {len(g)}")
    return 1.0 - float(np.count_nonzero(f.bits != g.bits)) / len(f)

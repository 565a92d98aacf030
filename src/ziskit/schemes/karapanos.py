"""Audio similarity scoring: per-band normalized maximum cross-correlation.

Two aligned snippets are split into one-third octave bands; the similarity
score is the mean over bands of the normalized maximum cross-correlation.
Snippets whose average power falls at or below the device's power threshold
are gated and produce no score.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ziskit import dsp
from ziskit.core.types import AudioSnippet
from ziskit.errors import UndefinedCorrelation

DEFAULT_POWER_DB = 40.0
# Published device-class adjustments for quieter built-in microphones.
DEVICE_CLASS_POWER_DB = {"smartphone": 38.0, "watch": 35.0}


@dataclass(frozen=True)
class KarapanosConfig:
    """Parameters of the sound similarity computation."""

    maxlag_s: float = 1.0
    bands: tuple[dsp.OctaveBandSpec, ...] = dsp.THIRD_OCTAVE_BANDS
    order: int = 20
    power_threshold_db: float = DEFAULT_POWER_DB
    # Per-device overrides, e.g. {"phone-3": 38.0}.
    device_thresholds: dict[str, float] = field(default_factory=dict)

    def threshold_for(self, device_id: str) -> float:
        return self.device_thresholds.get(device_id, self.power_threshold_db)

    def fits_rate(self, rate_hz: int) -> bool:
        """Whether every configured band lies below the Nyquist frequency."""
        return all(band.f_high < rate_hz / 2 for band in self.bands)


@dataclass(frozen=True)
class SimilarityScore:
    value: float | None
    reason: str | None = None  # why a gated score has no value

    @property
    def gated(self) -> bool:
        return self.value is None


@dataclass(frozen=True)
class BandedSnippet:
    """Per-band decomposition of one snippet, reusable across its pairings."""

    device_id: str
    rate_hz: int
    power_db: float
    norms: np.ndarray          # (n_bands,) sum of squares per band
    spectra: np.ndarray        # (n_bands, M//2+1) rfft at pad length M
    pad_len: int


def band_decompose(x: AudioSnippet, cfg: KarapanosConfig) -> BandedSnippet:
    """Filter a snippet through every configured band and cache its spectra."""
    data = x.as_float()
    banded = dsp.bandpass_bank(data, cfg.bands, x.rate_hz, order=cfg.order)
    spectra, pad = dsp.padded_spectrum(banded, int(round(cfg.maxlag_s * x.rate_hz)))
    return BandedSnippet(
        device_id=x.device_id,
        rate_hz=x.rate_hz,
        power_db=dsp.avg_power_db(data),
        norms=np.einsum("ij,ij->i", banded, banded),
        spectra=spectra,
        pad_len=pad,
    )


def similarity_banded(a: BandedSnippet, b: BandedSnippet, cfg: KarapanosConfig,
                      two_sided: bool = False) -> SimilarityScore:
    """Similarity between two pre-decomposed snippets.

    two_sided extends the lag search to [-maxlag, maxlag], which equals the
    maximum of the score over both argument orders.
    """
    if a.spectra.shape != b.spectra.shape or a.pad_len != b.pad_len:
        raise ValueError("banded snippets are not comparable")
    if a.power_db <= cfg.threshold_for(a.device_id) or \
            b.power_db <= cfg.threshold_for(b.device_id):
        return SimilarityScore(None, "power")
    c = dsp.xcorr_spectra(a.spectra, b.spectra, a.pad_len)
    try:
        per_band = dsp.normalized_peak(c, a.norms, b.norms,
                                       int(round(cfg.maxlag_s * a.rate_hz)), two_sided)
    except UndefinedCorrelation:
        return SimilarityScore(None, "undefined-correlation")
    return SimilarityScore(float(per_band.mean()))


def similarity(x: AudioSnippet, y: AudioSnippet, cfg: KarapanosConfig) -> SimilarityScore:
    """Similarity score between two aligned equal-length snippets.

    Mean over the configured bands of the normalized maximum cross-correlation
    with lags in [0, maxlag]; gated when either input has insufficient power.
    """
    if x.samples.size != y.samples.size or x.samples.size == 0:
        raise ValueError("snippets must be aligned to equal nonzero length")
    return similarity_banded(band_decompose(x, cfg), band_decompose(y, cfg), cfg)


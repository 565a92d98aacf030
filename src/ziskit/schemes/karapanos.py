"""Audio similarity scoring: per-band normalized maximum cross-correlation.

Two aligned snippets are split into the twenty one-third octave bands from
50 Hz to 4 kHz of Sound-Proof (Karapanos et al., USENIX Security 2015),
`dsp.THIRD_OCTAVE_BANDS`, each filtered at `dsp.FILTER_ORDER`; the similarity
score is the mean over bands of the normalized maximum cross-correlation.
Snippets whose average power falls at or below the power threshold
are gated and produce no score.

`interval_similarities` scores every pair of one interval band by band: it
filters each snippet of the interval through one band at a time, straight
into a zero-tailed pad buffer, which then serves as the scratch of the
band's `dsp.pair_peaks`, so it holds one band's spectra of the interval's
devices, never all bands of every device nor a filtered copy of the
interval's audio, in buffers allocated once per interval (`_band_peaks`).
`band_decompose` and `similarity_banded` are the per-pair form, which it
equals bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ziskit import dsp
from ziskit.core.types import AudioSnippet
from ziskit.errors import UndefinedCorrelation

DEFAULT_POWER_DB = 40.0


@dataclass(frozen=True)
class KarapanosConfig:
    """Parameters of the sound similarity computation."""

    maxlag_s: float = 1.0
    power_threshold_db: float = DEFAULT_POWER_DB


def fits_rate(rate_hz: int) -> bool:
    """Whether every band lies below the Nyquist frequency."""
    return all(band.f_high < rate_hz / 2 for band in dsp.THIRD_OCTAVE_BANDS)


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
    """Filter a snippet through every band and cache its spectra."""
    data = x.as_float()
    banded = dsp.bandpass_bank(data, dsp.THIRD_OCTAVE_BANDS, x.rate_hz)
    spectra, pad = dsp.padded_spectrum(banded, int(round(cfg.maxlag_s * x.rate_hz)))
    return BandedSnippet(
        device_id=x.device_id,
        rate_hz=x.rate_hz,
        power_db=dsp.avg_power_db(data),
        norms=np.einsum("ij,ij->i", banded, banded),
        spectra=spectra,
        pad_len=pad,
    )


def similarity_banded(a: BandedSnippet, b: BandedSnippet,
                      cfg: KarapanosConfig) -> SimilarityScore:
    """Similarity between two pre-decomposed snippets, over lags [-maxlag, maxlag]."""
    if a.spectra.shape != b.spectra.shape or a.pad_len != b.pad_len:
        raise ValueError("banded snippets are not comparable")
    if min(a.power_db, b.power_db) <= cfg.power_threshold_db:
        return SimilarityScore(None, "power")
    c = dsp.xcorr_spectra(a.spectra, b.spectra, a.pad_len)
    return _score(dsp.lag_peak(c, int(round(cfg.maxlag_s * a.rate_hz))),
                  a.norms, b.norms)


def _score(peaks: np.ndarray, norms_a: np.ndarray, norms_b: np.ndarray) -> SimilarityScore:
    """Mean over bands of the normalized lag peaks."""
    try:
        per_band = dsp.normalize_peak(peaks, norms_a, norms_b)
    except UndefinedCorrelation:
        return SimilarityScore(None, "undefined-correlation")
    return SimilarityScore(float(per_band.mean()))


def interval_similarities(snippets: Mapping[str, AudioSnippet | None],
                          pairs: Sequence[tuple[str, str]],
                          cfg: KarapanosConfig) -> list[SimilarityScore]:
    """Two-sided similarity of each pair of devices over one interval.

    `snippets` holds each device's audio of the interval, None when missing
    or short. A pair is gated "short-audio" when either snippet is None,
    "rate" when the rates differ or lie too low for the bands, and "power"
    as in `similarity_banded`, which every scored pair equals bit for bit.
    """
    power = {d: dsp.avg_power_db(x.as_float()) for d, x in snippets.items()
             if x is not None and fits_rate(x.rate_hz)}

    def gate(a: str, b: str) -> str | None:
        x, y = snippets[a], snippets[b]
        if x is None or y is None:
            return "short-audio"
        if a not in power or x.rate_hz != y.rate_hz:
            return "rate"
        if min(power[a], power[b]) <= cfg.power_threshold_db:
            return "power"
        return None

    scores = [SimilarityScore(None, gate(a, b)) for a, b in pairs]
    by_rate: dict[int, list[int]] = {}
    for k, score in enumerate(scores):
        if score.reason is None:
            by_rate.setdefault(snippets[pairs[k][0]].rate_hz, []).append(k)
    for rate, group in by_rate.items():
        rows = {d: i for i, d in enumerate(dict.fromkeys(d for k in group for d in pairs[k]))}
        peaks, norms = _band_peaks([snippets[d].samples for d in rows],
                                   [(rows[a], rows[b]) for a, b in (pairs[k] for k in group)],
                                   rate, cfg)
        for k, peak in zip(group, peaks):
            a, b = pairs[k]
            scores[k] = _score(peak, norms[rows[a]], norms[rows[b]])
    return scores


def _band_peaks(samples: Sequence[np.ndarray], pairs: list[tuple[int, int]], rate_hz: int,
                cfg: KarapanosConfig) -> tuple[np.ndarray, np.ndarray]:
    """Two-sided lag peaks (pairs x bands) and band energies (rows x bands) of
    `samples`, one row of N samples per device, pairs given as row indices.

    Each band is filtered, transformed and correlated before the next, in
    buffers allocated once per call: each row is filtered straight into the
    head of one zero-tailed pad buffer, which is transformed into its row of
    the spectra; then `dsp.pair_peaks` correlates the pairs with that pad
    buffer, idle until the next band, and one complex buffer as scratch. No
    array is allocated per band or per pair, and the filtered band of a row
    lives only until the next row's.
    """
    length = len(samples[0])
    maxlag = int(round(cfg.maxlag_s * rate_hz))
    padded = np.empty(dsp.fast_len(length + maxlag))
    banded = padded[:length]
    # numpy's einsum reduces a single row in another order than each row of a
    # stack; over two rows it keeps the stacked sum's bits (`band_decompose`).
    twice = np.broadcast_to(banded, (2, length))
    spectra = np.empty((len(samples), padded.size // 2 + 1), dtype=complex)
    product = np.empty(padded.size // 2 + 1, dtype=complex)
    peaks = np.empty((len(pairs), len(dsp.THIRD_OCTAVE_BANDS)))
    norms = np.empty((len(samples), len(dsp.THIRD_OCTAVE_BANDS)))
    for j, band in enumerate(dsp.THIRD_OCTAVE_BANDS):
        padded[length:] = 0.0  # the last band's correlation wrote lags there
        for i, (row, spectrum) in enumerate(zip(samples, spectra)):
            dsp.bandpass(row, band.f_low, band.f_high, rate_hz=rate_hz, out=banded)
            norms[i, j] = np.einsum("ij,ij->i", twice, twice)[0]
            dsp.rfft(padded, out=spectrum)
        dsp.pair_peaks(spectra, pairs, maxlag, padded, product, out=peaks[:, j])
    return peaks, norms

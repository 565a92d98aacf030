"""Signal-processing primitives shared by the audio schemes.

Band-pass filtering uses Butterworth designs of total order FILTER_ORDER,
the order both audio schemes use, realized as cascaded second-order
sections; a direct-form transfer function of order 20 is numerically
unstable for narrow bands at 16 kHz. Every cross-correlation runs through
one FFT core (padded_spectrum, xcorr_spectra, lag_peak); the direct sum of
xcorr_lags(method="direct") is its reference to 1e-6 relative.

scipy is imported inside the functions that call it, here and in the other
modules the CLI imports, so commands that never filter or transform audio
do not pay for loading it: scipy.signal for the band filters (here and in
datagen) and scipy.fft for the FFTs. WAV files are read and written without
scipy (`core.io`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

from ziskit.core.types import AudioSnippet
from ziskit.errors import InsufficientProbe, InvalidBand, InvariantViolation, UndefinedCorrelation


# Total order of every band-pass filter: FILTER_ORDER // 2 Butterworth sections.
FILTER_ORDER = 20


@dataclass(frozen=True)
class OctaveBandSpec:
    """One-third octave band edges in Hz."""

    band_number: int
    f_low: float
    f_center: float
    f_high: float

    def __post_init__(self):
        if not self.f_low < self.f_center < self.f_high:
            raise InvalidBand(f"band {self.band_number}: edges not ordered")


# ANSI one-third octave bands 6..25, covering 50 Hz to 4 kHz.
THIRD_OCTAVE_BANDS: tuple[OctaveBandSpec, ...] = tuple(
    OctaveBandSpec(num, lo, mid, hi)
    for num, lo, mid, hi in [
        (6, 44.194, 49.606, 55.681),
        (7, 55.681, 62.500, 70.154),
        (8, 70.154, 78.745, 88.388),
        (9, 88.388, 99.213, 111.362),
        (10, 111.362, 125.000, 140.308),
        (11, 140.308, 157.490, 176.777),
        (12, 176.777, 198.425, 222.725),
        (13, 222.725, 250.000, 280.616),
        (14, 280.616, 314.980, 353.553),
        (15, 353.553, 396.850, 445.449),
        (16, 445.449, 500.000, 561.231),
        (17, 561.231, 629.961, 707.107),
        (18, 707.107, 793.701, 890.899),
        (19, 890.899, 1000.000, 1122.462),
        (20, 1122.462, 1259.921, 1414.214),
        (21, 1414.214, 1587.401, 1781.797),
        (22, 1781.797, 2000.000, 2244.924),
        (23, 2244.924, 2519.842, 2828.427),
        (24, 2828.427, 3174.802, 3563.595),
        (25, 3563.595, 4000.000, 4489.848),
    ]
)


@dataclass(frozen=True)
class AlignmentResult:
    """Lag (samples y must be advanced to match x) and trimmed common length."""

    lag_samples: int
    trimmed_len: int


def fast_len(n: int) -> int:
    """Smallest even 5-smooth integer >= n (fast real-FFT size)."""
    best = 1 << max((n - 1).bit_length(), 1)
    p5 = 1
    while p5 < best:
        p3 = p5
        while p3 < best:
            x = p3
            while x < n or x % 2:
                x *= 2
            best = min(best, x)
            p3 *= 3
        p5 *= 5
    return best


@lru_cache(maxsize=256)
def _bandpass_sos(f_low: float, f_high: float, rate_hz: int) -> np.ndarray:
    from scipy.signal import butter

    return butter(FILTER_ORDER // 2, [f_low, f_high], btype="bandpass", fs=rate_hz,
                  output="sos")


def design_bandpass(edges: Iterable[tuple[float, float]], rate_hz: int) -> None:
    """Design, and cache for `bandpass`, the filters of the (f_low, f_high) `edges`.

    Pipelines call it, and `import_fft`, before `pmap` starts its worker
    threads, so that scipy.signal and scipy.fft load in the calling thread:
    a first import inside a worker thread raised the peak RSS of `features
    karapanos` on a 16-device scenario from 296 MB to 300-315 MB.
    """
    for f_low, f_high in edges:
        _bandpass_sos(float(f_low), float(f_high), int(rate_hz))


def import_fft() -> None:
    """Import scipy.fft in the calling thread; see `design_bandpass`."""
    import scipy.fft  # noqa: F401


def bandpass(x: np.ndarray, f_low: float, f_high: float, *, rate_hz: int) -> np.ndarray:
    """Zero-state Butterworth band-pass of total order FILTER_ORDER along the last axis.

    Output has the shape of the input.
    """
    data = np.asarray(x, dtype=np.float64)
    if not 0 < f_low < f_high < rate_hz / 2:
        raise InvalidBand(f"band [{f_low}, {f_high}] outside (0, {rate_hz / 2})")
    from scipy.signal import sosfilt

    sos = _bandpass_sos(float(f_low), float(f_high), int(rate_hz))
    return sosfilt(sos, data, axis=-1)


def bandpass_bank(data: np.ndarray, bands: tuple[OctaveBandSpec, ...],
                  rate_hz: int) -> np.ndarray:
    """Filter `data` (..., N) through every band; returns (n_bands, ..., N)."""
    data = np.asarray(data, dtype=np.float64)
    return np.stack([bandpass(data, b.f_low, b.f_high, rate_hz=rate_hz) for b in bands])


def avg_power_db(x: np.ndarray) -> float:
    """10*log10 of the mean squared raw amplitude; -inf for all-zero input."""
    data = np.asarray(x, dtype=np.float64)
    if data.size == 0:
        raise ValueError("avg_power_db of empty signal")
    mean_sq = float(np.mean(data * data))
    if mean_sq == 0.0:
        return float("-inf")
    return 10.0 * np.log10(mean_sq)


def padded_spectrum(x: np.ndarray, maxlag: int) -> tuple[np.ndarray, int]:
    """rfft along the last axis at M = fast_len(N + maxlag), and M.

    At M, circular correlation is exact for every lag in [-maxlag, maxlag]."""
    from scipy.fft import rfft

    pad = fast_len(x.shape[-1] + maxlag)
    return rfft(x, pad, axis=-1), pad


def xcorr_spectra(fx: np.ndarray, fy: np.ndarray, pad_len: int) -> np.ndarray:
    """c[l] = sum_i x[i]*y[i-l] (lag -l at c[-l]) from padded spectra, last axis."""
    from scipy.fft import irfft

    # numpy evaluates `fx * conj(fy)` as `conj(fy) * fx` only for arrays of 256 KiB
    # and more, and with FMA the two orders differ in the last bit: fix the order.
    return irfft(np.multiply(np.conj(fy), fx), pad_len, axis=-1)


def lag_peak(c: np.ndarray, maxlag: int, two_sided: bool = False) -> np.ndarray:
    """max |c| over lags [0, maxlag], or [-maxlag, maxlag], along the last axis."""
    peak = np.abs(c[..., :maxlag + 1]).max(axis=-1)
    if two_sided and maxlag:
        peak = np.maximum(peak, np.abs(c[..., -maxlag:]).max(axis=-1))
    return peak


def normalize_peak(peak, energy_x, energy_y):
    """min(peak / sqrt(Ex * Ey), 1), elementwise.

    Energies are sums of squares. Raises UndefinedCorrelation when a
    normalizer is 0 (all-zero input).
    """
    norm = np.sqrt(energy_x * energy_y)
    if np.any(norm == 0.0):
        raise UndefinedCorrelation("all-zero input: correlation normalizer is 0")
    return np.minimum(peak / norm, 1.0)


def normalized_peak(c: np.ndarray, energy_x, energy_y, maxlag: int,
                    two_sided: bool = False):
    """normalize_peak of lag_peak(c) along the last axis of `c`.

    Energies are scalars for 1-d `c`, one per row for a stack.
    """
    return normalize_peak(lag_peak(c, maxlag, two_sided), energy_x, energy_y)


def _xcorr_fft_circular(x: np.ndarray, y: np.ndarray, maxlag: int) -> np.ndarray:
    """Circular FFT correlation padded so lags [-maxlag, maxlag] are exact."""
    fx, pad = padded_spectrum(x, maxlag)
    fy, _ = padded_spectrum(y, maxlag)
    return xcorr_spectra(fx, fy, pad)


def xcorr_lags(x: np.ndarray, y: np.ndarray, maxlag: int, method: str = "fft") -> np.ndarray:
    """Raw cross-correlation C(l) = sum_i x[i]*y[i-l] for l in [0, maxlag]."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size != y.size or x.size == 0:
        raise ValueError("signals must be nonempty and of equal length")
    if not 0 <= maxlag <= x.size - 1:
        raise ValueError(f"maxlag must lie in [0, {x.size - 1}]")
    if method == "direct":
        n = x.size
        return np.array([np.dot(x[l:], y[:n - l]) for l in range(maxlag + 1)])
    if method == "fft":
        return _xcorr_fft_circular(x, y, maxlag)[:maxlag + 1]
    raise ValueError(f"unknown method {method!r}")


def max_xcorr_norm(x: np.ndarray, y: np.ndarray, maxlag: int,
                   method: str = "fft") -> float:
    """Normalized maximum cross-correlation over lags [0, maxlag], in [0, 1].

    max over l of |C_xy(l)| / sqrt(C_xx(0) * C_yy(0)). Raises
    UndefinedCorrelation when either signal is all-zero.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    c = xcorr_lags(x, y, maxlag, method=method)
    return float(normalized_peak(c, np.dot(x, x), np.dot(y, y), maxlag))


def max_xcorr_norm_two_sided(x: np.ndarray, y: np.ndarray, maxlag: int) -> float:
    """Normalized maximum over lags [-maxlag, maxlag].

    Equals max(max_xcorr_norm(x, y, maxlag), max_xcorr_norm(y, x, maxlag))
    at the cost of a single FFT pass.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size != y.size or x.size == 0:
        raise ValueError("signals must be nonempty and of equal length")
    c = _xcorr_fft_circular(x, y, maxlag)
    return float(normalized_peak(c, np.dot(x, x), np.dot(y, y), maxlag, two_sided=True))


def align(x: AudioSnippet, y: AudioSnippet, probe_len_s: float,
          maxlag_s: float) -> AlignmentResult:
    """Two-stage alignment: coarse by timestamps, fine by cross-correlation.

    The probe prefix (after coarse alignment) is correlated over lags within
    +/- maxlag_s. A positive lag means y started `lag` samples late.
    """
    x2, y2 = _coarse_align(x, y)
    rate = x2.rate_hz
    maxlag = int(round(maxlag_s * rate))
    n = min(x2.samples.size, y2.samples.size)
    probe = min(int(round(probe_len_s * rate)), n)
    if probe < 2 * maxlag or probe == 0:
        raise InsufficientProbe(
            f"probe of {probe} samples cannot resolve lags up to {maxlag}")
    px = x2.as_float()[:probe]
    py = y2.as_float()[:probe]
    if maxlag == 0:
        return AlignmentResult(lag_samples=0, trimmed_len=n)
    c = _xcorr_fft_circular(px, py, maxlag)
    # Advancing y by k aligns it when y is k samples late: score C(-k) = c[-k].
    lags = np.arange(-maxlag, maxlag + 1)
    values = c[(-lags) % c.size]
    lag = int(lags[np.argmax(values)])
    return AlignmentResult(lag_samples=lag, trimmed_len=n - abs(lag))


def _coarse_align(x: AudioSnippet, y: AudioSnippet) -> tuple[AudioSnippet, AudioSnippet]:
    if x.rate_hz != y.rate_hz:
        raise InvariantViolation("snippets must share a sampling rate")
    start = max(x.start_time, y.start_time)
    end = min(x.end_time, y.end_time)
    if start >= end:
        raise InvariantViolation("snippets do not overlap in time")
    return x.slice_ms(start, end), y.slice_ms(start, end)


@lru_cache(maxsize=16)
def _hamming(n: int) -> np.ndarray:
    window = np.hamming(n)
    window.flags.writeable = False
    return window


def fft_mag_hamming(x: np.ndarray) -> np.ndarray:
    """|FFT(hamming(N) * x)| truncated to the first N//2 bins."""
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    if n < 2:
        raise ValueError("need at least 2 samples")
    spectrum = np.fft.fft(_hamming(n) * x)
    return np.abs(spectrum[:n // 2])

"""Signal-processing primitives shared by the audio schemes.

Band-pass filtering uses Butterworth designs realized as cascaded
second-order sections; a direct-form transfer function of order 20 is
numerically unstable for narrow bands at 16 kHz. Every cross-correlation
runs through one FFT core (padded_spectrum, xcorr_spectra, lag_peak); the
direct sum of xcorr_lags(method="direct") is its reference to 1e-6 relative.

scipy is imported inside the functions that call it, here and in the other
modules the CLI imports, so commands that never filter or transform audio
do not pay for loading it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ziskit.core.types import AudioSnippet
from ziskit.errors import InsufficientProbe, InvalidBand, InvariantViolation, UndefinedCorrelation


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
def _bandpass_sos(f_low: float, f_high: float, order: int, rate_hz: int) -> np.ndarray:
    from scipy.signal import butter

    return butter(order // 2, [f_low, f_high], btype="bandpass", fs=rate_hz, output="sos")


def bandpass(x: AudioSnippet | np.ndarray, f_low: float, f_high: float,
             order: int = 20, rate_hz: int | None = None) -> np.ndarray:
    """Zero-state Butterworth band-pass of total order `order`.

    Accepts an AudioSnippet or a raw sample array (then rate_hz is required).
    Output has the same length as the input.
    """
    if isinstance(x, AudioSnippet):
        rate_hz = x.rate_hz
        data = x.as_float()
    else:
        if rate_hz is None:
            raise ValueError("rate_hz required for raw sample arrays")
        data = np.asarray(x, dtype=np.float64)
    if order <= 0 or order % 2:
        raise ValueError(f"filter order must be a positive even integer, got {order}")
    if not 0 < f_low < f_high < rate_hz / 2:
        raise InvalidBand(f"band [{f_low}, {f_high}] outside (0, {rate_hz / 2})")
    from scipy.signal import sosfilt

    sos = _bandpass_sos(float(f_low), float(f_high), int(order), int(rate_hz))
    return sosfilt(sos, data, axis=-1)


def bandpass_bank(data: np.ndarray, bands: tuple[OctaveBandSpec, ...], rate_hz: int,
                  order: int = 20) -> np.ndarray:
    """Filter `data` (..., N) through every band; returns (n_bands, ..., N)."""
    data = np.asarray(data, dtype=np.float64)
    return np.stack([bandpass(data, b.f_low, b.f_high, order=order, rate_hz=rate_hz)
                     for b in bands])


def avg_power_db(x: AudioSnippet | np.ndarray) -> float:
    """10*log10 of the mean squared raw amplitude; -inf for all-zero input."""
    data = x.as_float() if isinstance(x, AudioSnippet) else np.asarray(x, dtype=np.float64)
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

    return irfft(fx * np.conj(fy), pad_len, axis=-1)


def lag_peak(c: np.ndarray, maxlag: int, two_sided: bool = False) -> np.ndarray:
    """max |c| over lags [0, maxlag], or [-maxlag, maxlag], along the last axis."""
    peak = np.abs(c[..., :maxlag + 1]).max(axis=-1)
    if two_sided and maxlag:
        peak = np.maximum(peak, np.abs(c[..., -maxlag:]).max(axis=-1))
    return peak


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
    norm = np.sqrt(np.dot(x, x) * np.dot(y, y))
    if norm == 0.0:
        raise UndefinedCorrelation("all-zero input: correlation normalizer is 0")
    return float(min(lag_peak(xcorr_lags(x, y, maxlag, method=method), maxlag) / norm, 1.0))


def max_xcorr_norm_two_sided(x: np.ndarray, y: np.ndarray, maxlag: int) -> float:
    """Normalized maximum over lags [-maxlag, maxlag].

    Equals max(max_xcorr_norm(x, y, maxlag), max_xcorr_norm(y, x, maxlag))
    at the cost of a single FFT pass.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size != y.size or x.size == 0:
        raise ValueError("signals must be nonempty and of equal length")
    norm = np.sqrt(np.dot(x, x) * np.dot(y, y))
    if norm == 0.0:
        raise UndefinedCorrelation("all-zero input: correlation normalizer is 0")
    peak = lag_peak(_xcorr_fft_circular(x, y, maxlag), maxlag, two_sided=True)
    return float(min(peak / norm, 1.0))


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


def apply_alignment(x: AudioSnippet, y: AudioSnippet,
                    result: AlignmentResult) -> tuple[AudioSnippet, AudioSnippet]:
    """Shift-and-trim both snippets to the aligned common length."""
    x2, y2 = _coarse_align(x, y)
    lag, n = result.lag_samples, result.trimmed_len
    xs, ys = x2.samples, y2.samples
    if lag >= 0:
        xa, ya = xs[:n], ys[lag:lag + n]
        y_start = y2.start_time + int(round(lag * 1000 / y2.rate_hz))
        return (
            AudioSnippet(xa, x2.rate_hz, x2.start_time, x2.device_id),
            AudioSnippet(ya, y2.rate_hz, y_start, y2.device_id),
        )
    xa, ya = xs[-lag:-lag + n], ys[:n]
    x_start = x2.start_time + int(round(-lag * 1000 / x2.rate_hz))
    return (
        AudioSnippet(xa, x2.rate_hz, x_start, x2.device_id),
        AudioSnippet(ya, y2.rate_hz, y2.start_time, y2.device_id),
    )


def _coarse_align(x: AudioSnippet, y: AudioSnippet) -> tuple[AudioSnippet, AudioSnippet]:
    if x.rate_hz != y.rate_hz:
        raise InvariantViolation("snippets must share a sampling rate")
    start = max(x.start_time, y.start_time)
    end = min(x.end_time, y.end_time)
    if start >= end:
        raise InvariantViolation("snippets do not overlap in time")
    return x.slice_ms(start, end), y.slice_ms(start, end)


def fft_mag_hamming(x: np.ndarray) -> np.ndarray:
    """|FFT(hamming(N) * x)| truncated to the first N//2 bins."""
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    if n < 2:
        raise ValueError("need at least 2 samples")
    spectrum = np.fft.fft(np.hamming(n) * x)
    return np.abs(spectrum[:n // 2])

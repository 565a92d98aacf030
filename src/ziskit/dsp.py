"""Signal-processing primitives shared by the audio schemes.

Band-pass filtering uses Butterworth designs of total order FILTER_ORDER,
the order both audio schemes use, realized as cascaded second-order
sections; a direct-form transfer function of order 20 is numerically
unstable for narrow bands at 16 kHz. Every cross-correlation runs through
one FFT core (padded_spectrum, xcorr_spectra, lag_peak), which searches lags
[-maxlag, maxlag]; the direct-sum reference in tests/reference.py checks it
to 1e-6 relative. The schemes score many pairs at once through `pair_peaks`,
which equals that per-pair path bit for bit in two scratch buffers of the
caller's, and filter and transform into buffers they own (`sosfilt`,
`bandpass`, `rfft` and `fft_mag_hamming` take `out`), so that no array is
allocated per band or per pair.

The band filters need no scipy.signal package, whose import also loads
scipy.stats, scipy.interpolate and scipy.optimize, and the FFTs need no
scipy.fft package, whose import also loads scipy.special.
`butter_bandpass_sos` is a numpy port of scipy's Butterworth band-pass design
with equal coefficients bit for bit. `sosfilt` runs scipy's compiled cascade
and `rfft`/`_irfft` run scipy's compiled pocketfft transforms, each kernel
loaded alone from its file (`_scipy_kernel`), with output equal bit for bit
to scipy.signal.sosfilt and scipy.fft.rfft/irfft; `fft_mag_hamming` runs
pocketfft's complex transform in place, equal bit for bit to numpy.fft.fft.
A kernel is loaded when a function first uses it, here and in the other
modules the CLI imports, so commands that never filter or transform audio do
not pay for it: the `_sosfilt` kernel for the band filters (here and in
datagen) and the pocketfft kernel for the FFTs. `_scipy_kernel` is the one
loader; it runs first loads one at a time, so the first use may come from
any thread, a pipeline's worker threads included. WAV files are read and
written without scipy (`core.io`).
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
import threading
from dataclasses import dataclass
from functools import cache, lru_cache
from pathlib import Path

import numpy as np

from ziskit.core.types import Recording
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


# Relative tolerance of scipy's `_cplxreal` for equal real parts of poles.
_PAIR_TOL = 100 * np.finfo(np.float64).eps


def butter_bandpass_sos(order: int, f_low: float, f_high: float, rate_hz: float) -> np.ndarray:
    """Butterworth band-pass from a low-pass prototype of even `order`, as
    `order` second-order sections (order x 6).

    Equal bit for bit to scipy.signal.butter(order, [f_low, f_high],
    btype="bandpass", fs=rate_hz, output="sos") of scipy 1.17: it runs scipy's
    operations in scipy's order (buttap, lp2bp_zpk, bilinear_zpk, then
    zpk2sos with "nearest" pairing). An even order makes every pole complex and
    leaves the zeros at exactly +1 and -1, `order` of each, so none of scipy's
    branches for real poles is needed; an odd order raises ValueError. Raises
    InvalidBand unless 0 < f_low < f_high < 1 once the edges are divided by the
    Nyquist frequency, where scipy raises ValueError, and when an edge within
    about 1e-12 of either end rounds a pole onto the real axis.
    """
    if order < 2 or order % 2:
        raise ValueError(f"Butterworth order must be even and positive, got {order}")
    wn = np.asarray([f_low, f_high], dtype=np.float64) / (float(rate_hz) / 2)
    if not 0 < wn[0] < wn[1] < 1:
        raise InvalidBand(f"band [{f_low}, {f_high}] outside (0, {rate_hz / 2}) or empty")
    # Analog prototype poles, edges pre-warped at fs = 2, low-pass to band-pass.
    m = np.arange(-order + 1, order, 2, dtype=np.float64)
    p = -np.exp(1j * np.pi * m / (2 * order))
    fs = 2.0
    warped = 2 * fs * np.tan(np.pi * wn / fs)
    bw = float(warped[1] - warped[0])
    wo = float(np.sqrt(warped[0] * warped[1]))
    p = p * bw / 2
    p = np.concatenate((p + np.sqrt(p**2 - wo**2), p - np.sqrt(p**2 - wo**2)))
    # Bilinear transform; the `order` analog zeros sit at the origin.
    fs2 = 2.0 * fs
    k = bw**order * np.real(np.prod(fs2 - np.zeros(order, dtype=complex)) / np.prod(fs2 - p))
    p = (fs2 + p) / (fs2 - p)
    if not np.all(p.imag):  # rounded onto the real axis, which scipy pairs otherwise
        raise InvalidBand(f"band [{f_low}, {f_high}] too near 0 or {rate_hz / 2} Hz")
    p = _upper_poles(p)
    z = np.repeat([-1.0, 1.0], order)
    # Pair the pole nearest the unit circle with its two nearest zeros, last
    # section first.
    sos = np.zeros((order, 6))
    for section in range(order - 1, -1, -1):
        i = np.argmin(np.abs(1 - np.abs(p)))
        pole = p[i]
        p = np.delete(p, i)
        zeros = []
        for _ in range(2):
            j = np.argsort(np.abs(z - pole))[0]
            zeros.append(z[j])
            z = np.delete(z, j)
        sos[section, :3] = np.poly(zeros)
        sos[section, 3:] = np.poly([pole, pole.conj()])
    sos[0, :3] *= k
    return sos


def _upper_poles(p: np.ndarray) -> np.ndarray:
    """scipy's `_cplxreal` of conjugate pairs only: one pole of each pair, with
    positive imaginary part, sorted by real part and then by |imaginary part|."""
    p = p[np.lexsort((abs(p.imag), p.real))]
    upper, lower = p[p.imag > 0], p[p.imag < 0]
    # Runs of equal real parts (within _PAIR_TOL) are sorted by |imaginary part|.
    same_real = np.diff(upper.real) <= _PAIR_TOL * abs(upper[:-1])
    diffs = np.diff(np.concatenate(([0], same_real, [0])))
    for start, stop in zip(np.nonzero(diffs > 0)[0], np.nonzero(diffs < 0)[0] + 1):
        for run in (upper[start:stop], lower[start:stop]):
            run[...] = run[np.lexsort([abs(run.imag)])]
    return (upper + lower.conj()) / 2


# The compiled scipy modules the program runs, each loaded by `_scipy_kernel`.
_SOSFILT = "scipy.signal._sosfilt"
_POCKETFFT = "scipy.fft._pocketfft.pypocketfft"
# Serializes first loads: `cache` lets two threads run the function at once.
_KERNEL_LOCK = threading.Lock()


@cache
def _scipy_kernel(name: str):
    """scipy's compiled module `name`, loaded from its file so that no scipy
    package `__init__` runs.

    The module is registered in sys.modules as `name`, which a later import of
    its package then reuses, and an earlier one has already loaded. Loads run
    one at a time: an extension module enters sys.modules while it is still
    being initialized, so a second thread could find it half built.
    """
    with _KERNEL_LOCK:
        module = sys.modules.get(name)
        if module is None:
            root, *package, stem = name.split(".")
            spec = importlib.util.find_spec(root)
            paths = [] if spec is None else [
                path for suffix in importlib.machinery.EXTENSION_SUFFIXES
                if (path := Path(spec.origin).parent.joinpath(*package, stem + suffix)).is_file()]
            if not paths:
                raise ImportError(f"scipy's compiled {name} kernel is not installed", name=name)
            loader = importlib.machinery.ExtensionFileLoader(name, str(paths[0]))
            module = importlib.util.module_from_spec(
                importlib.util.spec_from_file_location(name, paths[0], loader=loader))
            loader.exec_module(module)
            sys.modules[name] = module
    return module


def sosfilt(sos: np.ndarray, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Zero-state cascade of the second-order sections `sos` along the last axis.

    Equal bit for bit to scipy.signal.sosfilt(sos, x): the same compiled loop,
    on a C-ordered copy of `x` as (rows, N) in the dtype of `sos` and `x`.
    The copy goes into `out` when given, a C-contiguous array of x's shape
    and that dtype, which is overwritten and returned.
    """
    kernel = _scipy_kernel(_SOSFILT)._sosfilt
    x = np.asarray(x)
    dtype = np.result_type(sos, x)
    if out is None:
        out = np.empty(x.shape, dtype)
    elif out.shape != x.shape or out.dtype != dtype or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous {dtype} array of shape {x.shape}")
    rows = out.reshape(-1, x.shape[-1])
    rows[...] = x.reshape(rows.shape)
    kernel(sos.astype(dtype, copy=False), rows, np.zeros((rows.shape[0], len(sos), 2), dtype))
    return out


@lru_cache(maxsize=256)
def _bandpass_sos(f_low: float, f_high: float, rate_hz: int) -> np.ndarray:
    return butter_bandpass_sos(FILTER_ORDER // 2, f_low, f_high, rate_hz)


def bandpass(x: np.ndarray, f_low: float, f_high: float, *, rate_hz: int,
             out: np.ndarray | None = None) -> np.ndarray:
    """Zero-state Butterworth band-pass of total order FILTER_ORDER along the last axis.

    Output has the shape of the input, in float64; `out` is an output
    buffer, as in `sosfilt`.
    """
    if not 0 < f_low < f_high < rate_hz / 2:
        raise InvalidBand(f"band [{f_low}, {f_high}] outside (0, {rate_hz / 2})")
    return sosfilt(_bandpass_sos(float(f_low), float(f_high), int(rate_hz)), x, out=out)


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


def _as_float(x: np.ndarray) -> np.ndarray:
    """scipy.fft's `_asfarray`: float16 to float32, other non-float dtypes to
    float64, and floats in native byte order in aligned memory."""
    if x.dtype == np.float16:
        return np.asarray(x, np.float32)
    if x.dtype.kind not in "fc":
        return np.asarray(x, np.float64)
    return np.array(x, x.dtype.newbyteorder("="), copy=None if x.flags.aligned else True)


def _fit_last_axis(x: np.ndarray, n: int) -> np.ndarray:
    """scipy.fft's `_fix_shape_1d` on the last axis: truncated to n, or
    zero-padded to n in a copy."""
    if x.shape[-1] >= n:
        return x[..., :n]
    padded = np.zeros((*x.shape[:-1], n), x.dtype)
    padded[..., :x.shape[-1]] = x
    return padded


def rfft(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Real forward FFT of float `x` along its last axis at its own length,
    into `out` when given. Equal bit for bit to scipy.fft.rfft(x, axis=-1)."""
    return _scipy_kernel(_POCKETFFT).r2c(x, axes=(-1,), forward=True, inorm=0, out=out,
                                         nthreads=1)


def _irfft(spectrum: np.ndarray, pad_len: int, out: np.ndarray | None = None) -> np.ndarray:
    """Inverse of `rfft` at length pad_len along the last axis, into `out` when
    given; norm code 2 scales it by 1 / pad_len."""
    return _scipy_kernel(_POCKETFFT).c2r(spectrum, axes=(-1,), lastsize=pad_len, forward=False,
                                         inorm=2, out=out, nthreads=1)


def padded_spectrum(x: np.ndarray, maxlag: int) -> tuple[np.ndarray, int]:
    """rfft along the last axis at M = fast_len(N + maxlag), and M.

    At M, circular correlation is exact for every lag in [-maxlag, maxlag].
    Equal bit for bit, and in dtype, to scipy.fft.rfft(x, M, axis=-1)."""
    pad = fast_len(x.shape[-1] + maxlag)
    return rfft(_fit_last_axis(_as_float(x), pad)), pad


def xcorr_spectra(fx: np.ndarray, fy: np.ndarray, pad_len: int) -> np.ndarray:
    """c[l] = sum_i x[i]*y[i-l] (lag -l at c[-l]) from padded spectra, last axis.

    Equal bit for bit, and in dtype, to scipy.fft.irfft of the product at
    pad_len.
    """
    # numpy evaluates `fx * conj(fy)` as `conj(fy) * fx` only for arrays of 256 KiB
    # and more, and with FMA the two orders differ in the last bit: fix the order.
    product = np.multiply(np.conjugate(fy), fx)
    return _irfft(_fit_last_axis(_as_float(product), pad_len // 2 + 1), pad_len)


def lag_peak(c: np.ndarray, maxlag: int) -> np.ndarray:
    """max |c| over lags [-maxlag, maxlag] along the last axis."""
    peak = np.abs(c[..., :maxlag + 1]).max(axis=-1)
    if maxlag:  # c[..., -0:] would be the whole array
        peak = np.maximum(peak, np.abs(c[..., -maxlag:]).max(axis=-1))
    return peak


def pair_peaks(spectra, pairs, maxlag: int, c: np.ndarray, product: np.ndarray,
               out: np.ndarray | None = None) -> np.ndarray:
    """out[k] = lag_peak(xcorr_spectra(spectra[a], spectra[b], c.size), maxlag)
    for the k-th pair (a, b), bit for bit; a new array without `out`.

    The one correlation core of the schemes. `spectra` is a stack of
    complex128 rows of `padded_spectrum` at pad length c.size, or a mapping to
    such rows, indexed by the keys of `pairs`. `c`, float64 of the pad length,
    and `product`, complex128 of its pad/2 + 1 bins, are the caller's scratch
    and are overwritten: each pair's product and |c| over the searched lags
    are taken in place, so no array is allocated per pair.
    """
    out = np.empty(len(pairs)) if out is None else out
    # Lags [0, maxlag] and [-maxlag, -1]; the second is empty at maxlag 0.
    head, tail = c[:maxlag + 1], c[c.size - maxlag:]
    for k, (a, b) in enumerate(pairs):
        # conj(fy) * fx, the order of `xcorr_spectra`.
        np.conjugate(spectra[b], out=product)
        np.multiply(product, spectra[a], out=product)
        _irfft(product, c.size, out=c)
        peak = np.abs(head, out=head).max()
        out[k] = np.maximum(peak, np.abs(tail, out=tail).max()) if maxlag else peak
    return out


def normalize_peak(peak, energy_x, energy_y):
    """min(peak / sqrt(Ex * Ey), 1), elementwise.

    Energies are sums of squares. Raises UndefinedCorrelation when a
    normalizer is 0 (all-zero input).
    """
    norm = np.sqrt(energy_x * energy_y)
    if np.any(norm == 0.0):
        raise UndefinedCorrelation("all-zero input: correlation normalizer is 0")
    return np.minimum(peak / norm, 1.0)


def _xcorr_fft_circular(x: np.ndarray, y: np.ndarray, maxlag: int) -> np.ndarray:
    """Circular FFT correlation padded so lags [-maxlag, maxlag] are exact."""
    fx, pad = padded_spectrum(x, maxlag)
    fy, _ = padded_spectrum(y, maxlag)
    return xcorr_spectra(fx, fy, pad)


def max_xcorr_norm_two_sided(x: np.ndarray, y: np.ndarray, maxlag: int) -> float:
    """Normalized maximum cross-correlation over lags [-maxlag, maxlag], in [0, 1].

    max over l of |C_xy(l)| / sqrt(C_xx(0) * C_yy(0)), with C_xy(l) =
    sum_i x[i]*y[i-l], from a single FFT pass. Raises UndefinedCorrelation
    when either signal is all-zero.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size != y.size or x.size == 0:
        raise ValueError("signals must be nonempty and of equal length")
    c = _xcorr_fft_circular(x, y, maxlag)
    return float(normalize_peak(lag_peak(c, maxlag), np.dot(x, x), np.dot(y, y)))


def align(x: Recording, y: Recording, probe_len_s: float,
          maxlag_s: float) -> AlignmentResult:
    """Two-stage alignment: coarse by timestamps, fine by cross-correlation.

    The probe prefix of the recordings' common time span is correlated over
    lags within +/- maxlag_s; only the probe is read. A positive lag means y
    started `lag` samples late.
    """
    if x.rate_hz != y.rate_hz:
        raise InvariantViolation("snippets must share a sampling rate")
    start = max(x.start_time, y.start_time)
    end = min(x.end_time, y.end_time)
    if start >= end:
        raise InvariantViolation("snippets do not overlap in time")
    (x0, x1), (y0, y1) = x.frame_range(start, end), y.frame_range(start, end)
    rate = x.rate_hz
    maxlag = int(round(maxlag_s * rate))
    n = min(x1 - x0, y1 - y0)
    probe = min(int(round(probe_len_s * rate)), n)
    if probe < 2 * maxlag or probe == 0:
        raise InsufficientProbe(
            f"probe of {probe} samples cannot resolve lags up to {maxlag}")
    if maxlag == 0:
        return AlignmentResult(lag_samples=0, trimmed_len=n)
    px = x.read(x0, x0 + probe).astype(np.float64)
    py = y.read(y0, y0 + probe).astype(np.float64)
    c = _xcorr_fft_circular(px, py, maxlag)
    # Advancing y by k aligns it when y is k samples late: score C(-k) = c[-k].
    lags = np.arange(-maxlag, maxlag + 1)
    values = c[(-lags) % c.size]
    lag = int(lags[np.argmax(values)])
    return AlignmentResult(lag_samples=lag, trimmed_len=n - abs(lag))


@lru_cache(maxsize=16)
def _hamming(n: int) -> np.ndarray:
    window = np.hamming(n)
    window.flags.writeable = False
    return window


def fft_mag_hamming(x: np.ndarray, out: np.ndarray | None = None,
                    work: np.ndarray | None = None) -> np.ndarray:
    """|FFT(hamming(N) * x)| truncated to the first N//2 bins, into `out` when
    given.

    The windowed samples, with imaginary part 0, are transformed in place by
    pocketfft's complex FFT in the head of `work` when given, a complex128
    buffer of at least N bins that is overwritten, and in a new array
    otherwise. Equal bit for bit to np.abs(np.fft.fft(np.hamming(N) * x)[:N // 2]).
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    if n < 2:
        raise ValueError("need at least 2 samples")
    z = np.empty(n, complex) if work is None else work[:n]
    np.multiply(_hamming(n), x, out=z.real)
    z.imag = 0.0
    _scipy_kernel(_POCKETFFT).c2c(z, axes=(-1,), forward=True, inorm=0, out=z, nthreads=1)
    return np.abs(z[:n // 2], out=out)

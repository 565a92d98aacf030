import importlib.machinery
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.fft
import scipy.signal
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.signal import sosfreqz

from conftest import noise_snippet
from reference import apply_alignment, max_xcorr_norm
from ziskit import datagen, dsp
from ziskit.core.types import AudioSnippet
from ziskit.errors import InsufficientProbe, InvalidBand, InvariantViolation, UndefinedCorrelation
from ziskit.schemes import karapanos, schurmann

RATE = 16000


def sine(freq, seconds=1.0, rate=RATE, amplitude=1000.0):
    t = np.arange(int(seconds * rate)) / rate
    return amplitude * np.sin(2 * np.pi * freq * t)


def direct_xcorr(x, y, maxlag):
    n = len(x)
    return np.array([np.dot(x[l:], y[:n - l]) for l in range(maxlag + 1)])


class TestOctaveBands:
    def test_table_has_bands_6_to_25(self):
        numbers = [b.band_number for b in dsp.THIRD_OCTAVE_BANDS]
        assert numbers == list(range(6, 26))

    def test_edges_ordered_and_contiguous(self):
        for prev, cur in zip(dsp.THIRD_OCTAVE_BANDS, dsp.THIRD_OCTAVE_BANDS[1:]):
            assert prev.f_low < prev.f_center < prev.f_high
            assert prev.f_high == pytest.approx(cur.f_low)

    def test_covers_50hz_to_4khz(self):
        assert dsp.THIRD_OCTAVE_BANDS[0].f_center == pytest.approx(49.606)
        assert dsp.THIRD_OCTAVE_BANDS[-1].f_center == pytest.approx(4000.0)


class TestBandpass:
    def test_passband_sine_attenuation_below_3db(self):
        x = sine(100, seconds=2.0)
        y = dsp.bandpass(x, 88.388, 111.362, rate_hz=RATE)
        # steady state: skip the first half second of transient
        tail = slice(RATE // 2, None)
        ratio = np.sqrt(np.mean(y[tail] ** 2) / np.mean(x[tail] ** 2))
        assert 20 * np.log10(ratio) > -3.0

    def test_stopband_sine_heavily_attenuated(self):
        # Oracle: the designed filter's frequency response at 100 Hz.
        x = sine(100, seconds=2.0)
        y = dsp.bandpass(x, 1781.797, 2244.924, rate_hz=RATE)
        rms_ratio = np.sqrt(np.mean(y ** 2) / np.mean(x ** 2))
        assert rms_ratio < 0.01
        sos = dsp._bandpass_sos(1781.797, 2244.924, RATE)
        _, response = sosfreqz(sos, worN=[2 * np.pi * 100 / RATE])
        assert abs(response[0]) < 0.01

    def test_zero_in_zero_out(self):
        out = dsp.bandpass(np.zeros(1000), 100, 200, rate_hz=RATE)
        assert not np.any(out)

    def test_output_length_preserved(self):
        out = dsp.bandpass(np.ones(777), 100, 200, rate_hz=RATE)
        assert out.shape == (777,)

    def test_band_outside_nyquist(self):
        with pytest.raises(InvalidBand):
            dsp.bandpass(np.ones(100), 100, 9000, rate_hz=RATE)
        with pytest.raises(InvalidBand):
            dsp.bandpass(np.ones(100), 0, 200, rate_hz=RATE)

    def test_linearity(self, rng):
        x = rng.normal(size=4000)
        y = rng.normal(size=4000)
        a, b = 2.5, -1.25
        lhs = dsp.bandpass(a * x + b * y, 400, 800, rate_hz=RATE)
        rhs = a * dsp.bandpass(x, 400, 800, rate_hz=RATE) \
            + b * dsp.bandpass(y, 400, 800, rate_hz=RATE)
        assert np.max(np.abs(lhs - rhs)) <= 1e-9 * max(1.0, np.max(np.abs(lhs)))

    def test_int16_input_filters_as_its_float64_cast(self, rng):
        x = rng.integers(-32768, 32768, size=(3, 2000)).astype(np.int16)
        assert np.array_equal(dsp.bandpass(x, 400, 800, rate_hz=RATE),
                              dsp.bandpass(x.astype(np.float64), 400, 800, rate_hz=RATE))

    def test_band_energy_non_negative(self, rng):
        out = dsp.bandpass(rng.normal(size=2000), 250, 500, rate_hz=RATE)
        assert float(out @ out) >= 0.0


# Common audio rates; each scheme's bands are designed at those its fits_rate accepts.
RATES = (8000, 11025, 16000, 22050, 32000, 44100, 48000, 96000)


def scipy_butter(order, f_low, f_high, rate_hz):
    return scipy.signal.butter(order, [f_low, f_high], btype="bandpass", fs=rate_hz,
                               output="sos")


class TestButterBandpassSos:
    """The numpy port equals scipy.signal.butter bit for bit."""

    def test_every_band_the_program_designs(self):
        designs = [(2, *datagen.AmbientProfile().event_band_hz, datagen.RATE_HZ)]
        for rate in RATES:
            if karapanos.fits_rate(rate):
                designs += [(dsp.FILTER_ORDER // 2, b.f_low, b.f_high, rate)
                            for b in dsp.THIRD_OCTAVE_BANDS]
            if schurmann.fits_rate(rate):
                designs += [(dsp.FILTER_ORDER // 2, lo, hi, rate)
                            for lo, hi in schurmann.band_edges(rate)]
        # Karapanos's bands fit from 11025 Hz on, Schurmann's from 16000 Hz on.
        assert len(designs) == 1 + 7 * 20 + 6 * 32
        for design in designs:
            assert np.array_equal(dsp.butter_bandpass_sos(*design), scipy_butter(*design)), design

    @given(order=st.sampled_from([2, 10]), rate=st.integers(8000, 96000), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_equals_scipy_on_drawn_bands(self, order, rate, data):
        # Edges that meet once divided by the Nyquist frequency raise in both.
        top = rate / 2 - 1
        f_low = data.draw(st.floats(1.0, top, exclude_max=True), label="f_low")
        f_high = data.draw(st.floats(f_low, top, exclude_min=True), label="f_high")
        try:
            expected = scipy_butter(order, f_low, f_high, rate)
        except ValueError:
            with pytest.raises(InvalidBand):
                dsp.butter_bandpass_sos(order, f_low, f_high, rate)
            return
        sos = dsp.butter_bandpass_sos(order, f_low, f_high, rate)
        assert sos.shape == (order, 6)
        assert np.array_equal(sos, expected)

    @pytest.mark.parametrize("order", [1, 3, 9, 0])
    def test_odd_or_zero_order_raises(self, order):
        with pytest.raises(ValueError, match="even"):
            dsp.butter_bandpass_sos(order, 300.0, 3500.0, RATE)

    def test_band_outside_nyquist_raises(self):
        with pytest.raises(InvalidBand):
            dsp.butter_bandpass_sos(2, 300.0, 8000.0, RATE)

    @pytest.mark.parametrize("f_low, f_high", [(1e-20, 1.0), (1e-300, 3500.0),
                                               (1.0, 7999.999999999)])
    def test_edge_that_rounds_a_pole_real_raises(self, f_low, f_high):
        # scipy pairs real poles in branches that the port leaves out.
        with pytest.raises(InvalidBand, match="too near"):
            dsp.butter_bandpass_sos(2, f_low, f_high, RATE)


class TestSosfilt:
    """`dsp.sosfilt` runs scipy's compiled loop: equal to scipy.signal.sosfilt."""

    @pytest.mark.parametrize("shape", [(3001,), (4, 1500), (2, 3, 700)])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_equals_scipy(self, shape, dtype, rng):
        # This module imports scipy.signal first, which loads the kernel.
        sos = dsp.butter_bandpass_sos(dsp.FILTER_ORDER // 2, 400.0, 800.0, RATE)
        x = rng.normal(scale=1000.0, size=shape).astype(dtype)
        out = dsp.sosfilt(sos, x)
        ref = scipy.signal.sosfilt(sos, x)
        assert out.dtype == ref.dtype == np.float64 and out.shape == shape
        assert np.array_equal(out, ref)
        # Input in Fortran order is filtered as its C-ordered copy.
        assert np.array_equal(dsp.sosfilt(sos, np.asfortranarray(x)), ref)
        # A caller's buffer receives the same bits, and is what comes back.
        buffer = np.full(shape, np.nan)
        assert dsp.sosfilt(sos, x, out=buffer) is buffer
        assert buffer.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("shape, dtype, order", [((5, 100), np.float64, "C"),
                                                     ((4, 101), np.float64, "C"),
                                                     ((4, 100), np.float32, "C"),
                                                     ((4, 100), np.float64, "F")])
    def test_rejects_an_unfit_buffer(self, shape, dtype, order):
        sos = dsp.butter_bandpass_sos(dsp.FILTER_ORDER // 2, 400.0, 800.0, RATE)
        with pytest.raises(ValueError, match="C-contiguous float64"):
            dsp.sosfilt(sos, np.ones((4, 100), np.int16), out=np.empty(shape, dtype, order=order))

    def test_kernel_loads_alone_then_scipy_signal_reuses_it(self, tmp_path):
        # A fresh process loads the kernel before any scipy.signal import: no
        # other scipy.signal module loads, and scipy.signal.sosfilt, imported
        # after it, gives the same bits.
        probe = """
import json, sys
import numpy as np
from ziskit import dsp
sos = dsp.butter_bandpass_sos(10, 1781.797, 2244.924, 16000)
xs = [np.random.default_rng(3).normal(size=s) for s in [(2000,), (3, 900), (2, 2, 500)]]
xs.append(xs[1].astype(np.float32))
outs = [dsp.sosfilt(sos, x) for x in xs]
loaded = sorted(m for m in sys.modules if m.startswith("scipy."))
import scipy.signal
print(json.dumps([loaded, all(np.array_equal(o, scipy.signal.sosfilt(sos, x))
                              for o, x in zip(outs, xs))]))
"""
        loaded, equal = run_probe(probe, tmp_path)
        assert [m for m in loaded if m.startswith(("scipy.signal", "scipy.stats",
                                                   "scipy.interpolate", "scipy.optimize"))] \
            == ["scipy.signal._sosfilt"]
        assert equal


def run_probe(probe: str, cwd: Path):
    """The JSON last line that `probe` prints in a fresh Python process."""
    src = str(Path(dsp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH", "")) if p))
    proc = subprocess.run([sys.executable, "-c", probe], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("name", ["scipy.signal._sosfilt", "scipy.fft._pocketfft.pypocketfft"])
def test_missing_kernel_file_raises_import_error(name, monkeypatch):
    monkeypatch.delitem(sys.modules, name, raising=False)
    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".missing"])
    dsp._scipy_kernel.cache_clear()
    try:
        with pytest.raises(ImportError, match=name) as err:
            dsp._scipy_kernel(name)
        assert err.value.name == name
    finally:
        dsp._scipy_kernel.cache_clear()


def test_first_kernel_loads_from_two_threads_at_once(tmp_path):
    # Two threads per kernel load it at once and use it, each time in a fresh
    # process; a load left unserialized hands one of them a half-built module.
    probe = """
import json, threading
from ziskit import dsp
kernels = {"scipy.signal._sosfilt": "_sosfilt", "scipy.fft._pocketfft.pypocketfft": "r2c"}
barrier = threading.Barrier(2 * len(kernels))
failures = []

def load(name):
    barrier.wait()
    try:
        getattr(dsp._scipy_kernel(name), kernels[name])
    except Exception as exc:
        failures.append(repr(exc))

threads = [threading.Thread(target=load, args=(name,)) for name in kernels for _ in range(2)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join()
print(json.dumps(failures))
raise SystemExit(1 if failures else 0)
"""
    for _ in range(4):
        assert run_probe(probe, tmp_path) == []


def program_fft_sizes() -> list[tuple[int, int]]:
    """(N, maxlag) of every padded_spectrum call the program makes at 8, 16,
    44.1, 48 and 96 kHz: Karapanos over t = 1-30 s at maxlag_s 1 s, Truong's
    full-lag correlation over the same t, and `align`'s default 60 s probe at
    3 s maxlag."""
    sizes = set()
    for rate in (8000, 16000, 44100, 48000, 96000):
        for t in range(1, 31):
            sizes.add((t * rate, rate))
            sizes.add((t * rate, t * rate - 1))
        sizes.add((60 * rate, 3 * rate))
    return sorted(sizes)


FFT_SIZES = program_fft_sizes()


class TestFftCore:
    """padded_spectrum and xcorr_spectra run scipy's pocketfft kernel alone:
    equal, in bits and dtype, to scipy.fft.rfft and irfft at the same pad."""

    @given(size=st.sampled_from(FFT_SIZES),
           dtype=st.sampled_from([np.int16, np.float32, np.float64]),
           rows=st.sampled_from([0, 2, 3]), seed=st.integers(0, 2 ** 32 - 1))
    @example(size=FFT_SIZES[0], dtype=np.int16, rows=3, seed=0)
    @example(size=max(FFT_SIZES, key=lambda s: dsp.fast_len(sum(s))), dtype=np.float32,
             rows=0, seed=0)
    @settings(max_examples=12, deadline=None)
    def test_equals_scipy_fft_at_program_sizes(self, size, dtype, rows, seed):
        n, maxlag = size
        # Stacks only below 2**20 samples a row, to keep a draw's memory small.
        shape = (rows, n) if rows and n < 2 ** 20 else (n,)
        gen = np.random.default_rng(seed)
        x = gen.integers(-2 ** 15, 2 ** 15, shape).astype(dtype)
        y = gen.integers(-2 ** 15, 2 ** 15, shape).astype(dtype)
        fx, pad = dsp.padded_spectrum(x, maxlag)
        fy, _ = dsp.padded_spectrum(y, maxlag)
        assert pad == dsp.fast_len(n + maxlag)
        for ours, ref in ((fx, scipy.fft.rfft(x, pad, axis=-1)),
                          (fy, scipy.fft.rfft(y, pad, axis=-1))):
            assert ours.dtype == ref.dtype and np.array_equal(ours, ref)
        ref = scipy.fft.irfft(np.multiply(np.conjugate(fy), fx), pad, axis=-1)
        c = dsp.xcorr_spectra(fx, fy, pad)
        assert c.dtype == ref.dtype and np.array_equal(c, ref)

    def test_wrapper_converts_as_scipy_does(self, rng):
        x = rng.normal(scale=1000.0, size=999)
        for variant in (x.astype(np.float16), x.astype(">f8"), x.astype(np.int32),
                        np.lib.stride_tricks.as_strided(np.repeat(x, 2), (999,), (16,))):
            ours, pad = dsp.padded_spectrum(variant, 10)
            ref = scipy.fft.rfft(variant, pad, axis=-1)
            assert ours.dtype == ref.dtype and np.array_equal(ours, ref)
            c = dsp.xcorr_spectra(ours, ours, pad)
            ref = scipy.fft.irfft(np.multiply(np.conjugate(ours), ours), pad, axis=-1)
            assert c.dtype == ref.dtype and np.array_equal(c, ref)

    @pytest.mark.parametrize("kernel_first", [True, False])
    def test_kernel_and_scipy_fft_share_one_module(self, tmp_path, kernel_first):
        # Loaded first, the kernel comes alone, and a later `import scipy.fft`
        # reuses its module object; loaded after scipy.fft, it is scipy's.
        probe = f"""
import json, sys
import numpy as np
from ziskit import dsp
loaded = []
if {kernel_first}:
    dsp.rfft(np.zeros(8))
    loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
import scipy.fft
dsp.rfft(np.zeros(8))
name = "scipy.fft._pocketfft.pypocketfft"
kernel = dsp._scipy_kernel(name)
x = np.random.default_rng(5).normal(size=(2, 4000))
fx, pad = dsp.padded_spectrum(x, 400)
print(json.dumps([loaded, sys.modules[name] is kernel,
                  scipy.fft._pocketfft.basic.pfft is kernel,
                  np.array_equal(fx, scipy.fft.rfft(x, pad)),
                  np.array_equal(dsp.xcorr_spectra(fx, fx, pad),
                                 scipy.fft.irfft(np.conjugate(fx) * fx, pad))]))
"""
        loaded, *same = run_probe(probe, tmp_path)
        assert loaded == (["scipy.fft._pocketfft.pypocketfft"] if kernel_first else [])
        assert same == [True] * 4


class TestMaxXcorrNorm:
    def test_identity_is_one(self, rng):
        x = rng.normal(size=500)
        assert max_xcorr_norm(x, x, 0) == pytest.approx(1.0, abs=1e-12)

    def test_negation_is_one(self, rng):
        x = rng.normal(size=500)
        assert max_xcorr_norm(x, -x, 10) == pytest.approx(1.0, abs=1e-12)

    def test_shifted_copy_peaks_at_shift(self, rng):
        # Oracle: brute-force all lags with the direct sum.
        n, k = 600, 37
        x = rng.normal(size=n)
        y = np.concatenate([np.zeros(k), x[:n - k]])  # y delayed by k
        c = direct_xcorr(x, y, 60)
        # C(l) = sum x[i] y[i-l] is NOT maximal at k in that direction;
        # the reversed order peaks there.
        c_rev = direct_xcorr(y, x, 60)
        assert np.argmax(np.abs(c_rev)) == k
        val = max_xcorr_norm(y, x, 60)
        norm = np.sqrt(np.dot(x, x) * np.dot(y, y))
        assert val == pytest.approx(np.max(np.abs(c_rev)) / norm, rel=1e-12)
        assert val >= abs(c[0]) / norm

    def test_fft_agrees_with_direct(self, rng):
        for _ in range(5):
            x = rng.normal(size=3000)
            y = rng.normal(size=3000)
            fft_val = max_xcorr_norm(x, y, 300, method="fft")
            direct_val = max_xcorr_norm(x, y, 300, method="direct")
            assert fft_val == pytest.approx(direct_val, rel=1e-6)

    def test_all_zero_raises(self):
        with pytest.raises(UndefinedCorrelation):
            max_xcorr_norm(np.zeros(10), np.ones(10), 2)

    def test_two_sided_equals_best_order(self, rng):
        for _ in range(10):
            x = rng.normal(size=401)
            y = rng.normal(size=401)
            two = dsp.max_xcorr_norm_two_sided(x, y, 40)
            assert two == pytest.approx(
                max(max_xcorr_norm(x, y, 40), max_xcorr_norm(y, x, 40)),
                rel=1e-12)

    @given(scale=st.floats(min_value=0.01, max_value=100.0),
           seed=st.integers(min_value=0, max_value=2 ** 16))
    @settings(max_examples=30, deadline=None)
    def test_scale_invariance(self, scale, seed):
        gen = np.random.default_rng(seed)
        x = gen.normal(size=128)
        y = gen.normal(size=128)
        base = max_xcorr_norm(x, y, 16)
        scaled = max_xcorr_norm(x, scale * y, 16)
        assert scaled == pytest.approx(base, rel=1e-9)

    def test_bounded_by_one(self, rng):
        for _ in range(20):
            x = rng.normal(size=256)
            y = rng.normal(size=256)
            assert 0.0 <= max_xcorr_norm(x, y, 255) <= 1.0


class TestLagPeak:
    def test_zero_maxlag_is_lag_zero(self, rng):
        # c[..., -0:] is the whole array, so maxlag 0 must search lag 0 alone.
        c = rng.normal(size=(4, 64))
        assert dsp.lag_peak(c[0], 0) == np.abs(c[0, 0])
        assert np.array_equal(dsp.lag_peak(c, 0), np.abs(c[..., 0]))


class TestNormalizedPeak:
    def test_equals_scalar_expression(self, rng):
        for y_is_x in (False, True):
            x = rng.normal(size=500)
            y = x if y_is_x else rng.normal(size=500)
            c = dsp._xcorr_fft_circular(x, y, 50)
            norm = np.sqrt(np.dot(x, x) * np.dot(y, y))
            expected = float(min(dsp.lag_peak(c, 50) / norm, 1.0))
            assert float(dsp.normalize_peak(dsp.lag_peak(c, 50), np.dot(x, x),
                                            np.dot(y, y))) == expected

    def test_equals_banded_expression(self, rng):
        x, y = rng.normal(size=(2, 6, 400))
        y[1] = x[1]
        fx, pad = dsp.padded_spectrum(x, 30)
        fy, _ = dsp.padded_spectrum(y, 30)
        c = dsp.xcorr_spectra(fx, fy, pad)
        ex, ey = np.einsum("ij,ij->i", x, x), np.einsum("ij,ij->i", y, y)
        expected = np.minimum(dsp.lag_peak(c, 30) / np.sqrt(ex * ey), 1.0)
        got = dsp.normalize_peak(dsp.lag_peak(c, 30), ex, ey)
        assert got.shape == (6,)
        assert np.array_equal(got, expected)

    def test_zero_energy_raises(self):
        c = np.ones((3, 20))
        with pytest.raises(UndefinedCorrelation):
            dsp.normalize_peak(dsp.lag_peak(c[0], 5), 0.0, 4.0)
        with pytest.raises(UndefinedCorrelation):
            dsp.normalize_peak(dsp.lag_peak(c, 5), np.array([1.0, 0.0, 2.0]), np.ones(3))


class TestXcorrSpectra:
    # numpy computes `fx * conj(fy)` as `conj(fy) * fx` only for arrays of
    # 16 384 or more complex elements, and the two orders can differ in the
    # last bit; a stack of rows must still equal its rows one by one.
    @pytest.mark.parametrize("bins", [4097, 16385])
    def test_stacked_equals_per_row(self, rng, bins):
        pad = 2 * (bins - 1)
        x, y = rng.normal(size=(2, 6, pad - 100))
        fx, _ = dsp.padded_spectrum(x, 100)
        fy, _ = dsp.padded_spectrum(y, 100)
        assert fx.shape == (6, bins)
        stacked = dsp.xcorr_spectra(fx, fy, pad)
        for i in range(6):
            assert np.array_equal(stacked[i], dsp.xcorr_spectra(fx[i], fy[i], pad))


class TestPairCorrelator:
    """The pair core of Karapanos and Truong, `pair_peaks`, equals the per-pair
    path, lag_peak(xcorr_spectra(fx, fy, pad), maxlag), bit for bit."""

    @given(rows=st.integers(2, 16), n=st.sampled_from([1, 2, 3, 257, 1000, 4097, 20_000]),
           lag=st.sampled_from(["zero", "half", "full"]), seed=st.integers(0, 2 ** 32 - 1),
           data=st.data())
    @example(rows=3, n=160_000, lag="half", seed=0, data=None)
    @settings(max_examples=25, deadline=None)
    def test_equals_per_pair_lag_peak(self, rows, n, lag, seed, data):
        maxlag = {"zero": 0, "half": (n - 1) // 2, "full": n - 1}[lag]
        gen = np.random.default_rng(seed)
        x = gen.integers(-2 ** 15, 2 ** 15, (rows, n)).astype(np.float64)
        spectra, pad = dsp.padded_spectrum(x, maxlag)
        index = st.integers(0, rows - 1)
        pairs = (data.draw(st.lists(st.tuples(index, index), min_size=1, max_size=40))
                 if data is not None else [(2, 0), (0, 1), (1, 2), (2, 1), (0, 0)])
        expected = np.array([dsp.lag_peak(dsp.xcorr_spectra(spectra[a], spectra[b], pad), maxlag)
                             for a, b in pairs])
        scratch = np.empty(pad), np.empty(pad // 2 + 1, complex)
        got = dsp.pair_peaks(spectra, pairs, maxlag, *scratch)
        assert got.tobytes() == expected.tobytes()
        # A mapping of 1-D spectra, and a strided output column, give the same bits.
        by_name = {f"d{i}": row for i, row in enumerate(spectra)}
        column = np.empty((len(pairs), 2))
        dsp.pair_peaks(by_name, [(f"d{a}", f"d{b}") for a, b in pairs], maxlag, *scratch,
                       out=column[:, 1])
        assert column[:, 1].tobytes() == expected.tobytes()


    def test_caller_buffers_give_the_same_bits(self, rng):
        # Truong's workers lend their pad buffer and complex buffer, left
        # dirty by the state phase, and Karapanos its zero-tailed pad buffer.
        n, maxlag = 3000, 2999
        x = rng.integers(-2 ** 15, 2 ** 15, (3, n)).astype(np.float64)
        spectra, pad = dsp.padded_spectrum(x, maxlag)
        c, product = np.full(pad, np.nan), np.full(pad // 2 + 1, np.nan, complex)
        pairs = [(0, 1), (2, 0), (1, 1)]
        got = dsp.pair_peaks(spectra, pairs, maxlag, c, product)
        fresh = dsp.pair_peaks(spectra, pairs, maxlag, np.zeros(pad),
                               np.zeros(pad // 2 + 1, complex))
        assert got.tobytes() == fresh.tobytes()


class TestFftMagHamming:
    """The windowed magnitude spectrum runs pocketfft's complex transform in
    place; the transform equals numpy.fft.fft of the real windowed samples."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 97, 1000, 1009, 4096, 65_537, 160_000, 441_000])
    def test_in_place_transform_equals_numpy_fft(self, rng, n):
        x = rng.integers(-2 ** 15, 2 ** 15, n).astype(np.float64)
        work, out = np.full(n + 3, np.nan, complex), np.full(n // 2, np.nan)
        ref = np.fft.fft(np.hamming(n) * x)
        assert dsp.fft_mag_hamming(x, out=out, work=work) is out
        assert work[:n].tobytes() == ref.tobytes()
        assert out.tobytes() == np.abs(ref[:n // 2]).tobytes() \
            == dsp.fft_mag_hamming(x).tobytes()


class TestAvgPowerDb:
    def test_constant_100_is_40db(self):
        assert dsp.avg_power_db(np.full(1000, 100.0)) == pytest.approx(40.0)

    def test_all_zero_is_minus_inf(self):
        assert dsp.avg_power_db(np.zeros(16)) == float("-inf")

    def test_square_wave_1000_is_60db(self, rng):
        wave = rng.choice([-1000.0, 1000.0], size=5000)
        assert dsp.avg_power_db(wave) == pytest.approx(60.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            dsp.avg_power_db(np.array([]))


class TestAlign:
    def test_identical_snippets_lag_zero(self, rng):
        x = noise_snippet(rng, seconds=2.0)
        result = dsp.align(x, x, probe_len_s=2.0, maxlag_s=0.5)
        assert result.lag_samples == 0
        assert result.trimmed_len == x.samples.size

    def test_delayed_copy_recovered(self, rng):
        # Oracle: construct the shift, brute-force confirms via apply.
        rate = 16000
        n = 10 * rate
        base = rng.integers(-3000, 3000, size=n).astype(np.int16)
        delay = int(1.5 * rate)
        x = AudioSnippet(base, rate, 0, "x")
        y = AudioSnippet(np.concatenate([np.zeros(delay, np.int16),
                                         base[:n - delay]]), rate, 0, "y")
        result = dsp.align(x, y, probe_len_s=8.0, maxlag_s=3.0)
        assert result.lag_samples == delay
        xa, ya = apply_alignment(x, y, result)
        assert xa.samples.size == ya.samples.size == result.trimmed_len
        np.testing.assert_array_equal(xa.samples, ya.samples)

    def test_large_maxlag_accepted(self, rng):
        x = noise_snippet(rng, seconds=31.0)
        result = dsp.align(x, x, probe_len_s=31.0, maxlag_s=15.0)
        assert result.lag_samples == 0

    def test_insufficient_probe(self, rng):
        x = noise_snippet(rng, seconds=1.0)
        with pytest.raises(InsufficientProbe):
            dsp.align(x, x, probe_len_s=1.0, maxlag_s=0.75)

    def test_non_overlapping_rejected(self, rng):
        x = noise_snippet(rng, seconds=1.0, start=0)
        y = noise_snippet(rng, seconds=1.0, start=5000)
        with pytest.raises(InvariantViolation):
            dsp.align(x, y, probe_len_s=1.0, maxlag_s=0.1)

    def test_coarse_alignment_by_timestamp(self, rng):
        rate = 16000
        base = rng.integers(-3000, 3000, size=3 * rate).astype(np.int16)
        x = AudioSnippet(base, rate, 0, "x")
        # y starts 1 s later and contains the matching tail
        y = AudioSnippet(base[rate:], rate, 1000, "y")
        result = dsp.align(x, y, probe_len_s=2.0, maxlag_s=0.25)
        assert result.lag_samples == 0


class TestFftMagHamming:
    def test_zero_input(self):
        out = dsp.fft_mag_hamming(np.zeros(64))
        assert out.shape == (32,)
        assert not np.any(out)

    def test_dc_peaks_at_bin_zero(self):
        out = dsp.fft_mag_hamming(np.full(128, 5.0))
        assert np.argmax(out) == 0

    def test_window_cached_read_only(self, rng):
        x = rng.normal(size=1000)
        expected = np.abs(np.fft.fft(np.hamming(1000) * x)[:500])
        assert np.array_equal(dsp.fft_mag_hamming(x), expected)
        window = dsp._hamming(1000)
        assert window is dsp._hamming(1000)
        assert not window.flags.writeable

    def test_1khz_sine_peaks_at_bin_1000(self):
        # Oracle: direct DFT of the windowed signal at the expected bin.
        x = sine(1000, seconds=1.0)
        out = dsp.fft_mag_hamming(x)
        assert out.shape == (8000,)
        assert np.argmax(out) == 1000
        windowed = np.hamming(x.size) * x
        k = 1000
        direct = abs(np.sum(windowed * np.exp(-2j * np.pi * k * np.arange(x.size) / x.size)))
        assert out[1000] == pytest.approx(direct, rel=1e-9)


def test_fast_len_five_smooth():
    for n in (1, 2, 100, 16001, 176001):
        m = dsp.fast_len(n)
        assert m >= n and m % 2 == 0
        k = m
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        assert k == 1

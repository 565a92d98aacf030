import numpy as np
import pytest
from scipy.signal import lfilter

from conftest import noise_snippet
from ziskit import dsp
from ziskit.core.types import AudioSnippet, Fingerprint
from ziskit.dsp import _bandpass_sos
from ziskit.errors import IncompatibleFingerprints, InsufficientSamples, InvalidBand
from ziskit.schemes import schurmann


def oracle_fingerprint(x: AudioSnippet, cfg: schurmann.SchurmannConfig) -> np.ndarray:
    """Naive reimplementation: explicit frame loop, per-band cascade filtering,
    E = F^T F, then the sign rule, one bit at a time."""
    rate = x.rate_hz
    d = (rate * cfg.interval_s) // cfg.n_frames
    data = x.as_float()
    assert data.size >= cfg.n_frames * d
    energies = np.zeros((cfg.n_frames, cfg.n_bands))
    for i in range(cfg.n_frames):
        frame = data[i * d:(i + 1) * d]
        for j, (lo, hi) in enumerate(cfg.band_edges(rate)):
            sos = _bandpass_sos(lo, hi, cfg.filter_order, rate)
            filtered = frame
            for section in sos:  # cascade of second-order sections
                filtered = lfilter(section[:3], section[3:], filtered)
            energies[i, j] = float(filtered @ filtered)
    bits = []
    for i in range(cfg.n_frames - 1):
        for j in range(cfg.n_bands - 1):
            delta = (energies[i + 1, j] - energies[i + 1, j + 1]) \
                - (energies[i, j] - energies[i, j + 1])
            bits.append(1 if delta > 0 else 0)
    return np.array(bits, dtype=np.uint8)


class TestAudioFingerprint:
    def test_matches_naive_oracle_bit_for_bit(self, rng):
        cfg = schurmann.SchurmannConfig(interval_s=1)
        for _ in range(3):
            x = noise_snippet(rng, seconds=1.0)
            got = schurmann.audio_fingerprint(x, cfg)
            np.testing.assert_array_equal(got.bits, oracle_fingerprint(x, cfg))

    def test_496_bits_by_default(self, rng):
        x = noise_snippet(rng, seconds=10.0)
        fp = schurmann.audio_fingerprint(x)
        assert len(fp) == 496 == schurmann.SchurmannConfig().fingerprint_bits

    def test_stationary_tone_gives_all_zero_bits(self):
        # Frame length 4000 holds exactly 25 periods of 100 Hz, so every
        # frame is identical and all energy differences vanish.
        cfg = schurmann.SchurmannConfig(interval_s=1, n_frames=4)
        rate = 16000
        t = np.arange(rate) / rate
        x = AudioSnippet((3000 * np.sin(2 * np.pi * 100 * t)).astype(np.int16),
                         rate, 0, "d")
        fp = schurmann.audio_fingerprint(x, cfg)
        assert not np.any(fp.bits)

    def test_low_rate_raises_before_any_filter(self, rng, monkeypatch):
        calls = []
        real_bandpass = dsp.bandpass

        def counting_bandpass(*args, **kwargs):
            calls.append(args[1:3])
            return real_bandpass(*args, **kwargs)

        monkeypatch.setattr(dsp, "bandpass", counting_bandpass)
        x = AudioSnippet(rng.integers(-3000, 3000, size=80_000).astype(np.int16), 8000, 0, "d")
        with pytest.raises(InvalidBand):
            schurmann.audio_fingerprint(x)
        assert calls == []

    def test_amplitude_scale_invariance(self, rng):
        cfg = schurmann.SchurmannConfig(interval_s=1)
        base = 2 * rng.integers(-800, 801, size=16000, dtype=np.int64)
        ref = schurmann.audio_fingerprint(
            AudioSnippet(base.astype(np.int16), 16000, 0, "d"), cfg)
        for alpha in (0.5, 2, 10):
            scaled = AudioSnippet((base * alpha).astype(np.int16), 16000, 0, "d")
            got = schurmann.audio_fingerprint(scaled, cfg)
            np.testing.assert_array_equal(got.bits, ref.bits)

    def test_too_short_snippet(self, rng):
        cfg = schurmann.SchurmannConfig(interval_s=10)
        with pytest.raises(InsufficientSamples):
            schurmann.audio_fingerprint(noise_snippet(rng, seconds=1.0), cfg)

    def test_frame_len_rounds_down(self):
        cfg = schurmann.SchurmannConfig(interval_s=10)
        assert cfg.frame_len(16000) == 9411  # 160000 / 17 rounded down

    def test_band_edges(self):
        cfg = schurmann.SchurmannConfig()
        edges = cfg.band_edges(16000)
        assert edges[0] == (1.0, 250.0)
        assert edges[1] == (251.0, 500.0)
        assert edges[-1] == (7751.0, 7999.0)
        assert len(edges) == 32

    def test_fits_rate_is_where_every_band_filter_is_valid(self, monkeypatch):
        # The reference is the filter itself: a rate fits when dsp.bandpass takes
        # every band. A pass-through design keeps each call cheap.
        monkeypatch.setattr(dsp, "_bandpass_sos",
                            lambda *args: np.array([[1.0, 0, 0, 1.0, 0, 0]]))
        cfg = schurmann.SchurmannConfig()

        def every_band_filters(rate: int) -> bool:
            try:
                for lo, hi in cfg.band_edges(rate):
                    dsp.bandpass(np.zeros(1), lo, hi, cfg.filter_order, rate_hz=rate)
            except InvalidBand:
                return False
            return True

        # 250 Hz steps from 4 to 48 kHz, and every rate where the top band closes.
        for rate in [*range(4000, 48001, 250), *range(15490, 15521)]:
            assert cfg.fits_rate(rate) == every_band_filters(rate), rate


class TestFingerprintSimilarity:
    def _fp(self, bits):
        return Fingerprint(np.array(bits, dtype=np.uint8), "d", 0)

    def test_equal_is_one(self, rng):
        bits = rng.integers(0, 2, size=64)
        assert schurmann.fingerprint_similarity(self._fp(bits), self._fp(bits)) == 1.0

    def test_complement_is_zero(self, rng):
        bits = rng.integers(0, 2, size=64)
        f, g = self._fp(bits), self._fp(1 - bits)
        assert schurmann.fingerprint_similarity(f, g) == 0.0

    def test_toy_hand_count(self):
        f = self._fp([1, 0, 1, 0])
        g = self._fp([1, 1, 1, 1])
        assert schurmann.fingerprint_similarity(f, g) == 0.5

    def test_length_mismatch(self):
        with pytest.raises(IncompatibleFingerprints):
            schurmann.fingerprint_similarity(self._fp([1, 0]), self._fp([1, 0, 1]))

    def test_symmetry_and_popcount_identity(self, rng):
        for _ in range(20):
            a = rng.integers(0, 2, size=96)
            b = rng.integers(0, 2, size=96)
            f, g = self._fp(a), self._fp(b)
            assert schurmann.fingerprint_similarity(f, g) == \
                schurmann.fingerprint_similarity(g, f)
            differ = int(np.count_nonzero(a != b))
            agree = int(np.count_nonzero(a == b))
            assert differ + agree == 96
            assert schurmann.fingerprint_similarity(f, g) == pytest.approx(agree / 96)

    def test_random_pairs_mean_half_at_496_bits(self, rng):
        sims = []
        for _ in range(1000):
            a = self._fp(rng.integers(0, 2, size=496))
            b = self._fp(rng.integers(0, 2, size=496))
            sims.append(schurmann.fingerprint_similarity(a, b))
        assert abs(float(np.mean(sims)) - 0.5) < 0.05

import numpy as np
import pytest
from scipy.signal import sosfilt

from conftest import noise_snippet
from ziskit import dsp
from ziskit.core.types import AudioSnippet
from ziskit.schemes import karapanos


def quiet_config(**kwargs):
    defaults = dict(power_threshold_db=-1000.0)
    defaults.update(kwargs)
    return karapanos.KarapanosConfig(**defaults)


def oracle_similarity(x: AudioSnippet, y: AudioSnippet,
                      cfg: karapanos.KarapanosConfig, two_sided=False) -> float:
    """Independent path: scipy filtering plus direct-sum lag search."""
    maxlag = int(round(cfg.maxlag_s * x.rate_hz))
    values = []
    for band in cfg.bands:
        sos = dsp._bandpass_sos(band.f_low, band.f_high, cfg.order, x.rate_hz)
        fx = sosfilt(sos, x.as_float())
        fy = sosfilt(sos, y.as_float())
        norm = np.sqrt(np.dot(fx, fx) * np.dot(fy, fy))
        n = fx.size
        lags = [np.dot(fx[l:], fy[:n - l]) for l in range(maxlag + 1)]
        if two_sided:
            lags += [np.dot(fy[l:], fx[:n - l]) for l in range(1, maxlag + 1)]
        values.append(min(np.max(np.abs(lags)) / norm, 1.0))
    return float(np.mean(values))


class TestSimilarity:
    def test_self_similarity_is_one(self, rng):
        for _ in range(3):
            x = noise_snippet(rng, seconds=1.0)
            score = karapanos.similarity(x, x, quiet_config())
            assert not score.gated
            assert score.value == pytest.approx(1.0, abs=1e-9)

    def test_silence_is_gated(self):
        x = AudioSnippet(np.zeros(16000, dtype=np.int16), 16000, 0, "d")
        score = karapanos.similarity(x, x, karapanos.KarapanosConfig())
        assert score.gated and score.value is None
        assert score.reason == "power"

    def test_matches_direct_sum_oracle(self, rng):
        cfg = quiet_config(maxlag_s=0.05)
        x = noise_snippet(rng, seconds=1.0, device="a")
        y = noise_snippet(rng, seconds=1.0, device="b")
        got = karapanos.similarity(x, y, cfg)
        assert got.value == pytest.approx(oracle_similarity(x, y, cfg), rel=1e-6)

    def test_pair_similarity_matches_two_sided_oracle(self, rng):
        cfg = quiet_config(maxlag_s=0.05)
        x = noise_snippet(rng, seconds=1.0, device="a")
        y = noise_snippet(rng, seconds=1.0, device="b")
        got = karapanos.pair_similarity(x, y, cfg)
        assert got.value == pytest.approx(
            oracle_similarity(x, y, cfg, two_sided=True), rel=1e-6)

    def test_value_bounds(self, rng):
        cfg = quiet_config(maxlag_s=0.02)
        for _ in range(5):
            x = noise_snippet(rng, seconds=0.5, device="a")
            y = noise_snippet(rng, seconds=0.5, device="b")
            score = karapanos.similarity(x, y, cfg)
            assert 0.0 <= score.value <= 1.0

    def test_scale_invariance(self, rng):
        cfg = quiet_config(maxlag_s=0.02)
        # even samples so that halving stays exact in int16
        sx = 2 * rng.integers(-1000, 1001, size=8000, dtype=np.int64)
        sy = 2 * rng.integers(-1000, 1001, size=8000, dtype=np.int64)
        base_x = AudioSnippet(sx.astype(np.int16), 16000, 0, "a")
        base_y = AudioSnippet(sy.astype(np.int16), 16000, 0, "b")
        ref = karapanos.similarity(base_x, base_y, cfg).value
        for alpha, beta in [(0.5, 2.0), (2.0, 0.5)]:
            ax = AudioSnippet((sx * alpha).astype(np.int16), 16000, 0, "a")
            by = AudioSnippet((sy * beta).astype(np.int16), 16000, 0, "b")
            got = karapanos.similarity(ax, by, cfg).value
            assert got == pytest.approx(ref, rel=1e-9)

    def test_gating_monotone_in_threshold(self, rng):
        x = noise_snippet(rng, seconds=0.5, amplitude=300, device="a")
        y = noise_snippet(rng, seconds=0.5, amplitude=300, device="b")
        power = dsp.avg_power_db(x.as_float())
        gated_states = []
        for thr in np.linspace(power - 10, power + 10, 9):
            cfg = karapanos.KarapanosConfig(power_threshold_db=float(thr))
            gated_states.append(karapanos.similarity(x, y, cfg).gated)
        # once gated, raising the threshold keeps it gated
        assert gated_states == sorted(gated_states)

    def test_one_weak_snippet_gates_pair(self, rng):
        loud = noise_snippet(rng, seconds=0.5, amplitude=3000, device="a")
        quiet = AudioSnippet((noise_snippet(rng, seconds=0.5).samples * 0.01)
                             .astype(np.int16), 16000, 0, "b")
        cfg = karapanos.KarapanosConfig(power_threshold_db=40.0)
        score = karapanos.similarity(loud, quiet, cfg)
        assert score.gated and score.reason == "power"

    def test_device_class_thresholds(self, rng):
        x = noise_snippet(rng, seconds=0.5, amplitude=220, device="usb-1")
        y = noise_snippet(rng, seconds=0.5, amplitude=220, device="watch-1")
        power = dsp.avg_power_db(x.as_float())  # uniform +-220 -> ~42 dB
        assert 40.0 < power < 43.0
        strict = karapanos.KarapanosConfig(power_threshold_db=45.0)
        assert karapanos.similarity(x, y, strict).gated
        lenient = karapanos.KarapanosConfig(
            power_threshold_db=45.0,
            device_thresholds={"usb-1": 40.0, "watch-1": 35.0})
        assert not karapanos.similarity(x, y, lenient).gated

    def test_length_mismatch_rejected(self, rng):
        x = noise_snippet(rng, seconds=0.5)
        y = noise_snippet(rng, seconds=0.6)
        with pytest.raises(ValueError):
            karapanos.similarity(x, y, quiet_config())


class TestConfig:
    def test_default_band_count(self):
        cfg = karapanos.KarapanosConfig()
        assert len(cfg.bands) == 20
        assert cfg.maxlag_s == 1.0
        assert cfg.power_threshold_db == 40.0

    def test_published_device_class_values(self):
        assert karapanos.DEVICE_CLASS_POWER_DB == {"smartphone": 38.0, "watch": 35.0}

    def test_threshold_resolution(self):
        cfg = karapanos.KarapanosConfig(device_thresholds={"w": 35.0})
        assert cfg.threshold_for("w") == 35.0
        assert cfg.threshold_for("other") == 40.0

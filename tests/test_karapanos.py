from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.signal import sosfilt

from conftest import noise_snippet
from reference import similarity
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
    for band in dsp.THIRD_OCTAVE_BANDS:
        sos = dsp._bandpass_sos(band.f_low, band.f_high, x.rate_hz)
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
            score = similarity(x, x, quiet_config())
            assert not score.gated
            assert score.value == pytest.approx(1.0, abs=1e-9)

    def test_silence_is_gated(self):
        x = AudioSnippet(np.zeros(16000, dtype=np.int16), 16000, 0, "d")
        score = similarity(x, x, karapanos.KarapanosConfig())
        assert score.gated and score.value is None
        assert score.reason == "power"

    def test_matches_direct_sum_oracle(self, rng):
        cfg = quiet_config(maxlag_s=0.05)
        x = noise_snippet(rng, seconds=1.0, device="a")
        y = noise_snippet(rng, seconds=1.0, device="b")
        got = similarity(x, y, cfg)
        assert got.value == pytest.approx(oracle_similarity(x, y, cfg), rel=1e-6)

    def test_pair_similarity_matches_two_sided_oracle(self, rng):
        cfg = quiet_config(maxlag_s=0.05)
        x = noise_snippet(rng, seconds=1.0, device="a")
        y = noise_snippet(rng, seconds=1.0, device="b")
        got = karapanos.similarity_banded(karapanos.band_decompose(x, cfg),
                                          karapanos.band_decompose(y, cfg), cfg)
        assert got.value == pytest.approx(
            oracle_similarity(x, y, cfg, two_sided=True), rel=1e-6)

    def test_zero_band_norm_is_undefined_correlation(self, rng):
        cfg = quiet_config(maxlag_s=0.02)
        a = karapanos.band_decompose(noise_snippet(rng, seconds=0.5, device="a"), cfg)
        b = karapanos.band_decompose(noise_snippet(rng, seconds=0.5, device="b"), cfg)
        norms = a.norms.copy()
        norms[3] = 0.0
        silent_band = replace(a, norms=norms)
        assert silent_band.power_db > cfg.power_threshold_db
        for pair in ((silent_band, b), (b, silent_band)):
            score = karapanos.similarity_banded(*pair, cfg)
            assert score.gated and score.value is None
            assert score.reason == "undefined-correlation"

    def test_value_bounds(self, rng):
        cfg = quiet_config(maxlag_s=0.02)
        for _ in range(5):
            x = noise_snippet(rng, seconds=0.5, device="a")
            y = noise_snippet(rng, seconds=0.5, device="b")
            score = similarity(x, y, cfg)
            assert 0.0 <= score.value <= 1.0

    def test_scale_invariance(self, rng):
        cfg = quiet_config(maxlag_s=0.02)
        # even samples so that halving stays exact in int16
        sx = 2 * rng.integers(-1000, 1001, size=8000, dtype=np.int64)
        sy = 2 * rng.integers(-1000, 1001, size=8000, dtype=np.int64)
        base_x = AudioSnippet(sx.astype(np.int16), 16000, 0, "a")
        base_y = AudioSnippet(sy.astype(np.int16), 16000, 0, "b")
        ref = similarity(base_x, base_y, cfg).value
        for alpha, beta in [(0.5, 2.0), (2.0, 0.5)]:
            ax = AudioSnippet((sx * alpha).astype(np.int16), 16000, 0, "a")
            by = AudioSnippet((sy * beta).astype(np.int16), 16000, 0, "b")
            got = similarity(ax, by, cfg).value
            assert got == pytest.approx(ref, rel=1e-9)

    def test_gating_monotone_in_threshold(self, rng):
        x = noise_snippet(rng, seconds=0.5, amplitude=300, device="a")
        y = noise_snippet(rng, seconds=0.5, amplitude=300, device="b")
        power = dsp.avg_power_db(x.as_float())
        gated_states = []
        for thr in np.linspace(power - 10, power + 10, 9):
            cfg = karapanos.KarapanosConfig(power_threshold_db=float(thr))
            gated_states.append(similarity(x, y, cfg).gated)
        # once gated, raising the threshold keeps it gated
        assert gated_states == sorted(gated_states)

    def test_one_weak_snippet_gates_pair(self, rng):
        loud = noise_snippet(rng, seconds=0.5, amplitude=3000, device="a")
        quiet = AudioSnippet((noise_snippet(rng, seconds=0.5).samples * 0.01)
                             .astype(np.int16), 16000, 0, "b")
        cfg = karapanos.KarapanosConfig(power_threshold_db=40.0)
        score = similarity(loud, quiet, cfg)
        assert score.gated and score.reason == "power"

    def test_length_mismatch_rejected(self, rng):
        x = noise_snippet(rng, seconds=0.5)
        y = noise_snippet(rng, seconds=0.6)
        with pytest.raises(ValueError):
            similarity(x, y, quiet_config())


class TestConfig:
    def test_default_band_count(self):
        cfg = karapanos.KarapanosConfig()
        assert len(dsp.THIRD_OCTAVE_BANDS) == 20
        assert cfg.maxlag_s == 1.0
        assert cfg.power_threshold_db == 40.0


class TestIntervalSimilarities:
    """Band-major scoring of one interval against the per-pair reference."""

    def test_equals_similarity_banded_per_pair(self, rng, monkeypatch):
        cfg = karapanos.KarapanosConfig(maxlag_s=0.05)
        base = noise_snippet(rng, seconds=0.5).samples.astype(np.int64)
        base_22k = noise_snippet(rng, seconds=0.5, rate=22050).samples.astype(np.int64)

        def near(samples, device, rate=16000):
            jitter = rng.integers(-200, 201, size=samples.size)
            return AudioSnippet(np.clip(samples + jitter, -32768, 32767), rate, 0, device)

        snippets = {
            "a": near(base, "a"),
            "b": near(base, "b"),
            "c": noise_snippet(rng, seconds=0.5, device="c"),
            "q": noise_snippet(rng, seconds=0.5, amplitude=20, device="q"),  # power-gated
            "z": noise_snippet(rng, seconds=0.5, device="z"),   # one band filters to silence
            "r1": near(base_22k, "r1", rate=22050),             # another rate: pairs
            "r2": near(base_22k, "r2", rate=22050),             # with 16 kHz are gated
            "low": noise_snippet(rng, seconds=0.5, rate=8000, device="low"),  # bands too high
            "s": None,                                          # short audio
        }
        # No band filter turns audible noise into exact silence, so one band of
        # z is zeroed after filtering, in the stacked and the per-pair path alike.
        silent = dsp.THIRD_OCTAVE_BANDS[3]
        z = snippets["z"].samples
        real_bandpass = dsp.bandpass

        def bandpass(x, f_low, f_high, *args, **kwargs):
            out = real_bandpass(x, f_low, f_high, *args, **kwargs)
            if f_low == silent.f_low and np.shape(x)[-1] == z.size:
                out[np.all(np.asarray(x) == z, axis=-1)] = 0.0
            return out

        monkeypatch.setattr(dsp, "bandpass", bandpass)
        pairs = [(a, b) for i, a in enumerate(snippets) for b in list(snippets)[i + 1:]]
        got = karapanos.interval_similarities(snippets, pairs, cfg)
        decomposed = {d: karapanos.band_decompose(x, cfg) for d, x in snippets.items()
                      if x is not None and karapanos.fits_rate(x.rate_hz)}
        assert np.flatnonzero(decomposed["z"].norms == 0.0).tolist() == [3]
        for (a, b), score in zip(pairs, got, strict=True):
            if "s" in (a, b):
                assert score == karapanos.SimilarityScore(None, "short-audio")
            elif a not in decomposed or decomposed[a].rate_hz != snippets[b].rate_hz:
                assert score == karapanos.SimilarityScore(None, "rate")
            else:
                assert score == karapanos.similarity_banded(decomposed[a], decomposed[b], cfg)
        reasons = {score.reason for score in got}
        assert reasons == {None, "power", "undefined-correlation", "rate", "short-audio"}
        scored = {pair: score.value for pair, score in zip(pairs, got) if not score.gated}
        assert set(scored) == {("a", "b"), ("a", "c"), ("b", "c"), ("r1", "r2")}
        assert scored["a", "b"] > scored["a", "c"]


@settings(max_examples=20, deadline=None)
@given(n_devices=st.integers(2, 16), length=st.integers(1, 20_000),
       seed=st.integers(0, 2**32 - 1))
@example(n_devices=16, length=20_000, seed=0)
@example(n_devices=2, length=8193, seed=1)
def test_band_peaks_norms_equal_stacked_einsum(n_devices, length, seed):
    # Each device is filtered alone, yet its band energies keep the bits of
    # one einsum over the stack of the group's filtered rows; numpy reduces a
    # lone row of more than 8192 samples in another order.
    rng = np.random.default_rng(seed)
    samples = [rng.integers(-3000, 3001, size=length).astype(np.int16)
               for _ in range(n_devices)]
    rate = 16000
    _, norms = karapanos._band_peaks(samples, [(0, 1)], rate,
                                     karapanos.KarapanosConfig(maxlag_s=0.01))
    stack = np.stack(samples)
    for j, band in enumerate(dsp.THIRD_OCTAVE_BANDS):
        banded = dsp.bandpass(stack, band.f_low, band.f_high, rate_hz=rate)
        np.testing.assert_array_equal(norms[:, j], np.einsum("ij,ij->i", banded, banded))

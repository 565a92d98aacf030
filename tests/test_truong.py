import math

import numpy as np
import pytest

from conftest import noise_snippet, two_group_truth
from ziskit import dsp, pipeline
from ziskit.core.types import AudioSnippet, BeaconScan, Dataset, Label
from ziskit.core.windowing import window_pairs
from ziskit.errors import IncompatibleScans, UndefinedCorrelation
from ziskit.schemes import truong


def agg(kind="wifi", **means):
    return truong.BeaconAggregate(kind, {k: float(v) for k, v in means.items()})


class TestBeaconFeatures:
    def test_identical_aggregates(self):
        a = agg(A=-50, B=-60)
        f = truong.beacon_features(a, a)
        assert f.jaccard == 0.0
        assert f.mean_hamming == 0.0
        assert f.euclidean == 0.0
        assert f.mean_exp == 1.0
        assert f.sum_sq_ranks == 0.0

    def test_hand_enumerated_example(self):
        f = truong.beacon_features(agg(A=-50, B=-70), agg(B=-60, C=-90))
        assert f.jaccard == pytest.approx(2 / 3, abs=1e-9)
        assert f.mean_hamming == pytest.approx(70 / 3, abs=1e-9)
        assert f.euclidean == pytest.approx(math.sqrt(2700), abs=1e-9)
        # union deltas 50, 10, 10
        assert f.mean_exp == pytest.approx((math.exp(50) + 2 * math.exp(10)) / 3)

    def test_both_empty_take_rejection_distance(self):
        f = truong.beacon_features(agg(), agg())
        assert (f.jaccard, f.mean_hamming, f.euclidean, f.mean_exp,
                f.sum_sq_ranks) == (10000.0,) * 5

    def test_one_sided_empty_uses_theta(self):
        f = truong.beacon_features(agg(A=-50), agg())
        assert f.jaccard == 1.0
        assert f.mean_hamming == 50.0  # theta -100 fills the other side

    def test_reversed_ranks_of_two_common_beacons(self):
        a = agg(A=-50, B=-70)   # ranks: B=1, A=2
        b = agg(A=-80, B=-40)   # ranks: A=1, B=2
        f = truong.beacon_features(a, b)
        assert f.sum_sq_ranks == 2.0

    def test_rank_ties_break_by_identifier(self):
        a = agg(A=-50, B=-50)   # tie: lexicographic A=1, B=2
        b = agg(A=-60, B=-40)   # A=1, B=2
        f = truong.beacon_features(a, b)
        assert f.sum_sq_ranks == 0.0

    def test_kind_mismatch(self):
        with pytest.raises(IncompatibleScans):
            truong.beacon_features(agg(kind="wifi", A=-50), agg(kind="ble", A=-50))

    def test_symmetry(self, rng):
        for _ in range(20):
            ids = [f"b{i}" for i in range(6)]
            a = truong.BeaconAggregate("wifi", {
                i: float(rng.uniform(-90, -40)) for i in rng.choice(ids, 4, replace=False)})
            b = truong.BeaconAggregate("wifi", {
                i: float(rng.uniform(-90, -40)) for i in rng.choice(ids, 4, replace=False)})
            f_ab = truong.beacon_features(a, b)
            f_ba = truong.beacon_features(b, a)
            assert f_ab == f_ba

    def test_bounds(self, rng):
        for _ in range(20):
            a = agg(A=float(rng.uniform(-90, -40)), B=float(rng.uniform(-90, -40)))
            b = agg(B=float(rng.uniform(-90, -40)), C=float(rng.uniform(-90, -40)))
            f = truong.beacon_features(a, b)
            assert 0 <= f.jaccard <= 1
            assert f.mean_hamming >= 0 and f.euclidean >= 0
            assert f.mean_exp >= 1.0
            assert f.sum_sq_ranks >= 0

    def test_exp_overflow_clamped(self):
        f = truong.beacon_features(agg(A=50000.0), agg())
        assert np.isfinite(f.mean_exp)

    def test_aggregate_averages_scans(self):
        scans = [
            BeaconScan("wifi", 0, {"A": -50.0, "B": -70.0}, "d"),
            BeaconScan("wifi", 1000, {"A": -60.0}, "d"),
        ]
        aggregate = truong.BeaconAggregate.from_scans(scans, "wifi")
        assert aggregate.means == {"A": -55.0, "B": -70.0}


def naive_audio_oracle(x: np.ndarray, y: np.ndarray):
    """Direct-sum full-lag correlation and O(N^2) DFT distances."""
    n = len(x)
    xn = x / math.sqrt(float(x @ x))
    yn = y / math.sqrt(float(y @ y))
    best = 0.0
    for lag in range(-(n - 1), n):
        if lag >= 0:
            v = float(np.dot(xn[lag:], yn[:n - lag]))
        else:
            v = float(np.dot(yn[-lag:], xn[:n + lag]))
        best = max(best, abs(v))
    k = np.arange(n)
    dft = np.exp(-2j * np.pi * np.outer(k, k) / n)
    spec_x = np.abs(dft @ (np.hamming(n) * x))[:n // 2]
    spec_y = np.abs(dft @ (np.hamming(n) * y))[:n // 2]
    spec_x /= np.linalg.norm(spec_x)
    spec_y /= np.linalg.norm(spec_y)
    d_f = float(np.linalg.norm(spec_x - spec_y))
    d_t = 1.0 - best
    return best, d_t, d_f, math.hypot(d_t, d_f)


class TestAudioFeatures:
    def test_identity(self, rng):
        x = rng.normal(size=2000)
        f = truong.audio_features(x, x)
        assert f.max_xcorr == pytest.approx(1.0, abs=1e-12)
        assert f.time_distance == pytest.approx(0.0, abs=1e-12)
        assert f.freq_distance == pytest.approx(0.0, abs=1e-9)
        assert f.tf_distance == pytest.approx(0.0, abs=1e-9)

    def test_negation_cancels(self, rng):
        x = rng.normal(size=2000)
        f = truong.audio_features(x, -x)
        assert f.max_xcorr == pytest.approx(1.0, abs=1e-12)
        assert f.tf_distance == pytest.approx(0.0, abs=1e-9)

    def test_matches_naive_oracle(self, rng):
        x = rng.normal(size=600)
        y = rng.normal(size=600)
        f = truong.audio_features(x, y)
        xc, d_t, d_f, d_tf = naive_audio_oracle(x, y)
        assert f.max_xcorr == pytest.approx(xc, rel=1e-6)
        assert f.time_distance == pytest.approx(d_t, rel=1e-6, abs=1e-9)
        assert f.freq_distance == pytest.approx(d_f, rel=1e-6)
        assert f.tf_distance == pytest.approx(d_tf, rel=1e-6)

    def test_pythagorean_identity(self, rng):
        for _ in range(50):
            x = rng.normal(size=300)
            y = rng.normal(size=300)
            f = truong.audio_features(x, y)
            assert f.tf_distance ** 2 == pytest.approx(
                f.time_distance ** 2 + f.freq_distance ** 2, abs=1e-9)
            assert 0.0 <= f.time_distance <= 1.0
            assert 0.0 <= f.freq_distance <= 2.0

    def test_matches_per_pair_dsp_path(self, rng):
        # Reference: the per-pair dsp calls, with no per-snippet state.
        for n in (2, 301, 4000):
            x = rng.normal(size=n)
            y = rng.normal(size=n)
            f = truong.audio_features(x, y)
            xc = dsp.max_xcorr_norm_two_sided(x, y, n - 1)
            spec_x = dsp.fft_mag_hamming(x)
            spec_y = dsp.fft_mag_hamming(y)
            d_f = float(np.linalg.norm(spec_x / float(np.linalg.norm(spec_x))
                                       - spec_y / float(np.linalg.norm(spec_y))))
            assert (f.max_xcorr, f.freq_distance) == (xc, d_f)
            assert f.tf_distance == math.hypot(1.0 - xc, d_f)

    def test_scale_invariance(self, rng):
        x = rng.normal(size=500)
        y = rng.normal(size=500)
        ref = truong.audio_features(x, y)
        scaled = truong.audio_features(3.5 * x, 0.25 * y)
        assert scaled.max_xcorr == pytest.approx(ref.max_xcorr, rel=1e-9)
        assert scaled.tf_distance == pytest.approx(ref.tf_distance, rel=1e-9)

    def test_zero_input_raises(self):
        with pytest.raises(UndefinedCorrelation):
            truong.audio_features(np.zeros(100), np.ones(100))


def _beacon_dataset(rng, shared: bool):
    gt = two_group_truth()
    audio, beacons = {}, {}
    base = noise_snippet(rng, seconds=20.0, device="base")
    populations = {
        "g0": [f"net{i}" for i in range(4)],
        "g1": [f"net{i}" for i in range(4)] if shared else [f"far{i}" for i in range(4)],
    }
    for dev, grp in [("a", "g0"), ("b", "g0"), ("c", "g1"), ("d", "g1")]:
        audio[dev] = AudioSnippet(base.samples.copy(), 16000, 0, dev)
        scans = []
        for k in range(2):
            obs = {ident: -50.0 for ident in populations[grp]}
            scans.append(BeaconScan("wifi", k * 10_000 + 100, obs, dev))
            scans.append(BeaconScan("ble", k * 10_000 + 100, obs, dev))
        beacons[dev] = scans
    return Dataset(audio=audio, beacons=beacons, ground_truth=gt)


class TestBuildDataset:
    def test_identical_context_gives_zero_distances(self, rng):
        dataset = _beacon_dataset(rng, shared=True)
        pairs = window_pairs(dataset, 10)
        rows = truong.build_dataset(pairs, dataset, 10)
        coloc = [r for r in rows if r.label is Label.COLOCATED]
        assert coloc
        for row in coloc:
            assert row.wifi_jaccard == 0.0
            assert row.wifi_euclidean == 0.0
            assert row.audio_max_xcorr == pytest.approx(1.0, abs=1e-9)
            assert row.audio_tf_distance == pytest.approx(0.0, abs=1e-6)

    def test_disjoint_populations_max_jaccard(self, rng):
        dataset = _beacon_dataset(rng, shared=False)
        pairs = window_pairs(dataset, 10)
        rows = truong.build_dataset(pairs, dataset, 10)
        for row in rows:
            if row.label is Label.NON_COLOCATED:
                assert row.wifi_jaccard == 1.0
                assert row.ble_jaccard == 1.0

    def test_row_count_is_pairs_times_intervals(self, rng):
        dataset = _beacon_dataset(rng, shared=True)
        pairs = window_pairs(dataset, 10)
        rows = truong.build_dataset(pairs, dataset, 10)
        assert len(rows) == len(pairs) == 2 * 6  # 2 intervals x C(4,2) pairs

    def test_missing_scans_marked_none(self, rng):
        dataset = _beacon_dataset(rng, shared=True)
        # device a loses all wifi scans: wifi slots become None, ble stays
        dataset.beacons["a"] = [s for s in dataset.beacons["a"] if s.kind == "ble"]
        pairs = window_pairs(dataset, 10)
        rows = truong.build_dataset(pairs, dataset, 10)
        for row in rows:
            if "a" in (row.device_a, row.device_b):
                assert row.wifi_jaccard is None
                assert row.ble_jaccard is not None

    def test_rows_match_per_pair_features(self, rng):
        dataset = _beacon_dataset(rng, shared=False)
        for dev in dataset.audio:
            dataset.audio[dev] = noise_snippet(rng, seconds=20.0, device=dev)
        dataset.beacons["a"] = [s for s in dataset.beacons["a"] if s.kind == "ble"]
        rows = truong.build_dataset(window_pairs(dataset, 10), dataset, 10)
        for row in rows:
            start, stop = row.interval_start, row.interval_start + 10_000
            pair = (row.device_a, row.device_b)
            audio = truong.audio_features(
                *(dataset.audio[d].slice_ms(start, stop) for d in pair))
            assert (row.audio_max_xcorr, row.audio_tf_distance) == \
                (audio.max_xcorr, audio.tf_distance)
            if "a" in pair:
                assert row.wifi_jaccard is None
                continue
            wifi = truong.beacon_features(*(truong.BeaconAggregate.from_scans(
                dataset.beacons_in(d, "wifi", start, stop), "wifi") for d in pair))
            assert row.values()[:5] == [wifi.jaccard, wifi.mean_hamming, wifi.euclidean,
                                        wifi.mean_exp, wifi.sum_sq_ranks]

    def test_audio_at_another_rate_is_missing(self, rng):
        dataset = _beacon_dataset(rng, shared=True)
        dataset.audio["a"] = AudioSnippet(dataset.audio["a"].samples[::2], 8000, 0, "a")
        rows = truong.build_dataset(window_pairs(dataset, 10), dataset, 10)
        for row in rows:
            assert (row.audio_max_xcorr is None) == ("a" in (row.device_a, row.device_b))

    def test_ml_arrays_shape_and_nan(self, rng):
        dataset = _beacon_dataset(rng, shared=True)
        dataset.beacons["a"] = [s for s in dataset.beacons["a"] if s.kind == "ble"]
        rows = truong.build_dataset(window_pairs(dataset, 10), dataset, 10)
        data, _ = pipeline.ml_table(rows)
        X, y, names = data.X, data.y, data.feature_names
        assert X.shape == (len(rows), 9)
        assert names == truong.ALL_FEATURES
        a_rows = [i for i, r in enumerate(rows) if "a" in (r.device_a, r.device_b)]
        assert np.isnan(X[a_rows, 0]).all()

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The end-to-end criterion
generates two 10-minute synthetic scenarios and drives the CLI pipelines, so
this module takes several minutes of wall clock on one core.
"""

import csv
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from reference import expand_instances, max_xcorr_norm, similarity, uniform_surprisal_model
from ziskit import dsp, evaluation, pipeline, randomness
from ziskit.cli import main
from ziskit.core.io import load_dataset, read_ground_truth
from ziskit.core.types import AudioSnippet, Fingerprint, Label
from ziskit.core.windowing import filter_subscenario
from ziskit.evaluation import auc
from ziskit.ml.ensemble import GRID_SMALL, MLDataset, ModelParams, fit_model, oof_predictions, train
from ziskit.schemes import karapanos, miettinen, schurmann, shrestha, truong

RATE = 16000


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {number:2d} PASS: {description}")


# --------------------------------------------------------------------------
# 1. DSP oracle equivalence
# --------------------------------------------------------------------------

def test_criterion_1_dsp_oracle_equivalence():
    with criterion(1, "FFT max_xcorr_norm and the two-sided production core match direct "
                      "O(N*lag) sums, 1e-6 rel, <30 s"):
        rng = np.random.default_rng(100)
        n, maxlag = 16000, 1600
        # The budget is CPU time of this process, which a co-tenant sharing
        # the machine does not inflate the way it inflates wall time.
        start = time.process_time()
        for _ in range(50):
            x = rng.normal(size=n)
            y = rng.normal(size=n)
            # independent oracle: direct O(N * lag) summation
            direct = max(abs(float(np.dot(x[l:], y[:n - l]))) for l in range(maxlag + 1))
            direct /= np.sqrt(float(np.dot(x, x)) * float(np.dot(y, y)))
            fft_val = max_xcorr_norm(x, y, maxlag, method="fft")
            assert abs(fft_val - direct) <= 1e-6 * direct
            # The production core, as `features karapanos` scores: padded spectra,
            # one correlation, the peak over lags [-maxlag, maxlag].
            direct_two = max(max(abs(float(np.dot(a[l:], b[:n - l]))) for l in range(maxlag + 1))
                             for a, b in ((x, y), (y, x)))
            fx, pad = dsp.padded_spectrum(x, maxlag)
            fy, _ = dsp.padded_spectrum(y, maxlag)
            peak = float(dsp.lag_peak(dsp.xcorr_spectra(fx, fy, pad), maxlag))
            assert abs(peak - direct_two) <= 1e-6 * direct_two
        elapsed = time.process_time() - start
        assert elapsed < 30.0, f"took {elapsed:.1f}s of CPU"


# --------------------------------------------------------------------------
# 2. Karapanos identity and scale invariance
# --------------------------------------------------------------------------

def test_criterion_2_karapanos_identity_and_scale():
    with criterion(2, "similarity(x,x)=1 within 1e-9; scale invariance for a,b in {0.5,2}; "
                      "both for the per-pair reference and interval_similarities"):
        rng = np.random.default_rng(200)
        cfg = karapanos.KarapanosConfig()
        for _ in range(20):
            samples = 2 * rng.integers(-2000, 2001, size=2 * RATE, dtype=np.int64)
            x = AudioSnippet(samples.astype(np.int16), RATE, 0, "a")
            score = similarity(x, x, cfg)
            assert not score.gated
            assert abs(score.value - 1.0) <= 1e-9
            twin = AudioSnippet(x.samples, RATE, 0, "b")
            [score] = karapanos.interval_similarities({"a": x, "b": twin}, [("a", "b")], cfg)
            assert not score.gated
            assert abs(score.value - 1.0) <= 1e-9
        for _ in range(5):
            sx = 2 * rng.integers(-2000, 2001, size=RATE, dtype=np.int64)
            sy = 2 * rng.integers(-2000, 2001, size=RATE, dtype=np.int64)
            cfg1 = karapanos.KarapanosConfig()
            ref = similarity(
                AudioSnippet(sx.astype(np.int16), RATE, 0, "a"),
                AudioSnippet(sy.astype(np.int16), RATE, 0, "b"), cfg1).value
            for alpha, beta in [(0.5, 2.0), (2.0, 0.5), (0.5, 0.5), (2.0, 2.0)]:
                got = similarity(
                    AudioSnippet((sx * alpha).astype(np.int16), RATE, 0, "a"),
                    AudioSnippet((sy * beta).astype(np.int16), RATE, 0, "b"),
                    cfg1).value
                assert abs(got - ref) <= 1e-9
            scaled = [{"a": AudioSnippet((sx * alpha).astype(np.int16), RATE, 0, "a"),
                       "b": AudioSnippet((sy * beta).astype(np.int16), RATE, 0, "b")}
                      for alpha, beta in [(1.0, 1.0), (0.5, 2.0), (2.0, 0.5), (0.5, 0.5),
                                          (2.0, 2.0)]]
            base, *others = [karapanos.interval_similarities(snippets, [("a", "b")], cfg1)[0]
                             for snippets in scaled]
            assert not base.gated
            for got in others:
                assert abs(got.value - base.value) <= 1e-9


# --------------------------------------------------------------------------
# 3. Schurmann formula oracle
# --------------------------------------------------------------------------

def _naive_schurmann(x: AudioSnippet, interval_s: int) -> np.ndarray:
    from scipy.signal import lfilter

    n_frames, n_bands = schurmann.N_FRAMES, schurmann.N_BANDS
    d = (x.rate_hz * interval_s) // n_frames
    data = x.as_float()
    energies = np.zeros((n_frames, n_bands))
    for i in range(n_frames):
        frame = data[i * d:(i + 1) * d]
        for j, (lo, hi) in enumerate(schurmann.band_edges(x.rate_hz)):
            sos = dsp._bandpass_sos(lo, hi, x.rate_hz)
            filtered = frame
            for section in sos:
                filtered = lfilter(section[:3], section[3:], filtered)
            energies[i, j] = float(filtered @ filtered)
    bits = []
    for i in range(n_frames - 1):
        for j in range(n_bands - 1):
            delta = (energies[i + 1, j] - energies[i + 1, j + 1]) \
                - (energies[i, j] - energies[i, j + 1])
            bits.append(1 if delta > 0 else 0)
    return np.array(bits, dtype=np.uint8)


def test_criterion_3_schurmann_oracle_bit_for_bit():
    with criterion(3, "pipeline fingerprints match the naive per-equation oracle; 496 bits"):
        rng = np.random.default_rng(300)
        for _ in range(20):
            samples = rng.integers(-4000, 4001, size=10 * RATE, dtype=np.int64)
            x = AudioSnippet(samples.astype(np.int16), RATE, 0, "d")
            got = schurmann.audio_fingerprint(x, 10)
            assert len(got) == 496
            np.testing.assert_array_equal(got.bits, _naive_schurmann(x, 10))


# --------------------------------------------------------------------------
# 4. Miettinen bit rule and uniform-model surprisal
# --------------------------------------------------------------------------

def test_criterion_4_miettinen_bit_rule_and_surprisal():
    with criterion(4, "bit truth table ((100->120)=1, (100->109)=0, (100->111)=1); "
                      "uniform surprisal = L bits"):
        from conftest import series_of
        from ziskit.core.types import SensorKind

        cfg = miettinen.MiettinenConfig(snapshot_s=1, bits=1)
        for averages, expected in [([100.0, 120.0], 1), ([100.0, 109.0], 0),
                                   ([100.0, 111.0], 1)]:
            series = series_of(averages, kind=SensorKind.LUMINOSITY, step_ms=1000)
            fp = miettinen.iter_fingerprints(series, cfg)[0]
            assert fp.bits.tolist() == [expected], averages
        for length in (8, 128, 496):
            rng = np.random.default_rng(length)
            fp = Fingerprint(rng.integers(0, 2, size=length).astype(np.uint8), "d", 0)
            model = uniform_surprisal_model(length)
            assert miettinen.surprisal(fp, model) == pytest.approx(float(length), abs=1e-12)


# --------------------------------------------------------------------------
# 5. Truong features
# --------------------------------------------------------------------------

def test_criterion_5_truong_features():
    with criterion(5, "hand beacon example, both-empty rule, D_tf^2 = D_t^2 + D_f^2"):
        f = truong.beacon_features(
            truong.BeaconAggregate("wifi", {"A": -50.0, "B": -70.0}),
            truong.BeaconAggregate("wifi", {"B": -60.0, "C": -90.0}))
        assert abs(f.jaccard - 2 / 3) <= 1e-9
        assert abs(f.mean_hamming - 70 / 3) <= 1e-9
        assert abs(f.euclidean - np.sqrt(2700)) <= 1e-9
        empty = truong.beacon_features(truong.BeaconAggregate("wifi", {}),
                                       truong.BeaconAggregate("wifi", {}))
        assert (empty.jaccard, empty.mean_hamming, empty.euclidean,
                empty.mean_exp, empty.sum_sq_ranks) == (10000.0,) * 5
        rng = np.random.default_rng(500)
        for _ in range(50):
            x = rng.normal(size=400)
            y = rng.normal(size=400)
            audio = truong.audio_features(x, y)
            assert abs(audio.tf_distance ** 2
                       - (audio.time_distance ** 2 + audio.freq_distance ** 2)) <= 1e-9


# --------------------------------------------------------------------------
# 6. Shrestha altitude and compression
# --------------------------------------------------------------------------

def test_criterion_6_shrestha_altitude_and_compression():
    with criterion(6, "altitude(1013.25)=0; strict monotone decrease; lossless compression"):
        assert abs(shrestha.pressure_to_altitude(1013.25)) <= 1e-9
        grid = np.linspace(300.0, 1100.0, 1000)
        alts = [shrestha.pressure_to_altitude(float(p)) for p in grid]
        assert all(a > b for a, b in zip(alts, alts[1:]))
        rng = np.random.default_rng(600)
        rows = [shrestha.ShresthaFeatureVector(
            "a", "b", 0,
            round(float(rng.uniform(0, 5)), 4),
            round(float(rng.uniform(0, 20)), 4),
            round(float(rng.uniform(0, 100)), 4),
            Label.COLOCATED if rng.random() < 0.5 else Label.NON_COLOCATED)
            for _ in range(10_000)]
        compressed = shrestha.compress_instances(rows)
        assert sum(r.weight for r in compressed) == 10_000
        expanded = expand_instances(compressed)

        def key(row):
            return (row.d_temperature, row.d_humidity, row.d_altitude, row.label.value)

        assert sorted(map(key, expanded)) == sorted(map(key, rows))


# --------------------------------------------------------------------------
# 7. EER oracle
# --------------------------------------------------------------------------

def _eer_oracle(scores, labels):
    scores = np.asarray(scores, dtype=float)
    uniq = np.unique(scores)
    candidates = [-np.inf, np.inf] + list(uniq) \
        + list((uniq[:-1] + uniq[1:]) / 2) \
        + list(uniq - 1e-9) + list(uniq + 1e-9)
    best = None
    for thr in candidates:
        far, frr = evaluation.far_frr(scores, labels, thr)
        k = (abs(far - frr), far, frr)
        if best is None or k < best[0]:
            best = (k, far, frr)
    _, far, frr = best
    return far, frr, abs(far - frr) > evaluation.STARRED_TOLERANCE


def test_criterion_7_eer_exhaustive_oracle():
    with criterion(7, "equal_error_rate matches exhaustive enumeration on 100 corpora; "
                      "4-score example = 0.5"):
        rng = np.random.default_rng(700)
        for _ in range(100):
            n = 200
            scores = np.round(rng.normal(size=n), 3)
            labels = rng.integers(0, 2, size=n)
            labels[:2] = [0, 1]
            rates = evaluation.equal_error_rate(scores, labels)
            far, frr, starred = _eer_oracle(scores, labels)
            assert (rates.far, rates.frr, rates.starred) == (far, frr, starred)
        rates = evaluation.equal_error_rate([0.3, 0.7, 0.4, 0.6], [1, 1, 0, 0])
        assert rates.eer == 0.5


# --------------------------------------------------------------------------
# 8. ML sanity
# --------------------------------------------------------------------------

def test_criterion_8_ml_sanity():
    with criterion(8, "separable CV AUC 1.0; permutation null in [0.4,0.6]; "
                      "weighted==expanded; seed 1619 byte-for-byte"):
        rng = np.random.default_rng(800)
        # linearly separable with a margin; both columns carry the signal so
        # per-split feature subsampling cannot hide it
        z = rng.uniform(0.2, 2.0, size=100) * rng.choice([-1.0, 1.0], size=100)
        X = np.column_stack([z, -z])
        y = (z > 0).astype(np.uint8)
        data = MLDataset(X, y)
        scores = oof_predictions(data, ModelParams("forest", 20, 6), k=10)
        assert auc(scores, y.astype(int)) == 1.0

        X_noise = rng.normal(size=(100, 2))
        params = ModelParams("forest", 10, 3)
        null_aucs = []
        for _ in range(100):
            y_perm = rng.permutation(y)
            null_scores = oof_predictions(MLDataset(X_noise, y_perm), params, k=10)
            null_aucs.append(auc(null_scores, y_perm.astype(int)))
        assert 0.4 <= float(np.mean(null_aucs)) <= 0.6

        weights = rng.integers(1, 5, size=100)
        m_w = fit_model(MLDataset(X, y, weights.astype(float)),
                        ModelParams("forest", 10, 5), seed=1619)
        m_e = fit_model(MLDataset(np.repeat(X, weights, axis=0), np.repeat(y, weights)),
                        ModelParams("forest", 10, 5), seed=1619)
        probe = rng.normal(size=(200, 2))
        np.testing.assert_array_equal(m_w.predict(probe), m_e.predict(probe))

        m1 = train(data, grid=GRID_SMALL, seed=1619, cv_folds=10)
        m2 = train(data, grid=GRID_SMALL, seed=1619, cv_folds=10)
        assert m1.to_json().encode() == m2.to_json().encode()


# --------------------------------------------------------------------------
# 9. End-to-end separability (heavy)
# --------------------------------------------------------------------------

SCENARIO_SEED = 17
E2E_T = 10


@pytest.fixture(scope="module")
def e2e(tmp_path_factory):
    base = tmp_path_factory.mktemp("e2e")
    start = time.monotonic()
    out = {}
    for tag, leakage in (("low", "0.1"), ("high", "0.9")):
        scen = base / f"scen_{tag}"
        assert main(["datagen", "--out", str(scen), "--seed", str(SCENARIO_SEED),
                     "--duration-s", "600", "--groups", "3,3",
                     "--leakage", leakage]) == 0
        kara = base / f"kara_{tag}.csv"
        schur = base / f"schur_{tag}.csv"
        tru = base / f"truong_{tag}.csv"
        preds = base / f"preds_{tag}.csv"
        assert main(["features", "--scheme", "karapanos", "--dataset", str(scen),
                     "--out", str(kara), "--t", str(E2E_T)]) == 0
        assert main(["features", "--scheme", "schurmann", "--dataset", str(scen),
                     "--out", str(schur), "--t", str(E2E_T)]) == 0
        assert main(["features", "--scheme", "truong", "--dataset", str(scen),
                     "--out", str(tru), "--t", str(E2E_T)]) == 0
        assert main(["ml", "train", "--features", str(tru), "--scheme", "truong",
                     "--grid", "small", "--folds", "10",
                     "--out", str(base / f"model_{tag}.json"),
                     "--predictions", str(preds)]) == 0
        evals = {}
        for scheme, source in (("karapanos", kara), ("schurmann", schur)):
            out_dir = base / f"eval_{scheme}_{tag}"
            assert main(["evaluate", "--scheme", scheme, "--features", str(source),
                         "--dataset", str(scen), "--out", str(out_dir)]) == 0
            evals[scheme] = out_dir
        out_dir = base / f"eval_truong_{tag}"
        assert main(["evaluate", "--scheme", "truong", "--scores", str(preds),
                     "--dataset", str(scen), "--out", str(out_dir)]) == 0
        evals["truong"] = out_dir
        out[tag] = {"scenario": scen, "features": {"karapanos": kara,
                                                   "schurmann": schur},
                    "predictions": preds, "evals": evals}
    out["elapsed"] = time.monotonic() - start
    return out


def _full_eer(results_csv: Path, t: int = E2E_T) -> float:
    with open(results_csv) as fh:
        for row in csv.DictReader(fh):
            if row["subscenario"] == "full" and int(row["t"]) == t:
                return float(row["eer"])
    raise AssertionError(f"no full/{t} row in {results_csv}")


@pytest.mark.slow
def test_criterion_9_end_to_end_separability(e2e):
    with criterion(9, "EER <= 0.05 at leakage 0.1; EER rise >= 0.10 at 0.9; <10 min"):
        for scheme in ("karapanos", "schurmann", "truong"):
            low = _full_eer(e2e["low"]["evals"][scheme] / "results.csv")
            high = _full_eer(e2e["high"]["evals"][scheme] / "results.csv")
            assert low <= 0.05, f"{scheme} low-leakage EER {low}"
            assert high - low >= 0.10, f"{scheme} EER rise {high - low}"
        assert e2e["elapsed"] < 600.0, f"end-to-end took {e2e['elapsed']:.0f}s"


# --------------------------------------------------------------------------
# 10. Randomness suite
# --------------------------------------------------------------------------

def test_criterion_10_randomness_suite():
    with criterion(10, "uniform corpus: TV < 0.05 and bits within 3 sigma; "
                       "all-ones corpus: TV > 0.9"):
        rng = np.random.default_rng(13)
        fps = [Fingerprint(rng.integers(0, 2, size=496).astype(np.uint8), "d", 0)
               for _ in range(10_000)]
        walk = randomness.random_walk(fps)
        assert walk.tv_distance < 0.05
        markov = randomness.markov_stats(fps)
        sigma = 0.5 / np.sqrt(10_000)
        assert np.all(np.abs(markov.p_one - 0.5) < 3 * sigma)
        ones = [Fingerprint(np.ones(496, dtype=np.uint8), "d", 0)] * 100
        assert randomness.random_walk(ones).tv_distance > 0.9


# --------------------------------------------------------------------------
# 11. Robustness protocol
# --------------------------------------------------------------------------

def _records_for(scheme: str, info: dict) -> list:
    dataset = load_dataset(info["scenario"])
    if scheme == "karapanos":
        return pipeline.read_score_csv(info["features"]["karapanos"],
                                       dataset.ground_truth)
    if scheme == "schurmann":
        fps, spans = pipeline.read_fingerprint_csv(
            info["features"]["schurmann"])
        return pipeline.fingerprint_records(fps, spans, dataset.ground_truth)
    return pipeline.read_prediction_csv(info["predictions"])


@pytest.mark.slow
def test_criterion_11_robustness_self_application(e2e):
    with criterion(11, "cross_apply(A=B) reproduces each stored EER operating point"):
        checked = []
        for tag in ("low", "high"):
            truth = read_ground_truth(e2e[tag]["scenario"] / "ground_truth.json")
            for scheme, eval_dir in e2e[tag]["evals"].items():
                records = _records_for(scheme, e2e[tag])
                with open(eval_dir / "results.csv") as fh:
                    rows = list(csv.DictReader(fh))
                for row in rows:
                    subset = [r for r in records if r.interval_len_s == int(row["t"])]
                    if row["subscenario"] != "full":
                        subset = filter_subscenario(subset, truth, row["subscenario"])
                    scores, labels = evaluation.usable_scores(subset)
                    native = evaluation.equal_error_rate(scores, labels)
                    stored_thr = float(row["threshold"])
                    assert stored_thr == native.threshold
                    result = evaluation.cross_apply(stored_thr, scores, labels)
                    assert (result.far, result.frr) == (native.far, native.frr)
                    assert float(row["eer"]) == native.eer
                    assert bool(int(row["starred"])) == native.starred
                    assert result.delta_far == 0.0 and result.delta_frr == 0.0
                    checked.append(row["subscenario"])
        assert checked.count("full") == 6  # 3 schemes x 2 scenarios
        assert checked.count("first_half") == checked.count("second_half") == 6

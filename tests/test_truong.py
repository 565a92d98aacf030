import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import noise_snippet, two_group_truth
from ziskit import dsp, pipeline
from ziskit.core.types import AudioSnippet, BeaconScan, Dataset, GroundTruth, Group, Label
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
            BeaconScan("wifi", 0, {"A": -50.0, "B": -70.0}),
            BeaconScan("wifi", 1000, {"A": -60.0}),
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


@st.composite
def int16_audio(draw) -> np.ndarray:
    """Audio of 2 to 5 000 samples, odd, even and prime: noise, silence, or
    only the int16 extremes."""
    n = draw(st.one_of(st.integers(2, 5000), st.sampled_from([2, 3, 97, 1009, 4096, 4999])))
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["noise", "silence", "extremes"]))
    if kind == "silence":
        return np.zeros(n, np.int16)
    if kind == "extremes":
        return gen.choice(np.array([-2 ** 15, 2 ** 15 - 1], np.int16), n)
    return gen.integers(-2 ** 15, 2 ** 15, n, dtype=np.int16)


class TestWorkspace:
    """`build_dataset` builds each state in its worker's lane: in the lane's
    scratch, into a row of the lane's stacks. It equals `audio_state`, which
    builds in new buffers, and the plain numpy path, bit for bit; the lane's
    padded spectra, in a held row or the stream row, equal
    `dsp.padded_spectrum`."""

    @given(x=int16_audio(), row=st.integers(0, 2))
    @example(x=np.zeros(4, np.int16), row=1)
    @example(x=np.full(1009, -2 ** 15, np.int16), row=2)
    @settings(max_examples=60, deadline=None)
    def test_state_equals_audio_state(self, x, row):
        lane = truong._Lane()
        for buffer in lane.scratch(x.size):  # as an earlier pair phase leaves them
            buffer.fill(np.nan)
        got = lane.audio_state(row, 3, x)
        held, streamed = lane.spectrum(row, 3, x), lane.spectrum(None, 1, x)
        xf = x.astype(np.float64)
        ref = truong.audio_state(xf)
        spectrum, pad = dsp.padded_spectrum(xf, x.size - 1)
        mag = np.abs(np.fft.fft(np.hamming(x.size) * xf)[:x.size // 2])
        norm = float(np.linalg.norm(mag))
        assert got.size == ref.size == x.size and lane.scratch(x.size)[0].size == pad
        assert held.tobytes() == streamed.tobytes() == spectrum.tobytes()
        assert got.sum_sq.tobytes() == ref.sum_sq.tobytes() == np.dot(xf, xf).tobytes()
        if norm == 0.0:
            assert got.unit_spectrum is None and ref.unit_spectrum is None
        else:
            assert got.unit_spectrum.tobytes() == ref.unit_spectrum.tobytes() \
                == (mag / norm).tobytes()


    @given(x=int16_audio(), y_kind=st.sampled_from(["noise", "silence", "same", "negated"]),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(x=np.full(1009, -2 ** 15, np.int16), y_kind="noise", seed=3)
    @settings(max_examples=60, deadline=None)
    def test_tf_distance_in_the_pad_buffer_equals_the_per_pair_difference(self, x, y_kind,
                                                                         seed):
        """The pair phase forms the unit-spectrum difference in the lane's
        idle pad buffer; the per-pair form subtracts into a new array."""
        y = {"noise": np.random.default_rng(seed).integers(-2 ** 15, 2 ** 15, x.size,
                                                            dtype=np.int16),
             "silence": np.zeros(x.size, np.int16), "same": x,
             "negated": -x.astype(np.float64)}[y_kind]
        a, b = truong.audio_state(x.astype(np.float64)), truong.audio_state(y)
        lane = truong._Lane()
        fx, fy = lane.spectrum(0, 1, x), lane.spectrum(None, 1, y)
        pad, _ = lane.scratch(x.size)
        assert (fx.tobytes(), fy.tobytes()) == tuple(
            dsp.padded_spectrum(np.asarray(v, np.float64), x.size - 1)[0].tobytes()
            for v in (x, y))
        peak = dsp.lag_peak(dsp.xcorr_spectra(fx, fy, pad.size), x.size - 1)
        pad.fill(np.nan)  # as the pair's correlation leaves it
        if a.unit_spectrum is None or b.unit_spectrum is None:
            with pytest.raises(UndefinedCorrelation):
                truong.audio_distances(a, b, peak, pad)
            return
        got = truong.audio_distances(a, b, peak, pad)
        freq = float(np.linalg.norm(a.unit_spectrum - b.unit_spectrum))
        time = 1.0 - float(dsp.normalize_peak(peak, a.sum_sq, b.sum_sq))
        assert np.float64(got.freq_distance).tobytes() == np.float64(freq).tobytes()
        assert np.float64(got.tf_distance).tobytes() == \
            np.float64(math.hypot(time, freq)).tobytes()

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
            scans.append(BeaconScan("wifi", k * 10_000 + 100, obs))
            scans.append(BeaconScan("ble", k * 10_000 + 100, obs))
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
        # a and b record at 8 kHz: only their own pair compares audio with them.
        for dev in "ab":
            dataset.audio[dev] = AudioSnippet(
                noise_snippet(rng, seconds=20.0, rate=8000).samples, 8000, 0, dev)
        rows = truong.build_dataset(window_pairs(dataset, 10), dataset, 10)
        for row in rows:
            pair = (row.device_a, row.device_b)
            assert (row.audio_max_xcorr is None) == (len({"a", "b"} & set(pair)) == 1)
            if row.audio_max_xcorr is not None:
                start, stop = row.interval_start, row.interval_start + 10_000
                audio = truong.audio_features(
                    *(dataset.audio[d].slice_ms(start, stop) for d in pair))
                assert (row.audio_max_xcorr, row.audio_tf_distance) == \
                    (audio.max_xcorr, audio.tf_distance)

    @pytest.mark.parametrize("threads", ["1", "2", "3"])
    def test_two_audio_sizes_and_growing_intervals_match_per_pair(self, rng, monkeypatch,
                                                                 threads):
        # a and b record at 8 kHz, c and d at 16 kHz: one interval holds two
        # audio sizes. The first interval leaves d out, so the second has more
        # devices and the stacks grow.
        monkeypatch.setenv("ZIS_THREADS", threads)
        dataset = _beacon_dataset(rng, shared=True)
        for dev in dataset.audio:
            rate = 8000 if dev in "ab" else 16000
            dataset.audio[dev] = AudioSnippet(
                noise_snippet(rng, seconds=20.0, rate=rate).samples, rate, 0, dev)
        pairs = [p for p in window_pairs(dataset, 10)
                 if p.interval_start or "d" not in (p.device_a, p.device_b)]
        rows = truong.build_dataset(pairs, dataset, 10)
        assert [r.record() for r in rows] == [p for p in pairs]
        assert {r.interval_start for r in rows} == {0, 10_000}
        for row in rows:
            pair = (row.device_a, row.device_b)
            if len({"a", "b"} & set(pair)) == 1:
                assert row.audio_max_xcorr is None
                continue
            start, stop = row.interval_start, row.interval_start + 10_000
            audio = truong.audio_features(
                *(dataset.audio[d].slice_ms(start, stop) for d in pair))
            assert (row.audio_max_xcorr, row.audio_tf_distance) == \
                (audio.max_xcorr, audio.tf_distance)

    @pytest.mark.parametrize("n_devices", [2, 3, 5, 8])
    def test_half_split_rows_match_per_pair_under_every_thread_count(self, rng, monkeypatch,
                                                                    n_devices):
        # Every third device records at 8 kHz, so from three devices on an
        # interval holds two audio sizes, each split into its own halves; d0's
        # audio ends with the first interval, so it has none in the second.
        # Pairs are correlated within the first half, across the halves and
        # within the second half, whose spectra are transformed again.
        names = [f"d{i}" for i in range(n_devices)]
        rates = {d: 8000 if i % 3 == 2 else 16000 for i, d in enumerate(names)}
        audio = {d: AudioSnippet(noise_snippet(rng, seconds=2.0, rate=rates[d]).samples,
                                 rates[d], 0, d) for d in names}
        dataset = Dataset(audio=audio, ground_truth=GroundTruth(groups=(
            Group("g0", tuple(names[::2]), ((0, 10_000),)),
            Group("g1", tuple(names[1::2]), ((0, 10_000),)))))
        pairs = window_pairs(dataset, 1)
        audio["d0"] = AudioSnippet(audio["d0"].samples[:16000], 16000, 0, "d0")
        runs = {}
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("ZIS_THREADS", threads)
            runs[threads] = truong.build_dataset(pairs, dataset, 1)
        assert runs["1"] == runs["2"] == runs["3"]
        rows = runs["1"]
        assert [r.record() for r in rows] == pairs
        assert {r.interval_start for r in rows} == {0, 1000}
        compared = 0
        for row in rows:
            start, stop = row.interval_start, row.interval_start + 1000
            snippets = [dataset.audio_in(d, start, stop) for d in (row.device_a, row.device_b)]
            if None in snippets or snippets[0].rate_hz != snippets[1].rate_hz:
                assert (row.audio_max_xcorr, row.audio_tf_distance) == (None, None)
                continue
            expected = truong.audio_features(*snippets)
            assert (row.audio_max_xcorr, row.audio_tf_distance) == \
                (expected.max_xcorr, expected.tf_distance)
            compared += 1
        assert compared == {2: 1, 3: 1, 5: 6 + 3, 8: 16 + 11}[n_devices]

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("n_devices", [2, 3, 5, 8])
    def test_transforms_per_interval(self, rng, monkeypatch, n_devices, threads):
        # Each of an interval's D devices of one rate has its windowed
        # spectrum taken once. Its padded spectrum is transformed once, and
        # again for each second-half device but the last one each worker slot
        # streamed, whose spectrum is still in the slot's stream row.
        names = [f"d{i}" for i in range(n_devices)]
        dataset = Dataset(
            audio={d: AudioSnippet(noise_snippet(rng, seconds=2.0).samples, 16000, 0, d)
                   for d in names},
            ground_truth=GroundTruth(groups=(Group("g0", tuple(names), ((0, 10_000),)),)))
        events: list[tuple] = []  # list.append is atomic across worker threads
        for name in ("rfft", "fft_mag_hamming"):
            def counted(*args, real=getattr(dsp, name), name=name, **kwargs):
                events.append((name,))
                return real(*args, **kwargs)

            monkeypatch.setattr(dsp, name, counted)
        real_interval = truong.device_interval

        def marked(dataset, device, start, *args):
            events.append(("start", start))
            return real_interval(dataset, device, start, *args)

        monkeypatch.setattr(truong, "device_interval", marked)
        monkeypatch.setenv("ZIS_THREADS", str(threads))
        pairs = window_pairs(dataset, 1)
        assert len(truong.build_dataset(pairs, dataset, 1)) == len(pairs)
        per_interval: dict[int, dict[str, int]] = {}
        for event in events:
            if event[0] == "start":
                counts = per_interval.setdefault(event[1], {"rfft": 0, "fft_mag_hamming": 0})
            else:
                counts[event[0]] += 1
        half = n_devices // 2
        assert per_interval == {start: {"rfft": n_devices + half - min(threads, half),
                                        "fft_mag_hamming": n_devices}
                                for start in (0, 1000)}

    def test_lanes_hold_under_more_threads_than_cores(self, rng, monkeypatch):
        # Each worker slot writes only its own lane, and reads the states in
        # other lanes only after every state is built. With eight workers and
        # a thread switch every microsecond, a lane written by two slots at
        # once would change bits.
        dataset = _beacon_dataset(rng, shared=True)
        for dev in dataset.audio:  # each device its own noise
            dataset.audio[dev] = AudioSnippet(noise_snippet(rng, seconds=20.0).samples,
                                              16000, 0, dev)
        pairs = window_pairs(dataset, 5)
        monkeypatch.setenv("ZIS_THREADS", "1")
        serial = truong.build_dataset(pairs, dataset, 5)
        monkeypatch.setenv("ZIS_THREADS", "8")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = truong.build_dataset(pairs, dataset, 5)
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial and all(r.audio_max_xcorr is not None for r in serial)

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

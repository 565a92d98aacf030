import hashlib
import tempfile
import threading
import tracemalloc
import weakref
from collections import Counter
from dataclasses import replace
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import noise_snippet, series_of, two_group_truth
from ziskit import datagen, dsp, pipeline
from ziskit.core.io import load_dataset, write_wav
from ziskit.core.types import (
    AudioSnippet,
    Dataset,
    EvaluationRecord,
    Fingerprint,
    GroundTruth,
    Group,
    Label,
    SensorKind,
)
from ziskit.core.windowing import thread_count
from ziskit.errors import ParseError
from ziskit.schemes import karapanos, miettinen, schurmann, shrestha, truong


@pytest.fixture
def audio_dataset(rng):
    gt = two_group_truth()
    base0 = noise_snippet(rng, seconds=20.0, device="base0")
    base1 = noise_snippet(rng, seconds=20.0, device="base1")
    audio = {}
    for dev, base in [("a", base0), ("b", base0), ("c", base1), ("d", base1)]:
        jitter = rng.integers(-200, 201, size=base.samples.size)
        samples = np.clip(base.samples.astype(np.int64) + jitter, -32768, 32767)
        audio[dev] = AudioSnippet(samples.astype(np.int16), 16000, 0, dev)
    return Dataset(audio=audio, ground_truth=gt)


class TestKarapanosRecords:
    def test_scores_and_labels(self, audio_dataset):
        cfg = karapanos.KarapanosConfig()
        records = pipeline.karapanos_records(audio_dataset, 10, cfg)
        assert len(records) == 12  # 2 intervals x 6 pairs
        by_label = {}
        for r in records:
            assert not r.gated
            by_label.setdefault(r.label, []).append(r.score)
        assert min(by_label[Label.COLOCATED]) > max(by_label[Label.NON_COLOCATED])

    def test_missing_audio_becomes_gated_record(self, audio_dataset):
        del audio_dataset.audio["d"]
        # d still has ground truth but no data at all: dropped from windows
        cfg = karapanos.KarapanosConfig()
        records = pipeline.karapanos_records(audio_dataset, 10, cfg)
        devices = {r.device_a for r in records} | {r.device_b for r in records}
        assert "d" not in devices

    def test_short_audio_gated(self, audio_dataset, rng):
        # c's audio stops after 12 s but its sensor stream spans the full
        # 20 s, so the second interval exists and c's snippet is unusable.
        short = audio_dataset.audio["c"].samples[:12 * 16000]
        audio_dataset.audio["c"] = AudioSnippet(short, 16000, 0, "c")
        audio_dataset.sensors["c"] = {SensorKind.TEMPERATURE: series_of(
            [20.0] * 21, kind=SensorKind.TEMPERATURE, step_ms=1000, device="c")}
        cfg = karapanos.KarapanosConfig()
        records = pipeline.karapanos_records(audio_dataset, 10, cfg)
        late_c = [r for r in records
                  if r.interval_start == 10_000 and "c" in (r.device_a, r.device_b)]
        assert late_c and all(r.gated for r in late_c)
        late_other = [r for r in records
                      if r.interval_start == 10_000
                      and "c" not in (r.device_a, r.device_b)]
        assert late_other and not any(r.gated for r in late_other)

    def test_score_csv_round_trip(self, audio_dataset, tmp_path):
        cfg = karapanos.KarapanosConfig()
        records = pipeline.karapanos_records(audio_dataset, 10, cfg)
        path = tmp_path / "scores.csv"
        pipeline.write_score_csv(path, records)
        back = pipeline.read_score_csv(path, audio_dataset.ground_truth)
        assert [(r.device_a, r.device_b, r.interval_start, r.score, r.gated, r.label)
                for r in back] == \
            [(r.device_a, r.device_b, r.interval_start, r.score, r.gated, r.label)
             for r in records]


class TestFingerprintPipeline:
    def test_schurmann_fingerprints_per_device_interval(self, audio_dataset):
        fps = pipeline.schurmann_fingerprints(audio_dataset, 10)
        assert len(fps) == 8  # 4 devices x 2 intervals
        assert all(len(fp) == 496 for fp in fps)

    def test_fingerprint_csv_round_trip(self, audio_dataset, tmp_path):
        fps = pipeline.schurmann_fingerprints(audio_dataset, 10)
        path = tmp_path / "fp.csv"
        pipeline.write_fingerprint_csv(path, fps, 10)
        back, spans = pipeline.read_fingerprint_csv(path)
        assert spans == [10] * len(fps)
        for orig, rec in zip(fps, back):
            np.testing.assert_array_equal(orig.bits, rec.bits)

    def test_fingerprint_csv_keeps_bit_count(self, tmp_path):
        fp = Fingerprint(np.array([1, 0, 1, 1] * 5, dtype=np.uint8), "d", 0)
        path = tmp_path / "fp.csv"
        pipeline.write_fingerprint_csv(path, [fp], 10)
        back, _ = pipeline.read_fingerprint_csv(path)
        np.testing.assert_array_equal(back[0].bits, fp.bits)

    def test_fingerprint_records_labeling(self, audio_dataset):
        fps = pipeline.schurmann_fingerprints(audio_dataset, 10)
        records = pipeline.fingerprint_records(fps, [10] * len(fps),
                                               audio_dataset.ground_truth)
        assert len(records) == 12
        coloc = [r.score for r in records if r.label is Label.COLOCATED]
        noncoloc = [r.score for r in records if r.label is Label.NON_COLOCATED]
        assert np.mean(coloc) > np.mean(noncoloc)

    def test_surprisal_threshold_gates_records(self, audio_dataset):
        fps = pipeline.schurmann_fingerprints(audio_dataset, 10)
        model = miettinen.SurprisalModel.fit(fps)
        threshold = float(np.median([miettinen.surprisal(fp, model) for fp in fps]))
        records = pipeline.fingerprint_records(
            fps, [10] * len(fps), audio_dataset.ground_truth, surprisal_threshold=threshold)
        gated = [r for r in records if r.gated]
        assert gated and all(r.score is None for r in gated)
        kept = [r for r in records if not r.gated]
        assert kept and all(r.score is not None for r in kept)

    def test_miettinen_luminosity_source(self, rng):
        gt = two_group_truth()
        sensors = {}
        for dev, base in [("a", 100.0), ("b", 100.0), ("c", 500.0), ("d", 500.0)]:
            values = base + 50.0 * rng.random(40) + np.repeat([0, 100], 20)
            sensors[dev] = {SensorKind.LUMINOSITY: series_of(
                values, kind=SensorKind.LUMINOSITY, step_ms=1000, device=dev)}
        dataset = Dataset(sensors=sensors, ground_truth=gt)
        cfg = miettinen.MiettinenConfig(snapshot_s=5, bits=4)
        fps = pipeline.miettinen_fingerprints(dataset, cfg, source="luminosity")
        assert len(fps) == 4

    def test_miettinen_noise_source_uses_audio(self, audio_dataset):
        cfg = miettinen.MiettinenConfig(snapshot_s=2, bits=4)
        fps = pipeline.miettinen_fingerprints(audio_dataset, cfg, source="noise")
        assert len(fps) == 8  # 20 s per device -> two 4-bit fingerprints each

    def test_miettinen_drops_only_a_device_shorter_than_one_window(self, audio_dataset):
        # 0.25 s of audio holds no 1 s noise-level window: that device gets
        # no fingerprints, as a series too short for one tile gets none.
        cfg = miettinen.MiettinenConfig(snapshot_s=2, bits=4)
        short = AudioSnippet(audio_dataset.audio["a"].samples[:4000], 16000, 0, "a")
        with_short = Dataset(audio={**audio_dataset.audio, "a": short},
                             ground_truth=audio_dataset.ground_truth)
        without = Dataset(audio={d: x for d, x in audio_dataset.audio.items() if d != "a"},
                          ground_truth=audio_dataset.ground_truth)
        fps = pipeline.miettinen_fingerprints(with_short, cfg)
        expected = pipeline.miettinen_fingerprints(without, cfg)
        assert len(expected) == 6
        assert [(fp.device_id, fp.interval_start, fp.to_hex()) for fp in fps] == \
            [(fp.device_id, fp.interval_start, fp.to_hex()) for fp in expected]

    def test_unknown_source_rejected(self, audio_dataset):
        cfg = miettinen.MiettinenConfig(snapshot_s=2, bits=4)
        with pytest.raises(ValueError):
            pipeline.miettinen_fingerprints(audio_dataset, cfg, source="nope")


class TestPredictionCsv:
    def test_round_trip(self, tmp_path):
        from ziskit.core.types import EvaluationRecord

        records = [
            EvaluationRecord("a", "b", 0, 10, Label.COLOCATED, 0.75),
            EvaluationRecord("a", "c", 0, 10, Label.NON_COLOCATED, 0.25),
        ]
        path = tmp_path / "preds.csv"
        pipeline.write_prediction_csv(path, records)
        back = pipeline.read_prediction_csv(path)
        assert back == records


class TestThreading:
    def test_zis_threads_env_respected(self, monkeypatch):
        monkeypatch.setenv("ZIS_THREADS", "3")
        assert thread_count() == 3
        monkeypatch.setenv("ZIS_THREADS", "0")
        assert thread_count() == 1

    def test_pmap_preserves_order_under_threads(self, monkeypatch):
        monkeypatch.setenv("ZIS_THREADS", "4")
        out = pipeline.pmap(lambda v: v * v, list(range(50)))
        assert out == [v * v for v in range(50)]

    def test_parallel_karapanos_matches_serial(self, audio_dataset, monkeypatch):
        cfg = karapanos.KarapanosConfig()
        monkeypatch.setenv("ZIS_THREADS", "1")
        serial = pipeline.karapanos_records(audio_dataset, 10, cfg)
        monkeypatch.setenv("ZIS_THREADS", "4")
        threaded = pipeline.karapanos_records(audio_dataset, 10, cfg)
        assert serial == threaded


    def test_feature_csvs_identical_for_one_and_two_threads(self, audio_dataset,
                                                            monkeypatch, tmp_path):
        cfg = karapanos.KarapanosConfig()
        outputs = {}
        for threads in ("1", "2"):
            monkeypatch.setenv("ZIS_THREADS", threads)
            kara, rows = tmp_path / f"kara{threads}.csv", tmp_path / f"truong{threads}.csv"
            fps = tmp_path / f"schurmann{threads}.csv"
            pipeline.write_score_csv(kara, pipeline.karapanos_records(audio_dataset, 5, cfg))
            pipeline.write_truong_csv(rows, pipeline.truong_rows(audio_dataset, 5))
            pipeline.write_fingerprint_csv(fps, pipeline.schurmann_fingerprints(audio_dataset, 5),
                                           5)
            outputs[threads] = (kara.read_bytes(), rows.read_bytes(), fps.read_bytes())
        assert outputs["1"] == outputs["2"]

    def test_device_state_built_once_per_device_interval(self, audio_dataset,
                                                         monkeypatch):
        # Truong builds each device-interval's state once; Karapanos filters
        # each (interval, device, band) once, one device's samples per call.
        monkeypatch.setenv("ZIS_THREADS", "2")
        built = []
        real_fn = truong.device_interval

        def counted(*args):
            built.append("device_interval")
            return real_fn(*args)

        monkeypatch.setattr(truong, "device_interval", counted)
        filtered = []
        real_bandpass = dsp.bandpass

        def bandpass(x, f_low, *args, **kwargs):
            row = np.asarray(x, dtype=np.float64)
            filtered.append((row.ndim, row_digest(row), f_low))
            return real_bandpass(x, f_low, *args, **kwargs)

        monkeypatch.setattr(dsp, "bandpass", bandpass)
        cfg = karapanos.KarapanosConfig()
        pipeline.karapanos_records(audio_dataset, 5, cfg)
        pipeline.truong_rows(audio_dataset, 5)
        pairs = pipeline.window_pairs(audio_dataset, 5)
        device_intervals = {(d, p.interval_start) for p in pairs
                            for d in (p.device_a, p.device_b)}
        assert len(device_intervals) == 4 * 4  # 4 devices x 4 intervals
        rows = {row_digest(audio_dataset.audio_in(d, start, start + 5000).as_float())
                for d, start in device_intervals}
        assert len(rows) == len(device_intervals)  # the jitter tells them apart
        assert Counter(filtered) == Counter(
            (1, row, band.f_low) for row in rows for band in dsp.THIRD_OCTAVE_BANDS)
        assert built.count("device_interval") == len(device_intervals)

    def test_karapanos_threads_agree_on_gated_devices(self, audio_dataset, rng,
                                                      monkeypatch):
        audio = dict(audio_dataset.audio)
        audio["q"] = noise_snippet(rng, seconds=20.0, amplitude=20, device="q")
        audio["low"] = noise_snippet(rng, seconds=20.0, rate=8000, device="low")
        audio["s"] = noise_snippet(rng, seconds=12.0, device="s")  # short in [10 s, 20 s)
        sensors = {"s": {SensorKind.TEMPERATURE: series_of(
            [20.0] * 21, kind=SensorKind.TEMPERATURE, device="s")}}
        truth = GroundTruth(groups=(Group("g0", ("a", "b", "q", "s"), ((0, 1_000_000),)),
                                    Group("g1", ("c", "d", "low"), ((0, 1_000_000),))))
        dataset = Dataset(audio=audio, sensors=sensors, ground_truth=truth)
        cfg = karapanos.KarapanosConfig()
        runs = {}
        for threads in ("1", "2"):
            monkeypatch.setenv("ZIS_THREADS", threads)
            runs[threads] = pipeline.karapanos_records(dataset, 10, cfg)
        assert runs["1"] == runs["2"]
        gated = {(r.device_a, r.device_b, r.interval_start) for r in runs["1"] if r.gated}
        assert {r for r in gated if r[2] == 0} == {
            pair + (0,) for pair in combinations(sorted(audio), 2)
            if {"q", "low"} & set(pair)}
        assert ("a", "s", 10_000) in gated and ("a", "s", 0) not in gated
        assert len(runs["1"]) == 2 * 21 and len(gated) < len(runs["1"])

    def test_karapanos_peak_memory_below_device_major_state(self, audio_dataset,
                                                           monkeypatch):
        # Holding every band of every device of one interval takes
        # devices x bands x (M/2+1) complex bins; band-major scoring holds one
        # band's spectra of the interval, one pad buffer and the correlator's
        # scratch, and no filtered copy of the interval's audio: half a
        # (devices x N) float64 buffer more breaks the bound. numpy reports
        # its buffers to tracemalloc.
        # loaded lazily by dsp; keep the kernels out of the peak
        dsp.bandpass(np.zeros(8), 100.0, 200.0, rate_hz=16000)
        dsp.rfft(np.zeros(8))

        monkeypatch.setenv("ZIS_THREADS", "1")
        cfg = karapanos.KarapanosConfig()
        t, rate = 10, 16000
        pad = dsp.fast_len(t * rate + int(round(cfg.maxlag_s * rate)))
        n_devices, bins = len(audio_dataset.audio), pad // 2 + 1
        device_major = n_devices * len(dsp.THIRD_OCTAVE_BANDS) * bins * 16
        # one band's spectra, the pad buffer, and the correlator's two buffers
        band_major = (n_devices + 1) * bins * 16 + 2 * pad * 8
        banded = n_devices * t * rate * 8
        tracemalloc.start()
        try:
            records = pipeline.karapanos_records(audio_dataset, t, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert records and not any(r.gated for r in records)
        assert peak < device_major
        assert peak < band_major + banded // 2

    def test_truong_holds_one_interval_of_device_states(self, audio_dataset, monkeypatch):
        # Each built state is watched through a weak reference to its audio
        # state. Building a state while another interval's is still alive
        # fails, as does one interval per thread.
        monkeypatch.setenv("ZIS_THREADS", "2")
        real_fn = truong.device_interval
        lock = threading.Lock()
        alive: list[tuple[int, weakref.ref]] = []
        overlaps = []

        def watched(dataset, device, start, stop, *build):
            with lock:
                overlaps.extend((s, start) for s, ref in alive if s != start and ref() is not None)
            state = real_fn(dataset, device, start, stop, *build)
            with lock:
                alive.append((start, weakref.ref(state.audio)))
            return state

        monkeypatch.setattr(truong, "device_interval", watched)
        rows = pipeline.truong_rows(audio_dataset, 5)
        assert len(rows) == len(pipeline.window_pairs(audio_dataset, 5))
        assert len({start for start, _ in alive}) == 4 and len(alive) == 4 * 4
        assert not overlaps

    def test_truong_peak_memory_is_states_and_two_buffers_per_worker(self, audio_dataset,
                                                                     monkeypatch):
        # Each worker slot holds one pad buffer and one complex buffer of
        # pad/2 + 1 bins at the interval's audio size, beside the interval's
        # states (a spectrum and a unit spectrum per device). A third
        # pad-sized buffer per worker breaks the bound, as do per-device
        # copies of the audio; the slack of one pad-sized buffer covers small
        # objects. The audio is in memory before tracing starts, and
        # `audio_in` slices it without a copy.
        dsp.rfft(np.zeros(8))  # loaded lazily by dsp; keep the kernel and the window
        dsp.fft_mag_hamming(np.zeros(5 * 16000))  # out of the peak
        monkeypatch.setenv("ZIS_THREADS", "2")
        t, n_devices = 5, len(audio_dataset.audio)
        n = t * 16000
        pad = dsp.fast_len(2 * n - 1)
        bins = pad // 2 + 1
        states = n_devices * (bins * 16 + n // 2 * 8)
        scratch = 2 * (pad * 8 + bins * 16)
        pairs = pipeline.window_pairs(audio_dataset, t)
        tracemalloc.start()
        try:
            rows = truong.build_dataset(pairs, audio_dataset, t)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(rows) == len(pairs) and all(r.audio_max_xcorr is not None for r in rows)
        assert peak < states + scratch + pad * 8

    def test_truong_allocates_no_pad_sized_array_after_its_first_interval(
            self, audio_dataset, monkeypatch):
        # Traced memory may rise after the first interval's states by less
        # than one unit spectrum (N/2 float64): the states reuse the rows of
        # the first interval's stacks, and the workers their scratch, whose
        # pad buffer also holds each pair's unit-spectrum difference. What
        # rises is small objects.
        dsp.rfft(np.zeros(8))
        monkeypatch.setenv("ZIS_THREADS", "2")
        t = 5
        unit = t * 16000 // 2 * 8
        real_fn = truong.device_interval
        lock = threading.Lock()
        starts: list[int] = []
        baseline: list[int] = []

        def watched(dataset, device, start, stop, *build):
            with lock:
                if start not in starts:
                    starts.append(start)
                    if len(starts) == 2:  # the first state of the second interval
                        baseline.append(tracemalloc.get_traced_memory()[0])
                        tracemalloc.reset_peak()
            return real_fn(dataset, device, start, stop, *build)

        monkeypatch.setattr(truong, "device_interval", watched)
        tracemalloc.start()
        try:
            rows = pipeline.truong_rows(audio_dataset, t)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(starts) == 4 and len(rows) == len(pipeline.window_pairs(audio_dataset, t))
        assert peak - baseline[0] < unit

    def test_karapanos_filters_every_band_into_one_buffer(self, audio_dataset, rng,
                                                          monkeypatch):
        # Every filter output is held, so a buffer per band or per device could
        # not be reused. Each rate group is one `_band_peaks` call, and each
        # output is the head of that call's zero-tailed pad buffer.
        outputs = []
        real_bandpass = dsp.bandpass

        def bandpass(*args, **kwargs):
            outputs.append((kwargs["rate_hz"], real_bandpass(*args, **kwargs)))
            return outputs[-1][1]

        monkeypatch.setattr(dsp, "bandpass", bandpass)
        snippets = {d: x.slice_ms(0, 5000) for d, x in audio_dataset.audio.items()}
        snippets |= {d: noise_snippet(rng, seconds=5.0, rate=22050, device=d) for d in ("r1", "r2")}
        cfg = karapanos.KarapanosConfig()
        scores = karapanos.interval_similarities(snippets, list(combinations(snippets, 2)), cfg)
        assert sum(not score.gated for score in scores) == 6 + 1
        pads = []
        for rate, n_devices in ((16000, 4), (22050, 2)):
            outs = [out for r, out in outputs if r == rate]
            assert len(outs) == n_devices * len(dsp.THIRD_OCTAVE_BANDS)
            pad = outs[0].base
            assert pad.shape == (dsp.fast_len(5 * rate + int(round(cfg.maxlag_s * rate))),)
            assert all(out.base is pad and out.ctypes.data == pad.ctypes.data
                       and out.size == 5 * rate for out in outs)
            pads.append(pad)
        assert not np.shares_memory(*pads)


@pytest.fixture(scope="module")
def crowded_scenario(tmp_path_factory):
    """16 devices x 20 s, the crowded_room benchmark's scenario shape."""
    out = tmp_path_factory.mktemp("crowded") / "scen"
    datagen.generate(datagen.ScenarioConfig(seed=1, duration_s=20, groups=(8, 8)), out)
    return out


class TestAudioReadPerInterval:
    """Audio is read a range at a time, never a whole recording. numpy
    reports its buffers to tracemalloc."""

    def test_loading_a_dataset_reads_no_audio(self, crowded_scenario):
        # The scenario's int16 audio alone is 16 x 20 s x 32 kB/s = 10 MB.
        load_dataset(crowded_scenario)  # first use of every reader out of the peak
        tracemalloc.start()
        try:
            dataset = load_dataset(crowded_scenario)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(dataset.audio) == 16
        assert peak < 1 << 20

    def test_noise_levels_hold_one_block_of_windows(self, tmp_path):
        # A 600 s recording: its float64 |x| is 77 MB, one block of windows
        # as int16 and as float64 is 10 bytes a sample.
        rate, seconds = 16000, 600
        samples = np.random.default_rng(3).integers(-3000, 3000, rate * seconds,
                                                    dtype=np.int16)
        write_wav(tmp_path / "d.wav", AudioSnippet(samples, rate, 0, "d"))
        (tmp_path / "manifest.json").write_text(
            '{"devices": [{"id": "d", "audio": {"path": "d.wav"}}]}')
        recording = load_dataset(tmp_path).audio["d"]
        del samples
        tracemalloc.start()
        try:
            levels = miettinen.noise_levels(recording, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(levels) == seconds
        output = 2 * seconds * 8  # times and means
        assert peak < miettinen._BLOCK_SAMPLES * (2 + 8) + 2 * output + (1 << 18)


def row_digest(row: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(row).tobytes()).hexdigest()


def test_schurmann_pipeline_matches_direct_calls(audio_dataset):
    fps = pipeline.schurmann_fingerprints(audio_dataset, 10)
    direct = schurmann.audio_fingerprint(audio_dataset.audio["a"].slice_ms(0, 10_000), 10)
    pipe_a0 = next(fp for fp in fps
                   if fp.device_id == "a" and fp.interval_start == 0)
    np.testing.assert_array_equal(pipe_a0.bits, direct.bits)


# One valid header and data row per table, with the reader that takes it.
TABLES = {
    "score": (lambda path: pipeline.read_score_csv(path, two_group_truth()),
              "pair_id,interval_start_ms,t,score,gated", "a|b,0,10,0.5,0"),
    "fingerprint": (pipeline.read_fingerprint_csv,
                    "device_id,interval_start_ms,t,hex_bits,n_bits", "a,0,10,a5,8"),
    "truong": (pipeline.read_truong_csv,
               ",".join(["pair_id", "interval_start_ms", "t", *truong.ALL_FEATURES,
                         "label"]),
               "a|b,0,10," + ",".join(["0.5"] * len(truong.ALL_FEATURES)) + ",colocated"),
    "shrestha": (pipeline.read_shrestha_csv,
                 "pair_id,timestamp_ms,d_temp,d_hum,d_alt,label,weight",
                 "a|b,0,0.1,,0.3,colocated,2"),
    "prediction": (pipeline.read_prediction_csv,
                   "pair_id,interval_start_ms,t,score,label", "a|b,0,10,0.5,colocated"),
}


@pytest.mark.parametrize("fault", ["ragged_row", "non_utf8"])
@pytest.mark.parametrize("table", sorted(TABLES))
def test_reader_rejects_bad_rows_with_parse_error(table, fault, tmp_path):
    read, header, row = TABLES[table]
    good = tmp_path / "good.csv"
    good.write_bytes(f"{header}\r\n{row}\r\n".encode())
    assert len(read(good)[0] if table == "fingerprint" else read(good)) == 1
    bad = tmp_path / "bad.csv"
    if fault == "ragged_row":
        bad.write_bytes(f"{header}\r\n{row}\r\n{row},extra\r\n".encode())
    else:
        bad.write_bytes(f"{header}\r\n{row}\r\n".encode() + b"\xff" + row.encode())
    with pytest.raises(ParseError) as info:
        read(bad)
    assert info.value.path == str(bad)
    assert info.value.line == 3


@pytest.mark.parametrize("row", ["a|b,0,10,0.5,1", "a|b,0,10,,0"])
def test_score_csv_rejects_gated_flag_that_disagrees_with_score(row, tmp_path):
    read, header, good = TABLES["score"]
    bad = tmp_path / "bad.csv"
    bad.write_bytes(f"{header}\r\n{good}\r\n{row}\r\n".encode())
    with pytest.raises(ParseError, match="gated") as info:
        read(bad)
    assert (info.value.path, info.value.line) == (str(bad), 3)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("table", ["score", "prediction"])
def test_score_column_rejects_non_finite_cells(table, cell, tmp_path):
    read, header, row = TABLES[table]
    bad = tmp_path / "bad.csv"
    bad.write_bytes(f"{header}\r\n{row}\r\n{row.replace(',0.5,', f',{cell},')}\r\n".encode())
    with pytest.raises(ParseError, match="non-finite") as info:
        read(bad)
    assert (info.value.path, info.value.line) == (str(bad), 3)


@pytest.mark.parametrize("cell,message", [
    ("a5,0", "at least 1 bit"), ("a5b6,8", "take 2 hex digits"), ("a,4", "take 2 hex digits"),
    ("a5,4", "pad bits"), ("a1,7", "pad bits"), (" a5 ,16", "take 4 hex digits"),
    ("zz,8", "non-hexadecimal")])
def test_fingerprint_row_needs_n_bits_in_exactly_its_hex_digits(cell, message, tmp_path):
    read, header, good = TABLES["fingerprint"]
    bad = tmp_path / "bad.csv"
    bad.write_bytes(f"{header}\r\n{good}\r\na,0,10,{cell}\r\n".encode())
    with pytest.raises(ParseError, match=message) as info:
        read(bad)
    assert (info.value.path, info.value.line) == (str(bad), 3)


# Every pipeline table reads back the rows it was written from. Device ids are
# the text that `load_dataset` accepts: UTF-8 encodable, without `|`.
DEVICE_IDS = st.text(st.characters(exclude_categories=("Cs",), exclude_characters="|"))
PAIRS = st.lists(DEVICE_IDS, min_size=2, max_size=2, unique=True)
FLOATS = st.none() | st.floats(allow_nan=False, allow_infinity=False)
TIMES = st.integers(-2 ** 40, 2 ** 40)
LENGTHS = st.integers(0, 10 ** 6)
LABELS = st.sampled_from(Label)
RECORDS = st.lists(st.builds(lambda pair, *rest: EvaluationRecord(*pair, *rest),
                             PAIRS, TIMES, LENGTHS, LABELS, FLOATS), max_size=8)


def _round_trip(write, read, rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        write(path, rows)
        return read(path)


@settings(max_examples=50, deadline=None)
@given(records=RECORDS)
def test_score_table_round_trips(records):
    # The table stores no label: the reader takes it from the ground truth.
    devices = tuple({d for r in records for d in (r.device_a, r.device_b)})
    truth = GroundTruth(groups=(Group("g", devices, ((-2 ** 50, 2 ** 50),)),))
    records = [replace(r, label=Label.COLOCATED) for r in records]
    assert _round_trip(pipeline.write_score_csv,
                       lambda path: pipeline.read_score_csv(path, truth), records) == records


@settings(max_examples=50, deadline=None)
@given(fps=st.lists(st.builds(lambda bits, *rest: Fingerprint(np.array(bits, dtype=np.uint8),
                                                                *rest),
                              st.lists(st.integers(0, 1), min_size=1, max_size=600),
                              DEVICE_IDS, TIMES), max_size=6),
       t=LENGTHS)
def test_fingerprint_table_round_trips(fps, t):
    back, spans = _round_trip(lambda path, rows: pipeline.write_fingerprint_csv(path, rows, t),
                              pipeline.read_fingerprint_csv, fps)
    assert [(fp.device_id, fp.interval_start, fp.bits.tolist()) for fp in back] == \
        [(fp.device_id, fp.interval_start, fp.bits.tolist()) for fp in fps]
    assert spans == [t] * len(fps)


@settings(max_examples=50, deadline=None)
@given(rows=st.lists(st.builds(lambda pair, *rest: truong.TruongFeatureVector(*pair, *rest),
                               PAIRS, TIMES, LENGTHS, *[FLOATS] * len(truong.ALL_FEATURES),
                               LABELS), max_size=6))
def test_truong_table_round_trips(rows):
    assert _round_trip(pipeline.write_truong_csv, pipeline.read_truong_csv, rows) == rows


@settings(max_examples=50, deadline=None)
@given(rows=st.lists(st.builds(lambda pair, *rest: shrestha.ShresthaFeatureVector(*pair, *rest),
                               PAIRS, TIMES, FLOATS, FLOATS, FLOATS, LABELS,
                               st.integers(1, 10 ** 6)), max_size=6))
def test_shrestha_table_round_trips(rows):
    assert _round_trip(pipeline.write_shrestha_csv, pipeline.read_shrestha_csv, rows) == rows


@settings(max_examples=50, deadline=None)
@given(records=RECORDS)
def test_prediction_table_round_trips(records):
    assert _round_trip(pipeline.write_prediction_csv, pipeline.read_prediction_csv,
                       records) == records

import io
import json
import struct
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import series_of, wav_bytes
from reference import read_wav
from ziskit.core.io import (
    load_dataset,
    open_wav,
    read_beacons_jsonl,
    read_ground_truth,
    read_sensor_csv,
    write_beacons_jsonl,
    write_ground_truth,
    write_sensor_csv,
    write_wav,
)
from ziskit.core.types import (
    RSSI_LIMIT_DBM,
    AudioSnippet,
    BeaconScan,
    Dataset,
    EvaluationRecord,
    GroundTruth,
    Group,
    Label,
    SensorKind,
    SensorSeries,
    Subscenario,
)
from ziskit.core.windowing import dataset_epoch, filter_subscenario, pmap, window_pairs
from ziskit.errors import InvariantViolation, MissingInput, NotFound, ParseError, ZisError


class TestTypeInvariants:
    def test_audio_rejects_bad_rate(self):
        with pytest.raises(InvariantViolation):
            AudioSnippet(np.zeros(4, dtype=np.int16), 0, 0, "d")

    def test_audio_rejects_out_of_range(self):
        with pytest.raises(InvariantViolation):
            AudioSnippet(np.array([40000]), 16000, 0, "d")

    def test_audio_slice_ms(self):
        snip = AudioSnippet(np.arange(100, dtype=np.int16), 1000, 0, "d")
        part = snip.slice_ms(10, 20)
        assert part.samples.tolist() == list(range(10, 20))
        assert part.start_time == 10

    def test_sensor_rejects_non_monotone(self):
        with pytest.raises(InvariantViolation):
            SensorSeries(SensorKind.TEMPERATURE, np.array([2, 1]),
                         np.array([1.0, 2.0]), "d")

    def test_sensor_accepts_timestamps_further_apart_than_int64(self):
        # 2**63 apart: a difference of the two would wrap.
        series = SensorSeries(SensorKind.TEMPERATURE, [-2 ** 62, 2 ** 62], [1.0, 2.0], "d")
        assert series.timestamps_ms.tolist() == [-2 ** 62, 2 ** 62]

    def test_sensor_rejects_negative_pressure(self):
        with pytest.raises(InvariantViolation):
            SensorSeries(SensorKind.PRESSURE, np.array([1]), np.array([-3.0]), "d")

    def test_sensor_rejects_humidity_out_of_range(self):
        with pytest.raises(InvariantViolation):
            SensorSeries(SensorKind.HUMIDITY, np.array([1]), np.array([105.0]), "d")

    def test_beacon_rejects_nan_rssi(self):
        with pytest.raises(InvariantViolation):
            BeaconScan("wifi", 0, {"x": float("nan")})

    @pytest.mark.parametrize("sign", [1, -1])
    def test_beacon_takes_rssi_up_to_the_limit_only(self, sign):
        BeaconScan("ble", 0, {"x": sign * RSSI_LIMIT_DBM})
        for rssi in (np.nextafter(RSSI_LIMIT_DBM, np.inf), 1e200, np.inf):
            with pytest.raises(InvariantViolation):
                BeaconScan("ble", 0, {"x": sign * float(rssi)})

    def test_ground_truth_rejects_double_membership(self):
        with pytest.raises(InvariantViolation):
            GroundTruth(groups=(
                Group("g0", ("a", "b"), ((0, 100),)),
                Group("g1", ("b", "c"), ((50, 150),)),
            ))

    def test_ground_truth_rejects_overlapping_subscenario(self):
        with pytest.raises(InvariantViolation):
            GroundTruth(groups=(), subscenarios=(
                Subscenario("s", ((0, 100), (50, 150))),))

    def test_ground_truth_accepts_touching_subscenario_ranges(self):
        gt = GroundTruth(groups=(), subscenarios=(
            Subscenario("s", ((10, 20), (0, 10))),))
        assert gt.subscenario("s").ranges == ((0, 20),)

    def test_ground_truth_rejects_subscenario_overlapping_by_one(self):
        with pytest.raises(InvariantViolation):
            GroundTruth(groups=(), subscenarios=(
                Subscenario("s", ((0, 10), (9, 20))),))


class TestLoadDataset:
    def test_empty_manifest_gives_empty_dataset(self, tmp_path):
        (tmp_path / "manifest.json").write_text("{}")
        dataset = load_dataset(tmp_path)
        assert dataset.device_ids() == []

    def test_decreasing_timestamps_rejected(self, tmp_path):
        path = tmp_path / "sensors.csv"
        path.write_text("timestamp_ms,value\n10,1.0\n5,2.0\n")
        with pytest.raises(InvariantViolation):
            read_sensor_csv(path, SensorKind.TEMPERATURE, "d")

    def test_missing_file(self, tmp_path):
        manifest = {"devices": [{"id": "d", "sensors": {"temperature": "nope.csv"}}]}
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(MissingInput):
            load_dataset(tmp_path)

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("timestamp_ms,value\n10,1.0\nbroken-row\n")
        with pytest.raises(ParseError) as err:
            read_sensor_csv(path, SensorKind.TEMPERATURE, "d")
        assert err.value.line == 3

    def test_sensor_csv_round_trip(self, tmp_path):
        series = series_of([1.25, -3.5, 7.0], kind=SensorKind.TEMPERATURE)
        path = tmp_path / "t.csv"
        write_sensor_csv(path, series)
        back = read_sensor_csv(path, SensorKind.TEMPERATURE, "dev")
        np.testing.assert_array_equal(back.values, series.values)
        np.testing.assert_array_equal(back.timestamps_ms, series.timestamps_ms)

    def test_datagen_round_trip_device_count(self, tmp_path):
        # Oracle: device count after load equals the generator config.
        from ziskit import datagen

        cfg = datagen.ScenarioConfig(seed=3, duration_s=10, groups=(2, 1))
        datagen.generate(cfg, tmp_path / "scen")
        dataset = load_dataset(tmp_path / "scen")
        assert len(dataset.device_ids()) == 3
        assert len(dataset.ground_truth.groups) == 2

    def test_malformed_beacon_line(self, tmp_path):
        path = tmp_path / "b.jsonl"
        path.write_text('{"t": 1, "kind": "wifi", "obs": []}\nnot-json\n')
        manifest = {"devices": [{"id": "d", "beacons": "b.jsonl"}]}
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ParseError) as err:
            load_dataset(tmp_path)
        assert err.value.line == 2


def _whole(path: Path, device: str = "d", start_ms: int = 0) -> np.ndarray:
    recording = open_wav(path, device, start_ms)
    return recording.read(0, recording.n_frames)


class TestWav:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(samples=arrays(np.int16, st.integers(0, 3001)),
           rate=st.sampled_from([8000, 16000, 44100]))
    @example(samples=np.array([], dtype=np.int16), rate=16000)
    @example(samples=np.array([-32768], dtype=np.int16), rate=8000)
    @example(samples=np.array([32767, -32768, 0, -1, 1], dtype=np.int16), rate=44100)
    def test_matches_scipy_and_round_trips(self, samples, rate, tmp_path):
        from scipy.io import wavfile

        path = tmp_path / "a.wav"
        write_wav(path, AudioSnippet(samples, rate, 0, "d"))
        oracle = io.BytesIO()
        wavfile.write(oracle, rate, samples)
        assert path.read_bytes() == oracle.getvalue()
        recording = open_wav(path, "d", 250)
        read = recording.read(0, recording.n_frames)
        scipy_rate, scipy_samples = wavfile.read(path)
        assert recording.rate_hz == scipy_rate == rate
        assert read.dtype == np.int16
        np.testing.assert_array_equal(read, scipy_samples)
        np.testing.assert_array_equal(read, samples)
        assert (recording.start_time, recording.device_id) == (250, "d")

    def test_chunks_before_fmt_are_skipped(self, tmp_path):
        from scipy.io import wavfile

        samples = np.arange(-50, 50, dtype=np.int16)
        path = tmp_path / "junk.wav"
        path.write_bytes(_wav_file(samples, 16000, junk_before_fmt=True))
        np.testing.assert_array_equal(_whole(path), samples)
        np.testing.assert_array_equal(wavfile.read(path)[1], samples)

    @pytest.mark.parametrize("kept_bytes", [500, 501])
    def test_short_data_chunk_reads_the_samples_present(self, kept_bytes, tmp_path):
        samples = np.arange(-500, 500, dtype=np.int16)
        path = tmp_path / "short.wav"
        path.write_bytes(_wav_file(samples, 16000, kept_bytes=kept_bytes))
        assert open_wav(path, "d", 0).n_frames == 250
        np.testing.assert_array_equal(_whole(path), samples[:250])


def _wav_file(samples: np.ndarray, rate: int, *, junk_before_fmt: bool = False,
              chunk_after_data: bool = False, kept_bytes: int | None = None,
              riff_shortfall: int = 0) -> bytes:
    """A WAV file of `samples`, with an odd-sized chunk (and its pad byte)
    before 'fmt ', a chunk after 'data', the file cut `kept_bytes` into the
    data chunk's payload, and a RIFF size `riff_shortfall` bytes short of
    the chunks, as asked."""
    body = wav_bytes(samples.astype("<i2").tobytes(), rate=rate)[8:]  # "WAVE" and the chunks
    if junk_before_fmt:
        body = body[:4] + b"JUNK" + struct.pack("<I", 3) + b"abc\0" + body[4:]
    if chunk_after_data:
        body += b"LIST" + struct.pack("<I", 5) + b"info\0\0"
    whole = b"RIFF" + struct.pack("<I", max(0, len(body) - riff_shortfall)) + body
    if kept_bytes is None:
        return whole
    payload = 12 + 12 * junk_before_fmt + 24 + 8  # RIFF header, JUNK, 'fmt ', 'data' header
    return whole[:payload + kept_bytes]


class TestWavRecording:
    """`open_wav`'s reader against the whole-file `reference.read_wav`."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(samples=arrays(np.int16, st.integers(0, 1200)),
           rate=st.sampled_from([8000, 16000, 44100]),
           start_ms=st.integers(-2 ** 40, 2 ** 40),
           junk_before_fmt=st.booleans(), chunk_after_data=st.booleans(),
           kept_bytes=st.sampled_from([None, 0, 1, 500, 501]),
           riff_shortfall=st.sampled_from([0, 0, 0, 1, 2, 301]),
           ranges=st.lists(st.tuples(st.integers(-300, 300), st.integers(0, 400)),
                           min_size=1, max_size=6))
    @example(samples=np.arange(-500, 500, dtype=np.int16), rate=16000, start_ms=0,
             junk_before_fmt=True, chunk_after_data=True, kept_bytes=501, riff_shortfall=0,
             ranges=[(-10, 5), (3, 10), (10, 30), (-5, 100)])
    def test_slices_equal_the_whole_file_reference(self, samples, rate, start_ms,
                                                   junk_before_fmt, chunk_after_data,
                                                   kept_bytes, riff_shortfall, ranges,
                                                   tmp_path):
        """Ranges before, inside, across and past the recording, given as
        (offset from its start, length) in milliseconds. A header the
        reference refuses is refused."""
        path = tmp_path / "a.wav"
        path.write_bytes(_wav_file(samples, rate, junk_before_fmt=junk_before_fmt,
                                   chunk_after_data=chunk_after_data, kept_bytes=kept_bytes,
                                   riff_shortfall=riff_shortfall))
        try:
            oracle = read_wav(path, "d", start_ms)
        except ParseError:
            with pytest.raises(ParseError):
                open_wav(path, "d", start_ms)
            return
        recording = open_wav(path, "d", start_ms)
        assert recording.n_frames == oracle.samples.size
        assert recording.end_time == oracle.end_time
        assert Dataset(audio={"d": recording}).device_span("d") \
            == Dataset(audio={"d": oracle}).device_span("d")
        for offset, length in ranges:
            lo = start_ms + offset
            got, want = recording.slice_ms(lo, lo + length), oracle.slice_ms(lo, lo + length)
            assert got.samples.dtype == want.samples.dtype == np.int16
            assert got.samples.tobytes() == want.samples.tobytes()
            assert (got.rate_hz, got.start_time, got.device_id) \
                == (want.rate_hz, want.start_time, want.device_id)

    def test_threads_read_distinct_intervals_of_one_file(self, tmp_path, monkeypatch):
        """Eight pmap workers, switching threads every microsecond, each read on
        their own handle."""
        samples = np.random.default_rng(5).integers(-30000, 30000, 8 * 16000, dtype=np.int16)
        path = tmp_path / "a.wav"
        write_wav(path, AudioSnippet(samples, 16000, 0, "d"))
        recording, oracle = open_wav(path, "d", 1000), read_wav(path, "d", 1000)
        jobs = [(1000 + 250 * k, 1000 + 250 * k + 700) for k in range(29)] * 4
        monkeypatch.setenv("ZIS_THREADS", "8")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = pmap(lambda job: recording.slice_ms(*job).samples.tobytes(), jobs)
        finally:
            sys.setswitchinterval(interval)
        assert got == [oracle.slice_ms(*job).samples.tobytes() for job in jobs]

    def test_file_cut_after_loading_is_a_parse_error_naming_it(self, tmp_path):
        path = tmp_path / "a.wav"
        write_wav(path, AudioSnippet(np.arange(1000, dtype=np.int16), 1000, 0, "d"))
        recording = open_wav(path, "d", 0)
        with open(path, "r+b") as fh:
            fh.truncate(path.stat().st_size - 3)
        assert recording.slice_ms(0, 998).samples.tolist() == list(range(998))
        with pytest.raises(ParseError) as err:
            recording.slice_ms(500, 1000)
        assert err.value.path == str(path)


def _sensor_dataset(gt: GroundTruth, devices: list[str], n: int = 20,
                    step_ms: int = 1000) -> Dataset:
    sensors = {
        d: {SensorKind.TEMPERATURE: series_of(np.linspace(20, 21, n),
                                              kind=SensorKind.TEMPERATURE,
                                              step_ms=step_ms, device=d)}
        for d in devices
    }
    return Dataset(sensors=sensors, ground_truth=gt)


class TestWindowPairs:
    def test_two_devices_one_group(self):
        gt = GroundTruth(groups=(Group("g", ("a", "b"), ((0, 100_000),)),))
        dataset = _sensor_dataset(gt, ["a", "b"], n=11)  # spans 0..10000 ms
        pairs = window_pairs(dataset, 5)
        assert len(pairs) == 2
        assert all(p.label is Label.COLOCATED for p in pairs)

    def test_three_devices_two_groups(self):
        gt = GroundTruth(groups=(
            Group("g0", ("a", "b"), ((0, 100_000),)),
            Group("g1", ("c",), ((0, 100_000),)),
        ))
        dataset = _sensor_dataset(gt, ["a", "b", "c"], n=6)
        pairs = window_pairs(dataset, 5)
        per_interval = {}
        for p in pairs:
            per_interval.setdefault(p.interval_start, []).append(p.label)
        for labels in per_interval.values():
            assert labels.count(Label.COLOCATED) == 1
            assert labels.count(Label.NON_COLOCATED) == 2

    def test_mid_interval_group_change_dropped(self):
        # Oracle: brute-force the label from the raw ranges.
        gt = GroundTruth(groups=(
            Group("g0", ("a", "b"), ((0, 7_000),)),
            Group("g1", ("b",), ((7_000, 100_000),)),
            Group("g2", ("a",), ((7_000, 100_000),)),
        ))
        dataset = _sensor_dataset(gt, ["a", "b"], n=11)
        pairs = window_pairs(dataset, 5)
        starts = {p.interval_start: p for p in pairs}
        assert 0 in starts and starts[0].label is Label.COLOCATED
        # interval [5000, 10000) straddles the change and must be dropped
        assert 5000 not in starts

    def test_label_symmetry(self):
        gt = GroundTruth(groups=(
            Group("g0", ("a", "b"), ((0, 50_000),)),
            Group("g1", ("c",), ((0, 50_000),)),
        ))
        for x, y in [("a", "b"), ("a", "c"), ("b", "c")]:
            assert gt.label_for(x, y, 0, 5000) == gt.label_for(y, x, 0, 5000)

    def test_windowing_total_grid(self):
        gt = GroundTruth(groups=(Group("g", ("a", "b"), ((0, 10 ** 9),)),))
        dataset = _sensor_dataset(gt, ["a", "b"], n=60)
        epoch, end = dataset_epoch(dataset)
        pairs = window_pairs(dataset, 7)
        starts = sorted({p.interval_start for p in pairs})
        assert starts == [epoch + 7000 * k for k in range(len(starts))]
        assert starts[-1] + 7000 <= end < starts[-1] + 14000

    def test_ungrouped_device_dropped(self):
        gt = GroundTruth(groups=(Group("g", ("a", "b"), ((0, 100_000),)),))
        dataset = _sensor_dataset(gt, ["a", "b", "x"], n=11)
        pairs = window_pairs(dataset, 5)
        assert all("x" not in (p.device_a, p.device_b) for p in pairs)


class TestFilterSubscenario:
    def _records(self, n=10, t=5):
        return [EvaluationRecord("a", "b", k * t * 1000, t, Label.COLOCATED, 0.5)
                for k in range(n)]

    def test_full_range_is_identity(self):
        gt = GroundTruth(groups=(), subscenarios=(
            Subscenario("all", ((0, 10 ** 9),)),))
        records = self._records()
        assert filter_subscenario(records, gt, "all") == records

    def test_disjoint_is_empty(self):
        gt = GroundTruth(groups=(), subscenarios=(
            Subscenario("later", ((10 ** 8, 2 * 10 ** 8),)),))
        assert filter_subscenario(self._records(), gt, "later") == []

    def test_half_covering_matches_linear_scan(self):
        gt = GroundTruth(groups=(), subscenarios=(
            Subscenario("half", ((0, 26_000),)),))
        records = self._records()
        kept = filter_subscenario(records, gt, "half")
        # Oracle: scan every record against the range by hand.
        expected = [r for r in records
                    if 0 <= r.interval_start and r.interval_start + 5000 <= 26_000]
        assert kept == expected
        assert len(kept) == 5

    def test_unknown_name(self):
        gt = GroundTruth(groups=())
        with pytest.raises(NotFound):
            filter_subscenario(self._records(), gt, "nope")

    def test_full_range_compose_with_window_pairs(self):
        gt = GroundTruth(
            groups=(Group("g", ("a", "b"), ((0, 100_000),)),),
            subscenarios=(Subscenario("everything", ((0, 10 ** 9),)),))
        dataset = _sensor_dataset(gt, ["a", "b"], n=21)
        pairs = window_pairs(dataset, 5)
        assert filter_subscenario(pairs, gt, "everything") == pairs


def test_fingerprint_hex_round_trip(rng):
    from ziskit.core.types import Fingerprint

    bits = rng.integers(0, 2, size=496).astype(np.uint8)
    fp = Fingerprint(bits, "d", 0)
    back = Fingerprint.from_hex(fp.to_hex(), 496, "d", 0)
    np.testing.assert_array_equal(back.bits, bits)
    assert len(fp.to_hex()) == 124  # 62 bytes


def test_ground_truth_json_round_trip(tmp_path):
    gt = GroundTruth(
        groups=(Group("g0", ("a", "b"), ((0, 50), (60, 100))),),
        subscenarios=(Subscenario("s", ((0, 30),)),))
    path = tmp_path / "gt.json"
    write_ground_truth(path, gt)
    back = read_ground_truth(path)
    assert back == gt
    json.loads(path.read_text())  # stays valid JSON


def _rewrite(write, read, value) -> tuple[bytes, bytes, object]:
    """Bytes of `value` written, of what reading them back writes, and that value."""
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "first", Path(tmp) / "second"
        write(first, value)
        back = read(first)
        write(second, back)
        return first.read_bytes(), second.read_bytes(), back


TIMES_MS = st.integers(-2 ** 40, 2 ** 40)
RANGES = st.lists(st.tuples(TIMES_MS, st.integers(1, 2 ** 30)).map(lambda r: (r[0], r[0] + r[1])),
                  min_size=1, max_size=4)


@st.composite
def ground_truths(draw) -> GroundTruth:
    # Groups share no member, so no device is in two groups at once; the
    # subscenario ranges of one name only touch, never overlap.
    devices = draw(st.lists(st.text(max_size=6), max_size=8, unique=True))
    cuts = sorted(draw(st.sets(st.integers(0, len(devices)), max_size=3)) | {0, len(devices)})
    groups = tuple(Group(draw(st.text(max_size=6)), tuple(devices[a:b]), tuple(draw(RANGES)))
                   for a, b in zip(cuts, cuts[1:]))
    names = draw(st.lists(st.text(max_size=6).filter(lambda n: n != "full"),
                          max_size=3, unique=True))
    subs = []
    for name in names:
        edges = sorted(draw(st.sets(TIMES_MS, min_size=2, max_size=7)))
        step = draw(st.sampled_from([1, 2]))
        subs.append(Subscenario(name, tuple(zip(edges[:-1:step], edges[1::step]))))
    return GroundTruth(groups=groups, subscenarios=tuple(subs))


@settings(max_examples=100, deadline=None)
@given(gt=ground_truths())
def test_ground_truth_json_rewrites_identically(gt):
    first, second, back = _rewrite(write_ground_truth, read_ground_truth, gt)
    assert second == first
    assert back == gt


# Any JSON value; json.dumps writes NaN and the infinities as NaN and Infinity.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=12)
# Ground-truth documents, with any JSON value in place of any of their parts.
DOC_NAMES = st.text(max_size=4) | JSON_VALUES
DOC_RANGES = st.lists(st.lists(st.integers(-2 ** 70, 2 ** 70) | JSON_VALUES, max_size=3)
                      | JSON_VALUES, max_size=3) | JSON_VALUES
DOC_GROUPS = st.fixed_dictionaries({}, optional={
    "id": DOC_NAMES, "members": st.lists(DOC_NAMES, max_size=3) | JSON_VALUES,
    "ranges": DOC_RANGES})
DOC_SUBSCENARIOS = st.fixed_dictionaries({}, optional={"name": DOC_NAMES, "ranges": DOC_RANGES})
GROUND_TRUTH_DOCS = JSON_VALUES | st.fixed_dictionaries({}, optional={
    "groups": st.lists(DOC_GROUPS | JSON_VALUES, max_size=3) | JSON_VALUES,
    "subscenarios": st.lists(DOC_SUBSCENARIOS | JSON_VALUES, max_size=3) | JSON_VALUES})


@settings(max_examples=300, deadline=None)
@given(text=GROUND_TRUTH_DOCS.map(json.dumps))
@example(text="[]")
@example(text='{"subscenarios": [{"name": {}, "ranges": []}]}')
@example(text='{"groups": [{"id": "g", "members": "g0d0", "ranges": [[0, 10]]}]}')
@example(text='{"groups": [{"id": "g", "members": ["a"], "ranges": [[0, 1e400]]}]}')
@example(text='{"subscenarios": [{"name": "s", "ranges": [[0, Infinity]]}]}')
@example(text="[" * 100_000)  # nested beyond what the decoder recurses into
def test_any_ground_truth_document_reads_or_raises_zis_error(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ground_truth.json"
        path.write_text(text, encoding="utf-8")
        try:
            gt = read_ground_truth(path)
        except ZisError:
            return
        assert isinstance(gt, GroundTruth)
        assert all(isinstance(m, str) for g in gt.groups for m in g.members)


SCANS = st.lists(st.builds(
    BeaconScan, kind=st.sampled_from(["wifi", "ble"]), time=TIMES_MS,
    observations=st.dictionaries(st.text(max_size=8),
                                 st.floats(-RSSI_LIMIT_DBM, RSSI_LIMIT_DBM), max_size=5)),
    max_size=6)


@settings(max_examples=100, deadline=None)
@given(scans=SCANS)
def test_beacon_jsonl_rewrites_identically(scans):
    first, second, back = _rewrite(write_beacons_jsonl, read_beacons_jsonl, scans)
    assert second == first
    assert back == scans


# Range algebra of GroundTruth: a timeline of 96 ticks of 250 ms, records of
# t = 1 s on a 1 s grid, and four devices, "x" never grouped.
TICK_MS, SPAN_TICKS = 250, 96
RANGE_DEVICES = ("a", "b", "c", "x")
TICK_RANGES = st.lists(st.tuples(st.integers(0, SPAN_TICKS - 1), st.integers(1, 40)).map(
    lambda r: (r[0] * TICK_MS, min(r[0] + r[1], SPAN_TICKS) * TICK_MS)), min_size=1, max_size=4)
# Every record, and every window label_for is asked about: 1 s on the grid,
# and windows of any tick length that straddle range edges.
GRID_RECORDS = [EvaluationRecord(a, b, start, 1, Label.COLOCATED)
                for start in range(0, SPAN_TICKS * TICK_MS - 999, 1000)
                for i, a in enumerate(RANGE_DEVICES) for b in RANGE_DEVICES[i + 1:]]
WINDOWS = [(start * TICK_MS, (start + length) * TICK_MS)
           for start in range(0, SPAN_TICKS, 5) for length in (1, 3, 4, 8, 13)
           if start + length <= SPAN_TICKS]


@st.composite
def split_ranges(draw, ranges: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """`ranges` with each range cut into touching pieces at drawn tick edges."""
    pieces = []
    for s, e in ranges:
        inner = range(s // TICK_MS + 1, e // TICK_MS)
        cuts = sorted(draw(st.sets(st.sampled_from(inner), max_size=3)) if inner else ())
        edges = [s, *(c * TICK_MS for c in cuts), e]
        pieces += list(zip(edges, edges[1:]))
    return draw(st.permutations(pieces))


@st.composite
def group_splits(draw) -> tuple[GroundTruth, GroundTruth]:
    """Ground truth whose groups share no member, and the same with every group
    range cut into touching pieces."""
    members = draw(st.lists(st.sampled_from([0, 1, None]), min_size=3, max_size=3))
    groups = [(f"g{k}", tuple(d for d, m in zip("abc", members) if m == k), draw(TICK_RANGES))
              for k in (0, 1)]
    return (GroundTruth(groups=tuple(Group(*g) for g in groups)),
            GroundTruth(groups=tuple(Group(g, m, tuple(draw(split_ranges(r))))
                                     for g, m, r in groups)))


@settings(max_examples=60, deadline=None)
@given(truths=group_splits())
def test_splitting_group_ranges_keeps_every_label(truths):
    whole, split = truths
    for a, b in ((a, b) for i, a in enumerate(RANGE_DEVICES) for b in RANGE_DEVICES[i + 1:]):
        for start, end in WINDOWS:
            assert split.label_for(a, b, start, end) == whole.label_for(a, b, start, end)


def _tick_runs(ranges: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """The ticks that `ranges` cover, as ranges that neither overlap nor touch."""
    runs: list[tuple[int, int]] = []
    for k in sorted({k for s, e in ranges for k in range(s // TICK_MS, e // TICK_MS)}):
        if runs and runs[-1][1] == k * TICK_MS:
            runs[-1] = (runs[-1][0], (k + 1) * TICK_MS)
        else:
            runs.append((k * TICK_MS, (k + 1) * TICK_MS))
    return runs


@settings(max_examples=60, deadline=None)
@given(data=st.data(), ranges=TICK_RANGES.map(_tick_runs))
def test_splitting_subscenario_ranges_keeps_its_records(data, ranges):
    whole = GroundTruth(groups=(), subscenarios=(Subscenario("s", tuple(ranges)),))
    pieces = data.draw(split_ranges(ranges))
    split = GroundTruth(groups=(), subscenarios=(Subscenario("s", tuple(pieces)),))
    assert filter_subscenario(GRID_RECORDS, split, "s") \
        == filter_subscenario(GRID_RECORDS, whole, "s")


@settings(max_examples=60, deadline=None)
@given(ranges=TICK_RANGES.map(_tick_runs),
       cut=st.integers(0, SPAN_TICKS * TICK_MS // 1000))
def test_halves_of_a_split_subscenario_partition_its_records(ranges, cut):
    # Cut on the records' 1 s grid, no record straddles the cut.
    cut_ms = cut * 1000
    halves = {"first": [(s, min(e, cut_ms)) for s, e in ranges if s < cut_ms],
              "second": [(max(s, cut_ms), e) for s, e in ranges if e > cut_ms]}
    gt = GroundTruth(groups=(), subscenarios=(
        Subscenario("s", tuple(ranges)),
        *(Subscenario(name, tuple(r)) for name, r in halves.items())))
    kept = filter_subscenario(GRID_RECORDS, gt, "s")
    first, second = (filter_subscenario(GRID_RECORDS, gt, name) for name in halves)
    assert not set(first) & set(second)
    assert sorted(first + second, key=GRID_RECORDS.index) == kept


FINITE = st.floats(allow_nan=False, allow_infinity=False)
# Every kind's readings within its invariants.
SENSOR_VALUES = {
    SensorKind.TEMPERATURE: FINITE,
    SensorKind.NOISE: FINITE,
    SensorKind.PRESSURE: st.floats(0.0, exclude_min=True, allow_infinity=False),
    SensorKind.HUMIDITY: st.floats(0.0, 100.0),
    SensorKind.LUMINOSITY: st.floats(0.0, allow_infinity=False),
}


@st.composite
def sensor_series(draw) -> SensorSeries:
    kind = draw(st.sampled_from(SensorKind))
    times = sorted(draw(st.sets(st.integers(-2 ** 63, 2 ** 63 - 1), max_size=8)))
    values = draw(st.lists(SENSOR_VALUES[kind], min_size=len(times), max_size=len(times)))
    return SensorSeries(kind, np.array(times, dtype=np.int64), np.array(values), "d")


@settings(max_examples=200, deadline=None)
@given(series=sensor_series())
def test_sensor_csv_rewrites_identically(series):
    first, second, back = _rewrite(write_sensor_csv,
                                   lambda path: read_sensor_csv(path, series.kind, "d"), series)
    assert second == first
    assert back.kind is series.kind
    np.testing.assert_array_equal(back.timestamps_ms, series.timestamps_ms)
    np.testing.assert_array_equal(back.values, series.values)
    assert np.signbit(back.values).tolist() == np.signbit(series.values).tolist()


OUTSIDE_INT64 = st.one_of(st.integers(max_value=-2 ** 63 - 1), st.integers(min_value=2 ** 63))


@settings(max_examples=100, deadline=None)
@given(series=sensor_series(), timestamp=OUTSIDE_INT64, data=st.data())
def test_sensor_csv_timestamp_outside_int64_is_a_parse_error(series, timestamp, data):
    # One row of an otherwise valid file holds a timestamp int64 cannot.
    row = data.draw(st.integers(0, len(series)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sensor.csv"
        write_sensor_csv(path, series)
        lines = path.read_bytes().split(b"\n")
        lines.insert(row + 1, f"{timestamp},1.0".encode())
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(ParseError, match="does not fit int64") as err:
            read_sensor_csv(path, series.kind, "d")
    assert (err.value.path, err.value.line) == (str(path), row + 2)

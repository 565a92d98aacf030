import json

import numpy as np
import pytest

from conftest import series_of
from ziskit.core.io import load_dataset, read_sensor_csv, write_sensor_csv
from ziskit.core.types import (
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
from ziskit.core.windowing import dataset_epoch, filter_subscenario, window_pairs
from ziskit.errors import InvariantViolation, MissingInput, NotFound, ParseError


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

    def test_sensor_rejects_negative_pressure(self):
        with pytest.raises(InvariantViolation):
            SensorSeries(SensorKind.PRESSURE, np.array([1]), np.array([-3.0]), "d")

    def test_sensor_rejects_humidity_out_of_range(self):
        with pytest.raises(InvariantViolation):
            SensorSeries(SensorKind.HUMIDITY, np.array([1]), np.array([105.0]), "d")

    def test_beacon_rejects_nan_rssi(self):
        with pytest.raises(InvariantViolation):
            BeaconScan("wifi", 0, {"x": float("nan")}, "d")

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
        dataset = load_dataset(tmp_path, manifest={})
        assert dataset.device_ids() == []

    def test_decreasing_timestamps_rejected(self, tmp_path):
        path = tmp_path / "sensors.csv"
        path.write_text("timestamp_ms,value\n10,1.0\n5,2.0\n")
        with pytest.raises(InvariantViolation):
            read_sensor_csv(path, SensorKind.TEMPERATURE, "d")

    def test_missing_file(self, tmp_path):
        manifest = {"devices": [{"id": "d", "sensors": {"temperature": "nope.csv"}}]}
        with pytest.raises(MissingInput):
            load_dataset(tmp_path, manifest)

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

        cfg = datagen.ScenarioConfig(seed=3, duration_s=10, groups=(
            datagen.GroupSpec(2), datagen.GroupSpec(1)))
        datagen.generate(cfg, tmp_path / "scen")
        dataset = load_dataset(tmp_path / "scen")
        assert len(dataset.device_ids()) == 3
        assert len(dataset.ground_truth.groups) == 2

    def test_malformed_beacon_line(self, tmp_path):
        path = tmp_path / "b.jsonl"
        path.write_text('{"t": 1, "kind": "wifi", "obs": []}\nnot-json\n')
        manifest = {"devices": [{"id": "d", "beacons": "b.jsonl"}]}
        with pytest.raises(ParseError) as err:
            load_dataset(tmp_path, manifest)
        assert err.value.line == 2


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
    from ziskit.core.io import read_ground_truth, write_ground_truth

    gt = GroundTruth(
        groups=(Group("g0", ("a", "b"), ((0, 50), (60, 100))),),
        subscenarios=(Subscenario("s", ((0, 30),)),))
    path = tmp_path / "gt.json"
    write_ground_truth(path, gt)
    back = read_ground_truth(path)
    assert back == gt
    json.loads(path.read_text())  # stays valid JSON

import numpy as np
import pytest
from mpmath import mp, mpf

from conftest import series_of, two_group_truth
from ziskit import pipeline
from ziskit.core.types import Dataset, Label, SensorKind
from ziskit.errors import InvalidPressure
from ziskit.schemes import shrestha


class TestPressureToAltitude:
    def test_reference_pressure_is_zero(self):
        assert shrestha.pressure_to_altitude(1013.25) == pytest.approx(0.0, abs=1e-9)

    def test_900_hpa_matches_high_precision_oracle(self):
        # Oracle: 50-digit evaluation of the conversion formula.
        mp.dps = 50
        expected = (1 - (mpf(900) / mpf("1013.25")) ** mpf("0.190284")) \
            * mpf("145366.45") * mpf("0.3048")
        assert shrestha.pressure_to_altitude(900.0) == pytest.approx(
            float(expected), rel=1e-12)

    def test_strictly_decreasing(self):
        grid = np.linspace(300.0, 1100.0, 1000)
        alts = [shrestha.pressure_to_altitude(float(p)) for p in grid]
        assert all(a > b for a, b in zip(alts, alts[1:]))

    def test_monotone_spot_check(self):
        assert shrestha.pressure_to_altitude(900.0) > shrestha.pressure_to_altitude(1000.0)

    def test_invalid_pressure(self):
        with pytest.raises(InvalidPressure):
            shrestha.pressure_to_altitude(0.0)
        with pytest.raises(InvalidPressure):
            shrestha.pressure_to_altitude(-5.0)


class TestDifferenceFeatures:
    def test_identical_samples(self):
        t = shrestha.SampleTriple(22.0, 40.0, 1000.0)
        row = shrestha.difference_features(t, t, Label.COLOCATED)
        assert (row.d_temperature, row.d_humidity, row.d_altitude) == (0.0, 0.0, 0.0)

    def test_hand_differences(self):
        a = shrestha.SampleTriple(22.5, 40.0, 1000.0)
        b = shrestha.SampleTriple(20.0, 45.0, 1000.0)
        row = shrestha.difference_features(a, b, Label.COLOCATED)
        assert row.d_temperature == pytest.approx(2.5)
        assert row.d_humidity == pytest.approx(5.0)
        assert row.d_altitude == pytest.approx(0.0)

    def test_missing_humidity_slot(self):
        a = shrestha.SampleTriple(22.5, None, 1000.0)
        b = shrestha.SampleTriple(20.0, 45.0, 1000.0)
        row = shrestha.difference_features(a, b, Label.NON_COLOCATED)
        assert row.d_humidity is None
        assert row.d_temperature == pytest.approx(2.5)
        assert row.d_altitude == pytest.approx(0.0)

    def test_symmetry_and_triangle_bound(self, rng):
        for _ in range(30):
            temps = rng.uniform(10, 30, size=3)
            a = shrestha.SampleTriple(float(temps[0]), 40.0, 1000.0)
            b = shrestha.SampleTriple(float(temps[1]), 40.0, 1000.0)
            c = shrestha.SampleTriple(float(temps[2]), 40.0, 1000.0)
            ab = shrestha.difference_features(a, b, Label.COLOCATED).d_temperature
            ba = shrestha.difference_features(b, a, Label.COLOCATED).d_temperature
            ac = shrestha.difference_features(a, c, Label.COLOCATED).d_temperature
            cb = shrestha.difference_features(c, b, Label.COLOCATED).d_temperature
            assert ab == ba >= 0
            assert ab <= ac + cb + 1e-12


def make_row(d_t, d_h, d_a, label=Label.COLOCATED, weight=1):
    return shrestha.ShresthaFeatureVector("a", "b", 0, d_t, d_h, d_a, label, weight)


class TestCompression:
    def test_three_identical_rows_collapse(self):
        rows = [make_row(1.0, 2.0, 3.0)] * 3
        out = shrestha.compress_instances(rows)
        assert len(out) == 1
        assert out[0].weight == 3

    def test_distinct_rows_keep_weight_one(self):
        rows = [make_row(float(i), 0.0, 0.0) for i in range(5)]
        out = shrestha.compress_instances(rows)
        assert [r.weight for r in out] == [1] * 5

    def test_weight_sum_preserved(self, rng):
        rows = [make_row(float(rng.integers(0, 3)), float(rng.integers(0, 2)), 0.0,
                         Label.COLOCATED if rng.random() < 0.5 else Label.NON_COLOCATED)
                for _ in range(200)]
        out = shrestha.compress_instances(rows)
        assert sum(r.weight for r in out) == 200
        assert len(out) < 200

    def test_lossless_round_trip_on_quantized_rows(self, rng):
        rows = [make_row(round(float(rng.uniform(0, 2)), 4),
                         round(float(rng.uniform(0, 10)), 4),
                         round(float(rng.uniform(0, 50)), 4),
                         Label.COLOCATED if rng.random() < 0.5 else Label.NON_COLOCATED)
                for _ in range(500)]
        expanded = shrestha.expand_instances(shrestha.compress_instances(rows))

        def key(row):
            return (row.d_temperature, row.d_humidity, row.d_altitude, row.label)

        assert sorted(map(key, expanded)) == sorted(map(key, rows))

    def test_labels_not_merged(self):
        rows = [make_row(1.0, 1.0, 1.0, Label.COLOCATED),
                make_row(1.0, 1.0, 1.0, Label.NON_COLOCATED)]
        out = shrestha.compress_instances(rows)
        assert len(out) == 2

    def test_none_slots_group_together(self):
        rows = [make_row(1.0, None, 2.0)] * 4
        out = shrestha.compress_instances(rows)
        assert len(out) == 1 and out[0].weight == 4 and out[0].d_humidity is None


class TestAmbiguity:
    def test_no_duplicates_zero(self):
        rows = [make_row(float(i), 0.0, 0.0) for i in range(10)]
        assert shrestha.ambiguity_fraction(rows) == 0.0

    def test_everything_ambiguous(self):
        rows = [make_row(1.0, 1.0, 1.0, Label.COLOCATED),
                make_row(1.0, 1.0, 1.0, Label.NON_COLOCATED)] * 3
        assert shrestha.ambiguity_fraction(rows) == 1.0

    def test_hand_corpus_fraction(self):
        rows = [make_row(float(i), 0.0, 0.0, Label.COLOCATED) for i in range(8)]
        rows += [make_row(0.0, 0.0, 0.0, Label.NON_COLOCATED),
                 make_row(99.0, 0.0, 0.0, Label.NON_COLOCATED)]
        # feature value 0.0 appears under both labels: 2 of 10 rows
        assert shrestha.ambiguity_fraction(rows) == pytest.approx(0.2)

    def test_weighted_fraction(self):
        rows = [make_row(1.0, 0.0, 0.0, Label.COLOCATED, weight=3),
                make_row(1.0, 0.0, 0.0, Label.NON_COLOCATED, weight=1),
                make_row(2.0, 0.0, 0.0, Label.COLOCATED, weight=4)]
        assert shrestha.ambiguity_fraction(rows) == pytest.approx(0.5)

    def test_lower_bounds_twice_optimal_error(self, rng):
        # Oracle: the best fixed labeling per feature value errs on the
        # minority label of each group.
        for _ in range(20):
            rows = [make_row(float(rng.integers(0, 4)), 0.0, 0.0,
                             Label.COLOCATED if rng.random() < 0.5
                             else Label.NON_COLOCATED)
                    for _ in range(40)]
            groups: dict = {}
            for row in rows:
                groups.setdefault(row.feature_key(), []).append(row.label)
            optimal_errors = sum(
                min(labels.count(Label.COLOCATED), labels.count(Label.NON_COLOCATED))
                for labels in groups.values())
            assert shrestha.ambiguity_fraction(rows) >= 2 * optimal_errors / len(rows) - 1e-12


class TestBuildDataset:
    def _dataset(self):
        gt = two_group_truth()
        sensors = {}
        temps = {"a": 22.0, "b": 22.3, "c": 25.0, "d": 25.2}
        for dev, base in temps.items():
            sensors[dev] = {
                SensorKind.TEMPERATURE: series_of([base, base + 0.1, base],
                                                  kind=SensorKind.TEMPERATURE,
                                                  device=dev),
                SensorKind.PRESSURE: series_of([1000.0, 1000.0, 1000.0],
                                               kind=SensorKind.PRESSURE, device=dev),
            }
        # humidity only on a and c
        for dev in ("a", "c"):
            sensors[dev][SensorKind.HUMIDITY] = series_of(
                [40.0, 41.0, 40.5], kind=SensorKind.HUMIDITY, device=dev)
        return Dataset(sensors=sensors, ground_truth=gt)

    def test_rows_per_pair_per_anchor(self):
        rows = shrestha.build_dataset(self._dataset())
        # 6 pairs x 3 anchor times
        assert len(rows) == 18
        labels = {(r.device_a, r.device_b): r.label for r in rows}
        assert labels[("a", "b")] is Label.COLOCATED
        assert labels[("a", "c")] is Label.NON_COLOCATED

    def test_humidity_missing_when_either_side_lacks_it(self):
        rows = shrestha.build_dataset(self._dataset())
        for row in rows:
            has_hum = {"a", "c"} >= {row.device_a, row.device_b}
            assert (row.d_humidity is not None) == has_hum

    def test_time_matching_within_tolerance(self):
        gt = two_group_truth()
        sensors = {
            "a": {SensorKind.TEMPERATURE: series_of([20.0, 21.0],
                                                    kind=SensorKind.TEMPERATURE,
                                                    step_ms=5000, device="a")},
            # b's second reading is 1.4 s away from a's anchor: no match
            "b": {SensorKind.TEMPERATURE: series_of([20.5, 24.0],
                                                    kind=SensorKind.TEMPERATURE,
                                                    step_ms=6400, device="b")},
        }
        dataset = Dataset(sensors=sensors, ground_truth=gt)
        rows = shrestha.build_dataset(dataset)
        by_time = {r.timestamp_ms: r for r in rows}
        assert by_time[0].d_temperature == pytest.approx(0.5)
        assert 5000 not in by_time  # nearest b reading is 1400 ms away

    def test_ml_arrays_weights(self):
        rows = [make_row(1.0, 2.0, 3.0, weight=5), make_row(2.0, None, 1.0)]
        data, _ = pipeline.ml_table(rows)
        X, y, w, names = data.X, data.y, data.weights, data.feature_names
        assert X.shape == (2, 3)
        assert np.isnan(X[1, 1])
        assert w.tolist() == [5.0, 1.0]
        assert names == shrestha.FEATURE_NAMES

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from conftest import series_of, two_group_truth
from reference import SampleTriple, build_dataset_per_anchor, difference_features, expand_instances
from ziskit import pipeline
from ziskit.core.types import Dataset, GroundTruth, Group, Label, SensorKind, SensorSeries
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
        t = SampleTriple(22.0, 40.0, 1000.0)
        row = difference_features(t, t, Label.COLOCATED)
        assert (row.d_temperature, row.d_humidity, row.d_altitude) == (0.0, 0.0, 0.0)

    def test_hand_differences(self):
        a = SampleTriple(22.5, 40.0, 1000.0)
        b = SampleTriple(20.0, 45.0, 1000.0)
        row = difference_features(a, b, Label.COLOCATED)
        assert row.d_temperature == pytest.approx(2.5)
        assert row.d_humidity == pytest.approx(5.0)
        assert row.d_altitude == pytest.approx(0.0)

    def test_missing_humidity_slot(self):
        a = SampleTriple(22.5, None, 1000.0)
        b = SampleTriple(20.0, 45.0, 1000.0)
        row = difference_features(a, b, Label.NON_COLOCATED)
        assert row.d_humidity is None
        assert row.d_temperature == pytest.approx(2.5)
        assert row.d_altitude == pytest.approx(0.0)

    def test_symmetry_and_triangle_bound(self, rng):
        for _ in range(30):
            temps = rng.uniform(10, 30, size=3)
            a = SampleTriple(float(temps[0]), 40.0, 1000.0)
            b = SampleTriple(float(temps[1]), 40.0, 1000.0)
            c = SampleTriple(float(temps[2]), 40.0, 1000.0)
            ab = difference_features(a, b, Label.COLOCATED).d_temperature
            ba = difference_features(b, a, Label.COLOCATED).d_temperature
            ac = difference_features(a, c, Label.COLOCATED).d_temperature
            cb = difference_features(c, b, Label.COLOCATED).d_temperature
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
        expanded = expand_instances(shrestha.compress_instances(rows))

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


# Readings of every kind within its invariants.
READINGS = {
    SensorKind.TEMPERATURE: st.floats(-20.0, 45.0),
    SensorKind.HUMIDITY: st.floats(0.0, 100.0),
    SensorKind.PRESSURE: st.floats(850.0, 1100.0),
    SensorKind.LUMINOSITY: st.floats(0.0, 1e4),
}


@st.composite
def sensor_datasets(draw) -> Dataset:
    # Readings on a 250 or 500 ms grid put anchors exactly 1 000 ms from a
    # reading, often with one on either side; devices may lack kinds, hold
    # empty series or only luminosity.
    step = draw(st.sampled_from([250, 500]))
    base = draw(st.integers(-10 ** 12, 10 ** 12))
    grid = st.integers(0, 20).map(lambda k: base + k * step)
    devices = draw(st.lists(st.sampled_from("abcde"), min_size=2, max_size=4, unique=True))
    sensors = {}
    for dev in devices:
        sensors[dev] = {}
        # A device holds each kind in three draws of four; one series in five is empty.
        for kind in [kind for kind in READINGS if draw(st.integers(0, 3))]:
            times = [] if draw(st.integers(0, 4)) == 0 else sorted(draw(
                st.sets(grid, min_size=1, max_size=12)))
            values = draw(st.lists(READINGS[kind], min_size=len(times), max_size=len(times)))
            sensors[dev][kind] = SensorSeries(kind, times, values, dev)
    # Two groups, each present in every other span between a few cuts, and
    # devices in neither: a pair's label changes over time and is None where
    # a device is ungrouped.
    group_of = {dev: draw(st.sampled_from([0, 1, None])) for dev in devices}
    groups = []
    for i in (0, 1):
        cuts = [base - step, *sorted(draw(st.sets(grid, max_size=3))), base + 21 * step]
        groups.append(Group(f"g{i}", tuple(d for d in devices if group_of[d] == i),
                            tuple(zip(cuts[::2], cuts[1::2]))))
    return Dataset(sensors=sensors, ground_truth=GroundTruth(groups=tuple(groups)))


def _tie_dataset() -> Dataset:
    """b's readings lie 1 000 ms either side of a's anchor, with other values."""
    gt = two_group_truth()
    sensors = {
        "a": {kind: SensorSeries(kind, [1000], [value], "a")
              for kind, value in ((SensorKind.TEMPERATURE, 20.0), (SensorKind.PRESSURE, 1000.0))},
        "b": {kind: SensorSeries(kind, [0, 2000], values, "b")
              for kind, values in ((SensorKind.TEMPERATURE, [21.0, 25.0]),
                                   (SensorKind.PRESSURE, [990.0, 950.0]))},
    }
    return Dataset(sensors=sensors, ground_truth=gt)


def _far_apart_dataset() -> Dataset:
    """a's reading is 2**63 ms after b's: an int64 difference would wrap."""
    gt = GroundTruth(groups=(Group("g0", ("a", "b"), ((-2 ** 62, 2 ** 62 + 1),)),))
    kind = SensorKind.TEMPERATURE
    sensors = {dev: {kind: SensorSeries(kind, [t], [20.0], dev)}
               for dev, t in (("a", 2 ** 62), ("b", -2 ** 62))}
    return Dataset(sensors=sensors, ground_truth=gt)


@settings(max_examples=300, deadline=None)
@given(dataset=sensor_datasets())
@example(dataset=_tie_dataset())
@example(dataset=_far_apart_dataset())
def test_build_dataset_equals_per_anchor_reference(dataset):
    assert shrestha.build_dataset(dataset) == build_dataset_per_anchor(dataset)

"""Sensor-difference features: temperature, humidity and altitude deltas.

Readings are used individually (no interval aggregation): samples from two
devices are matched by nearest timestamp within one second, pressure is
converted to altitude, and each feature is the absolute difference. Equal
rows are compressed into weighted instances before training.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from ziskit.core.types import Dataset, EvaluationRecord, Label, SensorKind
from ziskit.errors import InvalidPressure

STANDARD_PRESSURE_HPA = 1013.25
# Sample matching tolerance across devices.
MATCH_TOLERANCE_MS = 1000
# Feature values are grouped after rounding; raw floats are too fragile.
GROUP_DECIMALS = 4
FEATURE_NAMES = ("d_temperature", "d_humidity", "d_altitude")


def pressure_to_altitude(p_hpa: float) -> float:
    """Barometric pressure in hPa (millibars) to altitude in meters."""
    if p_hpa <= 0:
        raise InvalidPressure(f"pressure must be positive, got {p_hpa}")
    return (1.0 - (p_hpa / STANDARD_PRESSURE_HPA) ** 0.190284) * 145366.45 * 0.3048


@dataclass(frozen=True)
class SampleTriple:
    """One device's time-matched readings; None marks a missing modality."""

    temperature: float | None
    humidity: float | None
    pressure: float | None


@dataclass(frozen=True)
class ShresthaFeatureVector:
    device_a: str
    device_b: str
    timestamp_ms: int
    d_temperature: float | None
    d_humidity: float | None
    d_altitude: float | None
    label: Label
    weight: int = 1

    FEATURES: ClassVar[tuple[str, ...]] = FEATURE_NAMES

    def values(self) -> list[float | None]:
        return [getattr(self, name) for name in FEATURE_NAMES]

    def feature_key(self) -> tuple:
        return tuple(None if v is None else round(v, GROUP_DECIMALS) for v in self.values())

    def record(self) -> EvaluationRecord:
        """The unscored record of this row: its reading time, with t = 0."""
        return EvaluationRecord(self.device_a, self.device_b, self.timestamp_ms, 0,
                                self.label, None)


def _abs_diff(a: float | None, b: float | None) -> float | None:
    if a is None or b is None:
        return None
    return abs(a - b)


def difference_features(a: SampleTriple, b: SampleTriple, label: Label,
                        device_a: str = "a", device_b: str = "b",
                        timestamp_ms: int = 0) -> ShresthaFeatureVector:
    """Absolute per-modality differences; pressure becomes altitude first."""
    alt_a = None if a.pressure is None else pressure_to_altitude(a.pressure)
    alt_b = None if b.pressure is None else pressure_to_altitude(b.pressure)
    return ShresthaFeatureVector(
        device_a=device_a,
        device_b=device_b,
        timestamp_ms=timestamp_ms,
        d_temperature=_abs_diff(a.temperature, b.temperature),
        d_humidity=_abs_diff(a.humidity, b.humidity),
        d_altitude=_abs_diff(alt_a, alt_b),
        label=label,
    )


def _nearest_value(timestamps: np.ndarray, values: np.ndarray, t: int,
                   tolerance_ms: int) -> float | None:
    if timestamps.size == 0:
        return None
    pos = int(np.searchsorted(timestamps, t))
    best, best_dt = None, tolerance_ms + 1
    for idx in (pos - 1, pos):
        if 0 <= idx < timestamps.size:
            dt = abs(int(timestamps[idx]) - t)
            if dt < best_dt:
                best, best_dt = float(values[idx]), dt
    return best


_MODALITIES = (SensorKind.TEMPERATURE, SensorKind.HUMIDITY, SensorKind.PRESSURE)


def _triple_at(dataset: Dataset, device: str, t: int) -> SampleTriple:
    slots = {}
    for kind in _MODALITIES:
        series = dataset.sensors.get(device, {}).get(kind)
        if series is None:
            slots[kind] = None
        else:
            slots[kind] = _nearest_value(series.timestamps_ms, series.values, t,
                                         MATCH_TOLERANCE_MS)
    return SampleTriple(temperature=slots[SensorKind.TEMPERATURE],
                        humidity=slots[SensorKind.HUMIDITY],
                        pressure=slots[SensorKind.PRESSURE])


def _anchor_times(dataset: Dataset, device: str) -> np.ndarray:
    stamps = [dataset.sensors.get(device, {}).get(k).timestamps_ms
              for k in _MODALITIES
              if dataset.sensors.get(device, {}).get(k) is not None]
    if not stamps:
        return np.array([], dtype=np.int64)
    return np.unique(np.concatenate(stamps))


def build_dataset(dataset: Dataset) -> list[ShresthaFeatureVector]:
    """One row per device pair per matched reading time."""
    gt = dataset.ground_truth
    devices = sorted(d for d in dataset.device_ids() if dataset.sensors.get(d))
    rows: list[ShresthaFeatureVector] = []
    for i, dev_a in enumerate(devices):
        for dev_b in devices[i + 1:]:
            anchors = _anchor_times(dataset, dev_a)
            for t in anchors:
                t = int(t)
                label = gt.label_for(dev_a, dev_b, t, t + 1)
                if label is None:
                    continue
                triple_a = _triple_at(dataset, dev_a, t)
                triple_b = _triple_at(dataset, dev_b, t)
                row = difference_features(triple_a, triple_b, label,
                                          dev_a, dev_b, t)
                if (row.d_temperature is None and row.d_humidity is None
                        and row.d_altitude is None):
                    continue
                rows.append(row)
    return rows


def compress_instances(rows: list[ShresthaFeatureVector]) -> list[ShresthaFeatureVector]:
    """Group equal (features, label) rows into one weighted instance.

    Feature equality uses values rounded to GROUP_DECIMALS places; the
    representative row carries the rounded values so expansion reproduces
    the grouped multiset, and weights always sum to the input count.
    """
    grouped: dict[tuple, ShresthaFeatureVector] = {}
    for row in rows:
        key = row.feature_key() + (row.label,)
        if key in grouped:
            rep = grouped[key]
            grouped[key] = replace(rep, weight=rep.weight + row.weight)
        else:
            d_t, d_h, d_a = row.feature_key()
            grouped[key] = replace(row, d_temperature=d_t, d_humidity=d_h,
                                   d_altitude=d_a)
    return list(grouped.values())


def expand_instances(rows: list[ShresthaFeatureVector]) -> list[ShresthaFeatureVector]:
    """Inverse of compression: repeat each row `weight` times with weight 1."""
    out = []
    for row in rows:
        out.extend([replace(row, weight=1)] * row.weight)
    return out


def ambiguity_fraction(rows: list[ShresthaFeatureVector]) -> float:
    """Weighted fraction of rows whose feature values occur under both labels."""
    if not rows:
        return 0.0
    by_key: dict[tuple, set[Label]] = {}
    for row in rows:
        by_key.setdefault(row.feature_key(), set()).add(row.label)
    ambiguous = sum(row.weight for row in rows if len(by_key[row.feature_key()]) > 1)
    total = sum(row.weight for row in rows)
    return ambiguous / total

"""Sensor-difference features: temperature, humidity and altitude deltas.

Readings are used individually (no interval aggregation): samples from two
devices are matched by nearest timestamp within one second, pressure is
converted to altitude, and each feature is the absolute difference. Equal
rows are compressed into weighted instances before training.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from ziskit.core.types import Dataset, EvaluationRecord, Label, SensorKind, SensorSeries
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
        return EvaluationRecord(self.device_a, self.device_b, self.timestamp_ms, 0, self.label)


_MODALITIES = (SensorKind.TEMPERATURE, SensorKind.HUMIDITY, SensorKind.PRESSURE)


def _readings(sensors: dict[SensorKind, SensorSeries]) -> list[tuple[np.ndarray, np.ndarray]]:
    """A device's (timestamps, values) per modality, pressure as altitude;
    empty where the device lacks the modality."""
    out = []
    for kind in _MODALITIES:
        series = sensors.get(kind)
        if series is None:
            out.append((np.empty(0, dtype=np.int64), np.empty(0)))
        elif kind is SensorKind.PRESSURE:
            out.append((series.timestamps_ms,
                        np.array([pressure_to_altitude(p) for p in series.values.tolist()])))
        else:
            out.append((series.timestamps_ms, series.values))
    return out


def _nearest(timestamps: np.ndarray, values: np.ndarray, anchors: np.ndarray) -> np.ndarray:
    """The value of each anchor's nearest reading, the earlier one on a tie;
    NaN where no reading lies within MATCH_TOLERANCE_MS."""
    if timestamps.size == 0:
        return np.full(anchors.size, np.nan)
    pos = np.searchsorted(timestamps, anchors)
    before = np.maximum(pos - 1, 0)
    after = np.minimum(pos, timestamps.size - 1)
    # Gaps in uint64 are exact for any int64 times; a missing neighbour (the
    # clamped index at either end) gets the largest gap.
    u, t = anchors.view(np.uint64), timestamps.view(np.uint64)
    never = np.iinfo(np.uint64).max
    gap_before = np.where(pos > 0, u - t[before], never)
    gap_after = np.where(pos < timestamps.size, t[after] - u, never)
    nearest = values[np.where(gap_after < gap_before, after, before)]
    return np.where(np.minimum(gap_before, gap_after) <= MATCH_TOLERANCE_MS, nearest, np.nan)


def build_dataset(dataset: Dataset) -> list[ShresthaFeatureVector]:
    """One row per device pair per reading time of the first device.

    Each modality's difference is |A - B| of the two devices' nearest
    readings, or None where either has none; rows with no difference and
    anchors of mixed ground truth are dropped.
    """
    gt = dataset.ground_truth
    devices = sorted(d for d in dataset.device_ids() if dataset.sensors.get(d))
    readings = {d: _readings(dataset.sensors[d]) for d in devices}
    rows: list[ShresthaFeatureVector] = []
    for i, dev_a in enumerate(devices):
        anchors = np.unique(np.concatenate([t for t, _ in readings[dev_a]]))
        own = np.stack([_nearest(t, v, anchors) for t, v in readings[dev_a]], axis=1)
        for dev_b in devices[i + 1:]:
            other = np.stack([_nearest(t, v, anchors) for t, v in readings[dev_b]], axis=1)
            diffs = np.abs(own - other)
            for k in np.flatnonzero(~np.isnan(diffs).all(axis=1)).tolist():
                t = int(anchors[k])
                label = gt.label_for(dev_a, dev_b, t, t + 1)
                if label is not None:
                    d_t, d_h, d_a = (None if math.isnan(d) else d for d in diffs[k].tolist())
                    rows.append(ShresthaFeatureVector(dev_a, dev_b, t, d_t, d_h, d_a, label))
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

"""Context fingerprints from noise levels or luminosity, and their surprisal.

Bits encode whether consecutive snapshot averages changed by more than both a
relative and an absolute threshold. The luminosity pipeline fingerprints raw
readings; the audio pipeline first reduces samples to windowed noise levels.
A surprisal model estimates how predictable a fingerprint is for its time of
day; `pipeline.fingerprint_records` gates the low-information ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ziskit.core.types import (
    Fingerprint,
    Recording,
    SensorKind,
    SensorSeries,
    common_length,
)
from ziskit.errors import InsufficientSamples, InvariantViolation, ModelGap

MS_PER_HOUR = 3_600_000
MS_PER_DAY = 86_400_000
# Probabilities are clamped before taking logs so surprisal stays finite.
_P_FLOOR = 1e-12
# Samples per block of windows that noise_levels reads and reduces at once:
# 2 MB as float64.
_BLOCK_SAMPLES = 1 << 18


@dataclass(frozen=True)
class MiettinenConfig:
    """Snapshot length w, change thresholds, fingerprint length.

    A new snapshot starts every snapshot_s seconds: the period f equals w."""

    snapshot_s: int = 120
    bits: int = 128
    measurement_window_s: float = 1.0
    delta_rel: float = 0.1
    delta_abs: float = 10.0

    def __post_init__(self):
        if self.bits < 1 or self.snapshot_s < 1:
            raise InvariantViolation(
                f"need bits >= 1 and snapshot_s >= 1, got {self.bits} and {self.snapshot_s}")


def noise_levels(x: Recording, m_w: float = 1.0) -> SensorSeries:
    """Mean absolute amplitude over consecutive m_w-second windows.

    The windows are read and reduced a block of whole windows at a time,
    about _BLOCK_SAMPLES samples each, so no float64 copy of the recording is
    made. Each window is reduced on its own, so its mean does not depend on
    the block that holds it.
    """
    win = int(round(m_w * x.rate_hz))
    if win <= 0 or x.n_frames < win:
        raise InsufficientSamples(f"need at least {win} samples for one window")
    n_win = x.n_frames // win
    means = np.empty(n_win)
    step = max(1, _BLOCK_SAMPLES // win)
    for lo in range(0, n_win, step):
        hi = min(lo + step, n_win)
        block = x.read(lo * win, hi * win).reshape(hi - lo, win)
        means[lo:hi] = np.abs(block, dtype=np.float64).mean(axis=1)
    times = x.start_time + np.arange(n_win, dtype=np.int64) * int(round(m_w * 1000))
    return SensorSeries(SensorKind.NOISE, times, means, x.device_id)


def _change_bits(averages: np.ndarray, delta_rel: float, delta_abs: float) -> np.ndarray:
    prev = averages[:-1]
    cur = averages[1:]
    # An overflowing change is inf, which exceeds either threshold.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        abs_ok = np.abs(cur - prev) > delta_abs
        rel = np.abs(cur / prev - 1.0)
    # Zero predecessor: the relative change is unbounded, so only the
    # absolute threshold decides.
    rel_ok = np.where(prev == 0.0, True, rel > delta_rel)
    return (abs_ok & rel_ok).astype(np.uint8)


def iter_fingerprints(series: SensorSeries, cfg: MiettinenConfig) -> list[Fingerprint]:
    """Consecutive fingerprints of cfg.bits bits, each from cfg.bits + 1 snapshot means.

    Snapshot k is the mean of the readings in [t0 + k*w, t0 + (k+1)*w), where
    t0 is the first timestamp, for every k whose window starts at or before
    the last reading. Adjacent fingerprints share one snapshot, whose mean
    is the predecessor of the next one's bit 0. Tiling stops at the first
    fingerprint that would hold an empty snapshot.
    """
    t = series.timestamps_ms
    if not t.size:
        return []
    step = cfg.snapshot_s * 1000
    first = int(t[0])
    # With more windows than readings, one of the first len(t) is empty.
    n_windows = min((int(t[-1]) - first) // step + 1, t.size)
    edges = np.searchsorted(t, first + step * np.arange(n_windows + 1))
    empty = np.flatnonzero(edges[1:] == edges[:-1])
    n_full = int(empty[0]) if empty.size else n_windows  # windows before the first empty one
    windows = list(zip(edges[:n_full], edges[1:n_full + 1]))
    with np.errstate(over="ignore"):
        means = np.array([float(series.values[a:b].mean()) for a, b in windows])
        # Finite readings whose sum overflows: scale each before summing, and
        # where that sum still rounds past the maximum, by the largest |reading|.
        for k in np.flatnonzero(~np.isfinite(means)):
            a, b = windows[k]
            values = series.values[a:b]
            means[k] = (values / (b - a)).sum()
            if not np.isfinite(means[k]):
                m = np.abs(values).max()
                means[k] = m * (values / m).mean()
    return [Fingerprint(_change_bits(means[lo:lo + cfg.bits + 1], cfg.delta_rel, cfg.delta_abs),
                        series.device_id, first + (lo + 1) * step)
            for lo in range(0, n_full - cfg.bits, cfg.bits)]


def hour_of_day(epoch_ms: int) -> int:
    return int((epoch_ms // MS_PER_HOUR) % 24)


def day_partition(epoch_ms: int) -> str:
    # Epoch day 0 (1970-01-01) was a Thursday; Monday-indexed weekday.
    weekday = (epoch_ms // MS_PER_DAY + 3) % 7
    return "weekend" if weekday >= 5 else "weekday"


@dataclass(frozen=True)
class SurprisalModel:
    """P(bit = 1) per (day partition, hour of day, bit position), UTC clock."""

    n_bits: int
    table: dict[tuple[str, int], np.ndarray]

    @classmethod
    def fit(cls, fingerprints: list[Fingerprint]) -> "SurprisalModel":
        """Estimate per-position probabilities with add-one smoothing."""
        if not fingerprints:
            raise ValueError("cannot fit a surprisal model on an empty corpus")
        n_bits = common_length(fingerprints)
        groups: dict[tuple[str, int], list[np.ndarray]] = {}
        for fp in fingerprints:
            key = (day_partition(fp.interval_start), hour_of_day(fp.interval_start))
            groups.setdefault(key, []).append(fp.bits)
        table = {
            key: (np.sum(stack, axis=0) + 1.0) / (len(stack) + 2.0)
            for key, stack in groups.items()
        }
        return cls(n_bits=n_bits, table=table)

    def probabilities_for(self, fingerprint: Fingerprint) -> np.ndarray:
        key = (day_partition(fingerprint.interval_start),
               hour_of_day(fingerprint.interval_start))
        if key not in self.table:
            raise ModelGap(f"no estimates for partition/hour {key}")
        return self.table[key]


def surprisal(fingerprint: Fingerprint, model: SurprisalModel) -> float:
    """Self-information of the fingerprint under the model, in bits."""
    if len(fingerprint) != model.n_bits:
        raise ValueError(f"model covers {model.n_bits} bits, fingerprint has {len(fingerprint)}")
    p_one = model.probabilities_for(fingerprint)
    p_bit = np.where(fingerprint.bits == 1, p_one, 1.0 - p_one)
    return float(np.sum(-np.log2(np.clip(p_bit, _P_FLOOR, 1.0))))

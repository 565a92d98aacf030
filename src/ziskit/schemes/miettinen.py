"""Context fingerprints from noise levels or luminosity, plus surprisal gating.

Bits encode whether consecutive snapshot averages changed by more than both a
relative and an absolute threshold. The luminosity pipeline fingerprints raw
readings; the audio pipeline first reduces samples to windowed noise levels.
A surprisal model estimates how predictable a fingerprint is for its time of
day and can gate low-information fingerprints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ziskit.core.types import AudioSnippet, Fingerprint, SensorKind, SensorSeries
from ziskit.errors import InsufficientSamples, InvariantViolation, ModelGap

MS_PER_HOUR = 3_600_000
MS_PER_DAY = 86_400_000
# Probabilities are clamped before taking logs so surprisal stays finite.
_P_FLOOR = 1e-12


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


def noise_levels(x: AudioSnippet, m_w: float = 1.0) -> SensorSeries:
    """Mean absolute amplitude over consecutive m_w-second windows."""
    win = int(round(m_w * x.rate_hz))
    if win <= 0 or x.samples.size < win:
        raise InsufficientSamples(f"need at least {win} samples for one window")
    n_win = x.samples.size // win
    data = np.abs(x.as_float()[:n_win * win]).reshape(n_win, win)
    times = x.start_time + np.arange(n_win, dtype=np.int64) * int(round(m_w * 1000))
    return SensorSeries(SensorKind.NOISE, times, data.mean(axis=1), x.device_id)


def snapshot_averages(series: SensorSeries, snapshot_s: int, n_snapshots: int,
                      offset: int = 0) -> np.ndarray:
    """Averages of consecutive snapshot_s windows starting at snapshot `offset`."""
    if len(series) == 0:
        raise InsufficientSamples("empty series")
    t0 = int(series.timestamps_ms[0]) + offset * snapshot_s * 1000
    step = snapshot_s * 1000
    averages = np.empty(n_snapshots)
    for i in range(n_snapshots):
        window = series.slice_ms(t0 + i * step, t0 + (i + 1) * step)
        if len(window) == 0:
            raise InsufficientSamples(f"snapshot {offset + i} contains no measurements")
        averages[i] = float(window.values.mean())
    return averages


def _change_bits(averages: np.ndarray, delta_rel: float, delta_abs: float) -> np.ndarray:
    prev = averages[:-1]
    cur = averages[1:]
    abs_ok = np.abs(cur - prev) > delta_abs
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.abs(cur / prev - 1.0)
    # Zero predecessor: the relative change is unbounded, so only the
    # absolute threshold decides.
    rel_ok = np.where(prev == 0.0, True, rel > delta_rel)
    return (abs_ok & rel_ok).astype(np.uint8)


def context_fingerprint(series: SensorSeries, cfg: MiettinenConfig,
                        offset: int = 0) -> Fingerprint:
    """Fingerprint of cfg.bits bits from cfg.bits + 1 consecutive snapshots.

    The first snapshot only serves as the predecessor of bit 0. `offset`
    shifts the snapshot grid by whole periods.
    """
    period = cfg.snapshot_s
    span_ms = int(series.timestamps_ms[-1] - series.timestamps_ms[0]) + 1 if len(series) else 0
    # The final snapshot window must have started; emptiness of any window is
    # checked during averaging.
    needed_ms = (offset + cfg.bits) * period * 1000
    if span_ms <= needed_ms:
        raise InsufficientSamples(
            f"series spans {span_ms} ms, need more than {needed_ms} ms for "
            f"{cfg.bits} bits")
    averages = snapshot_averages(series, period, cfg.bits + 1, offset=offset)
    start = int(series.timestamps_ms[0]) + (offset + 1) * period * 1000
    return Fingerprint(_change_bits(averages, cfg.delta_rel, cfg.delta_abs), series.device_id,
                       start)


def iter_fingerprints(series: SensorSeries, cfg: MiettinenConfig) -> list[Fingerprint]:
    """Consecutive fingerprints tiling the series (adjacent tiles share one snapshot)."""
    out = []
    offset = 0
    while True:
        try:
            out.append(context_fingerprint(series, cfg, offset=offset))
        except InsufficientSamples:
            # The series ends, or a trailing snapshot window holds no readings.
            return out
        offset += cfg.bits


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
        n_bits = len(fingerprints[0])
        groups: dict[tuple[str, int], list[np.ndarray]] = {}
        for fp in fingerprints:
            if len(fp) != n_bits:
                raise ValueError("fingerprints must share one length")
            key = (day_partition(fp.interval_start), hour_of_day(fp.interval_start))
            groups.setdefault(key, []).append(fp.bits)
        table = {
            key: (np.sum(stack, axis=0) + 1.0) / (len(stack) + 2.0)
            for key, stack in groups.items()
        }
        return cls(n_bits=n_bits, table=table)

    @classmethod
    def uniform(cls, n_bits: int) -> "SurprisalModel":
        """P = 0.5 everywhere; covers every hour and partition."""
        table = {(part, hour): np.full(n_bits, 0.5)
                 for part in ("weekday", "weekend") for hour in range(24)}
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


def surprisal_gate(fingerprint: Fingerprint, model: SurprisalModel,
                   t_err: int, margin: float) -> bool:
    """True iff the fingerprint's surprisal strictly exceeds t_err + margin."""
    if t_err < 0:
        raise ValueError("t_err must be non-negative")
    return surprisal(fingerprint, model) > t_err + margin


def surprisal_threshold(t_err: int, margin: float) -> float:
    return t_err + margin


def fingerprint_from_audio(x: AudioSnippet, cfg: MiettinenConfig) -> Fingerprint:
    """Noise-level pipeline: windowed mean absolute amplitudes, then bits."""
    return context_fingerprint(noise_levels(x, cfg.measurement_window_s), cfg)

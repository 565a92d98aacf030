"""Reference implementations that only tests use: each is the oracle that a
test compares the production path against, and no command runs it."""

from __future__ import annotations

import struct
import wave
from dataclasses import dataclass, replace
from pathlib import Path
from typing import BinaryIO

import numpy as np

from ziskit import dsp
from ziskit.core.io import _WAVE_FORMAT_PCM, _require
from ziskit.core.types import AudioSnippet, Dataset, Fingerprint, Label, SensorKind, SensorSeries
from ziskit.errors import InsufficientSamples, InvariantViolation, ParseError
from ziskit.ml.tree import _MIN_HESSIAN, Tree, TreeParams, _best_splits
from ziskit.schemes import karapanos
from ziskit.schemes.miettinen import MiettinenConfig, SurprisalModel, _change_bits
from ziskit.schemes.shrestha import (MATCH_TOLERANCE_MS, ShresthaFeatureVector,
                                     pressure_to_altitude)


def read_wav(path: Path, device_id: str, start_ms: int = 0) -> AudioSnippet:
    """Read a mono 16-bit PCM WAV file.

    Anything else, a malformed or truncated header included, raises ParseError
    naming the file. WAVE_FORMAT_EXTENSIBLE is refused on every Python version
    (`wave` reads it only from 3.12 on). A data chunk shorter than its header
    declares yields the whole samples it holds.
    """
    _require(path)
    try:
        with open(path, "rb") as fh, wave.open(fh) as wav:
            width, channels, rate = wav.getsampwidth(), wav.getnchannels(), wav.getframerate()
            frames = wav.readframes(wav.getnframes())
            tag = _format_tag(fh)
        if tag != _WAVE_FORMAT_PCM:
            raise wave.Error(f"unknown format: {tag}")
    except (wave.Error, EOFError, RuntimeError) as exc:
        # `wave` raises a bare EOFError on a short header and a bare RuntimeError
        # on a chunk that runs past the end of the RIFF chunk.
        raise ParseError(f"bad WAV file: {str(exc) or 'truncated or malformed header'}",
                         path=str(path)) from exc
    if width != 2:
        raise ParseError(f"expected 16-bit PCM, got {8 * width}-bit", path=str(path))
    if channels != 1:
        raise ParseError("expected mono audio", path=str(path))
    samples = np.frombuffer(frames, dtype=np.int16, count=len(frames) // 2)
    try:
        return AudioSnippet(samples=samples, rate_hz=rate, start_time=start_ms,
                            device_id=device_id)
    except InvariantViolation as exc:  # a sample rate of 0
        raise InvariantViolation(f"{path}: {exc}") from exc


def _format_tag(fh: BinaryIO) -> int:
    """The format tag of the 'fmt ' chunk of a RIFF file `wave` has opened.

    `wave` found that chunk, so every chunk header on the way is whole.
    """
    fh.seek(12)  # past "RIFF", the RIFF size and "WAVE"
    while True:
        name, size = struct.unpack("<4sI", fh.read(8))
        if name == b"fmt ":
            return struct.unpack("<H", fh.read(2))[0]
        fh.seek(size + size % 2, 1)  # chunks are padded to even length


def apply_alignment(x: AudioSnippet, y: AudioSnippet,
                    result: dsp.AlignmentResult) -> tuple[AudioSnippet, AudioSnippet]:
    """Shift-and-trim both snippets to the aligned common length."""
    start, end = max(x.start_time, y.start_time), min(x.end_time, y.end_time)
    x2, y2 = x.slice_ms(start, end), y.slice_ms(start, end)
    lag, n = result.lag_samples, result.trimmed_len
    xs, ys = x2.samples, y2.samples
    if lag >= 0:
        xa, ya = xs[:n], ys[lag:lag + n]
        y_start = y2.start_time + int(round(lag * 1000 / y2.rate_hz))
        return (
            AudioSnippet(xa, x2.rate_hz, x2.start_time, x2.device_id),
            AudioSnippet(ya, y2.rate_hz, y_start, y2.device_id),
        )
    xa, ya = xs[-lag:-lag + n], ys[:n]
    x_start = x2.start_time + int(round(-lag * 1000 / x2.rate_hz))
    return (
        AudioSnippet(xa, x2.rate_hz, x_start, x2.device_id),
        AudioSnippet(ya, y2.rate_hz, y2.start_time, y2.device_id),
    )


def xcorr_lags(x: np.ndarray, y: np.ndarray, maxlag: int, method: str = "fft") -> np.ndarray:
    """Raw cross-correlation C(l) = sum_i x[i]*y[i-l] for l in [0, maxlag], by the
    direct O(N * maxlag) sum or through the FFT core of `dsp`."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size != y.size or x.size == 0:
        raise ValueError("signals must be nonempty and of equal length")
    if not 0 <= maxlag <= x.size - 1:
        raise ValueError(f"maxlag must lie in [0, {x.size - 1}]")
    if method == "direct":
        n = x.size
        return np.array([np.dot(x[l:], y[:n - l]) for l in range(maxlag + 1)])
    if method == "fft":
        return dsp._xcorr_fft_circular(x, y, maxlag)[:maxlag + 1]
    raise ValueError(f"unknown method {method!r}")


def max_xcorr_norm(x: np.ndarray, y: np.ndarray, maxlag: int, method: str = "fft") -> float:
    """Normalized maximum cross-correlation over lags [0, maxlag] only, in [0, 1].

    max over l of |C_xy(l)| / sqrt(C_xx(0) * C_yy(0)). Raises
    UndefinedCorrelation when either signal is all-zero.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    c = xcorr_lags(x, y, maxlag, method=method)
    return float(dsp.normalize_peak(np.abs(c[..., :maxlag + 1]).max(-1),
                                    np.dot(x, x), np.dot(y, y)))


def similarity(x: AudioSnippet, y: AudioSnippet,
               cfg: karapanos.KarapanosConfig) -> karapanos.SimilarityScore:
    """Karapanos similarity of two aligned equal-length snippets over lags
    [0, maxlag] only, from their per-band decompositions.

    Mean over the bands of the normalized maximum cross-correlation; gated
    when either input has insufficient power.
    """
    if x.samples.size != y.samples.size or x.samples.size == 0:
        raise ValueError("snippets must be aligned to equal nonzero length")
    a, b = karapanos.band_decompose(x, cfg), karapanos.band_decompose(y, cfg)
    if min(a.power_db, b.power_db) <= cfg.power_threshold_db:
        return karapanos.SimilarityScore(None, "power")
    c = dsp.xcorr_spectra(a.spectra, b.spectra, a.pad_len)
    maxlag = int(round(cfg.maxlag_s * x.rate_hz))
    return karapanos._score(np.abs(c[..., :maxlag + 1]).max(-1), a.norms, b.norms)


def expand_instances(rows: list[ShresthaFeatureVector]) -> list[ShresthaFeatureVector]:
    """Inverse of compression: repeat each row `weight` times with weight 1."""
    out = []
    for row in rows:
        out.extend([replace(row, weight=1)] * row.weight)
    return out


@dataclass(frozen=True)
class SampleTriple:
    """One device's time-matched readings; None marks a missing modality."""

    temperature: float | None
    humidity: float | None
    pressure: float | None


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


def build_dataset_per_anchor(dataset: Dataset) -> list[ShresthaFeatureVector]:
    """One row per device pair per matched reading time, each anchor's
    readings looked up on their own."""
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


def uniform_surprisal_model(n_bits: int) -> SurprisalModel:
    """P = 0.5 everywhere; covers every hour and partition."""
    table = {(part, hour): np.full(n_bits, 0.5)
             for part in ("weekday", "weekend") for hour in range(24)}
    return SurprisalModel(n_bits=n_bits, table=table)


def slice_series_ms(series: SensorSeries, start_ms: int, end_ms: int) -> SensorSeries:
    """The readings of `series` in [start_ms, end_ms), as a validated series."""
    i0, i1 = np.searchsorted(series.timestamps_ms, [start_ms, end_ms])
    return SensorSeries(series.kind, series.timestamps_ms[i0:i1], series.values[i0:i1],
                        series.device_id)


def snapshot_averages(series: SensorSeries, snapshot_s: int, n_snapshots: int,
                      offset: int = 0) -> np.ndarray:
    """Averages of consecutive snapshot_s windows starting at snapshot `offset`."""
    if len(series) == 0:
        raise InsufficientSamples("empty series")
    t0 = int(series.timestamps_ms[0]) + offset * snapshot_s * 1000
    step = snapshot_s * 1000
    averages = np.empty(n_snapshots)
    for i in range(n_snapshots):
        window = slice_series_ms(series, t0 + i * step, t0 + (i + 1) * step)
        if len(window) == 0:
            raise InsufficientSamples(f"snapshot {offset + i} contains no measurements")
        averages[i] = float(window.values.mean())
    return averages


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


def iter_fingerprints_per_offset(series: SensorSeries,
                                 cfg: MiettinenConfig) -> list[Fingerprint]:
    """Consecutive fingerprints tiling the series (adjacent tiles share one
    snapshot), each built alone at its snapshot offset."""
    out = []
    offset = 0
    while True:
        try:
            out.append(context_fingerprint(series, cfg, offset=offset))
        except InsufficientSamples:
            # The series ends, or a trailing snapshot window holds no readings.
            return out
        offset += cfg.bits


def fit_tree_per_node(X: np.ndarray, g: np.ndarray, h: np.ndarray, params: TreeParams,
                      rng: np.random.Generator) -> Tree:
    """Grow depth-first from an explicit stack, nodes numbered in preorder.

    One `_best_splits` call per node. A forest's feature candidates are drawn
    per node in that same order. Only depth stops a node before the split
    search: row-count shortcuts would consume the RNG differently for
    weighted data and its expanded-duplicate equivalent.
    """
    n_feat = X.shape[1]
    sample = params.mtry is not None and params.mtry < n_feat
    nodes = []   # (feature, threshold, missing_left, value) per node
    left, right = [], []
    gains = np.zeros(n_feat)
    stack = [(np.arange(X.shape[0]), 0, -1, True)]
    while stack:
        rows, depth, parent, is_left = stack.pop()
        node = len(nodes)
        if parent >= 0:
            (left if is_left else right)[parent] = node
        left.append(-1)
        right.append(-1)
        best = None
        if depth < params.max_depth:
            candidates = (np.sort(rng.choice(n_feat, size=params.mtry, replace=False))
                          if sample else np.arange(n_feat))
            gain, cut, miss_left = _best_splits(X[rows][:, candidates], g[rows], h[rows])
            # The first maximum: candidates are scored in ascending order.
            i = int(gain.argmax())
            if gain[i] > -np.inf:
                best = (float(gain[i]), float(cut[i]), bool(miss_left[i]),
                        int(candidates[i]))
        if best is None:
            h_sum = max(float(h[rows].sum()), _MIN_HESSIAN)
            nodes.append((-1, 0.0, True, float(g[rows].sum()) / h_sum))
            continue
        gain, cut, miss_left, f = best
        gains[f] += gain
        nodes.append((f, cut, miss_left, 0.0))
        col = X[rows, f]
        go_left = np.where(np.isnan(col), miss_left, col < cut)
        # Right is pushed first so the left subtree is numbered next.
        stack.append((rows[~go_left], depth + 1, node, False))
        stack.append((rows[go_left], depth + 1, node, True))
    feature, threshold, missing_left, value = zip(*nodes)
    return Tree(
        feature=np.asarray(feature, dtype=np.int32),
        threshold=np.asarray(threshold),
        missing_left=np.asarray(missing_left, dtype=bool),
        left=np.asarray(left, dtype=np.int32),
        right=np.asarray(right, dtype=np.int32),
        value=np.asarray(value),
        root=0,
        feature_gains=gains,
    )

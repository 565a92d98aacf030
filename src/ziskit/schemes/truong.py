"""Multi-modal pair features: beacon set distances plus two audio distances.

WiFi and BLE scans are aggregated per interval into mean RSSI per beacon;
five set distances compare two aggregates. Audio contributes the full-lag
normalized maximum cross-correlation and a time-frequency distance. Feature
slots without usable data carry None rather than a substitute number; only
the both-sides-saw-nothing case maps every distance to the rejection value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, NamedTuple

import numpy as np

from ziskit import dsp
from ziskit.core.types import (AudioSnippet, BeaconScan, Dataset, EvaluationRecord,
                               IntervalPair, Label)
from ziskit.core.windowing import map_pairs
from ziskit.errors import IncompatibleScans, UndefinedCorrelation

THETA_DEFAULT = -100.0
# Distance substituted when neither side observed any beacon (reject bias).
EMPTY_SCAN_DISTANCE = 10_000.0
# exp(|delta|) overflows fast; |delta| is capped here before exponentiation.
_EXP_CLAMP = 100.0

WIFI_FEATURES = ("wifi_jaccard", "wifi_mean_hamming", "wifi_euclidean",
                 "wifi_mean_exp", "wifi_sum_sq_ranks")
BLE_FEATURES = ("ble_jaccard", "ble_euclidean")
AUDIO_FEATURES = ("audio_max_xcorr", "audio_tf_distance")
ALL_FEATURES = WIFI_FEATURES + BLE_FEATURES + AUDIO_FEATURES


@dataclass(frozen=True)
class BeaconAggregate:
    """Mean RSSI per identifier over all scans of one interval."""

    kind: str
    means: dict[str, float]

    @classmethod
    def from_scans(cls, scans: list[BeaconScan], kind: str) -> "BeaconAggregate":
        sums: dict[str, float] = {}
        counts: dict[str, int] = {}
        for scan in scans:
            if scan.kind != kind:
                raise IncompatibleScans(f"expected {kind} scans, got {scan.kind}")
            for ident, rssi in scan.observations.items():
                sums[ident] = sums.get(ident, 0.0) + rssi
                counts[ident] = counts.get(ident, 0) + 1
        return cls(kind=kind, means={i: sums[i] / counts[i] for i in sums})


@dataclass(frozen=True)
class BeaconDistances:
    jaccard: float
    mean_hamming: float
    euclidean: float
    mean_exp: float
    sum_sq_ranks: float


def _ranks(means: dict[str, float], idents: list[str]) -> dict[str, int]:
    # Ascending RSSI rank; ties broken by identifier to stay deterministic.
    ordered = sorted(idents, key=lambda i: (means[i], i))
    return {ident: pos + 1 for pos, ident in enumerate(ordered)}


def beacon_features(a: BeaconAggregate, b: BeaconAggregate,
                    theta: float = THETA_DEFAULT) -> BeaconDistances:
    """Five set distances between two aggregates of the same kind."""
    if a.kind != b.kind:
        raise IncompatibleScans(f"cannot compare {a.kind} with {b.kind}")
    ids_a, ids_b = set(a.means), set(b.means)
    union = sorted(ids_a | ids_b)
    if not union:
        return BeaconDistances(*(EMPTY_SCAN_DISTANCE,) * 5)
    common = sorted(ids_a & ids_b)
    jaccard = 1.0 - len(common) / len(union)
    deltas = np.array([abs(a.means.get(i, theta) - b.means.get(i, theta)) for i in union])
    mean_hamming = float(deltas.mean())
    euclidean = float(math.sqrt(float(np.sum(deltas * deltas))))
    mean_exp = float(np.exp(np.minimum(deltas, _EXP_CLAMP)).mean())
    rank_a = _ranks(a.means, common)
    rank_b = _ranks(b.means, common)
    sum_sq_ranks = float(sum((rank_a[i] - rank_b[i]) ** 2 for i in common))
    return BeaconDistances(jaccard, mean_hamming, euclidean, mean_exp, sum_sq_ranks)


@dataclass(frozen=True)
class AudioDistances:
    max_xcorr: float
    time_distance: float
    freq_distance: float
    tf_distance: float


@dataclass(frozen=True)
class AudioState:
    """Per-snippet audio work, reusable across the snippet's pairings."""

    size: int
    sum_sq: float                     # sum of squared samples
    spectrum: np.ndarray              # rfft at pad length fast_len(2N - 1)
    pad_len: int
    unit_spectrum: np.ndarray | None  # |FFT(hamming * x)|[:N//2] over its norm


def audio_state(x: np.ndarray) -> AudioState:
    spectrum, pad = dsp.padded_spectrum(x, x.size - 1)
    mag = dsp.fft_mag_hamming(x)
    norm = float(np.linalg.norm(mag))
    return AudioState(x.size, np.dot(x, x), spectrum, pad,
                      mag / norm if norm != 0.0 else None)


def audio_distances(a: AudioState, b: AudioState) -> AudioDistances:
    """Full-lag normalized max cross-correlation and time-frequency distance."""
    if a.size != b.size:
        raise ValueError("snippets must be aligned, equal length, and non-trivial")
    c = dsp.xcorr_spectra(a.spectrum, b.spectrum, a.pad_len)
    max_xcorr = float(dsp.normalized_peak(c, a.sum_sq, b.sum_sq, a.size - 1, two_sided=True))
    if a.unit_spectrum is None or b.unit_spectrum is None:
        raise UndefinedCorrelation("zero spectrum")
    freq_distance = float(np.linalg.norm(a.unit_spectrum - b.unit_spectrum))
    time_distance = 1.0 - max_xcorr
    return AudioDistances(max_xcorr, time_distance, freq_distance,
                          math.hypot(time_distance, freq_distance))


def audio_features(x: AudioSnippet | np.ndarray, y: AudioSnippet | np.ndarray) -> AudioDistances:
    """Full-lag normalized max cross-correlation and time-frequency distance."""
    xd = x.as_float() if isinstance(x, AudioSnippet) else np.asarray(x, dtype=np.float64)
    yd = y.as_float() if isinstance(y, AudioSnippet) else np.asarray(y, dtype=np.float64)
    if xd.size != yd.size or xd.size < 2:
        raise ValueError("snippets must be aligned, equal length, and non-trivial")
    return audio_distances(audio_state(xd), audio_state(yd))


@dataclass(frozen=True)
class TruongFeatureVector:
    """Per pair-interval feature slots (None marks a missing modality)."""

    device_a: str
    device_b: str
    interval_start: int
    interval_len_s: int
    wifi_jaccard: float | None
    wifi_mean_hamming: float | None
    wifi_euclidean: float | None
    wifi_mean_exp: float | None
    wifi_sum_sq_ranks: float | None
    ble_jaccard: float | None
    ble_euclidean: float | None
    audio_max_xcorr: float | None
    audio_tf_distance: float | None
    label: Label

    FEATURES: ClassVar[tuple[str, ...]] = ALL_FEATURES
    weight: ClassVar[int] = 1

    def values(self) -> list[float | None]:
        return [getattr(self, name) for name in ALL_FEATURES]

    def record(self) -> EvaluationRecord:
        """The unscored pair-interval record of this row."""
        return EvaluationRecord(self.device_a, self.device_b, self.interval_start,
                                self.interval_len_s, self.label, None)


class DeviceInterval(NamedTuple):
    """One device's state in one interval; None marks a modality without usable data."""

    audio: AudioState | None
    wifi: BeaconAggregate | None
    ble: BeaconAggregate | None


def device_interval(dataset: Dataset, device: str, start: int, stop: int) -> DeviceInterval:
    chunk = dataset.audio_in(device, start, stop)
    audio = audio_state(chunk.as_float()) if chunk is not None else None
    # No scan records at all means a scan error, not an empty environment.
    scans = {kind: dataset.beacons_in(device, kind, start, stop) for kind in ("wifi", "ble")}
    return DeviceInterval(audio, *(BeaconAggregate.from_scans(s, kind) if s else None
                                   for kind, s in scans.items()))


def pair_features(pair: IntervalPair, a: DeviceInterval, b: DeviceInterval, t: int,
                  theta: float = THETA_DEFAULT) -> TruongFeatureVector:
    """The feature vector of one pair-interval from its two device states."""
    wifi, ble = (beacon_features(x, y, theta) if x is not None and y is not None else None
                 for x, y in ((a.wifi, b.wifi), (a.ble, b.ble)))
    audio = None
    # Audio of unequal length (devices recording at other rates) is not comparable.
    if a.audio is not None and b.audio is not None and a.audio.size == b.audio.size:
        try:
            audio = audio_distances(a.audio, b.audio)
        except UndefinedCorrelation:
            pass
    return TruongFeatureVector(
        pair.device_a, pair.device_b, pair.interval_start, t,
        *((wifi.jaccard, wifi.mean_hamming, wifi.euclidean, wifi.mean_exp,
           wifi.sum_sq_ranks) if wifi else (None,) * 5),
        *((ble.jaccard, ble.euclidean) if ble else (None,) * 2),
        *((audio.max_xcorr, audio.tf_distance) if audio else (None,) * 2),
        pair.label)


def build_dataset(pairs: list[IntervalPair], dataset: Dataset, t: int,
                  theta: float = THETA_DEFAULT) -> list[TruongFeatureVector]:
    """One labeled feature vector per pair-interval, in the order of `pairs`."""
    return map_pairs(pairs,
                     lambda device, start: device_interval(dataset, device, start,
                                                           start + t * 1000),
                     lambda pair, a, b: pair_features(pair, a, b, t, theta))

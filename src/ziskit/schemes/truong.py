"""Multi-modal pair features: beacon set distances plus two audio distances.

WiFi and BLE scans are aggregated per interval into mean RSSI per beacon;
five set distances compare two aggregates. Audio contributes the full-lag
normalized maximum cross-correlation and a time-frequency distance. Feature
slots without usable data carry None rather than a substitute number; only
the both-sides-saw-nothing case maps every distance to the rejection value.

`build_dataset` takes one interval at a time: each worker slot builds its
devices' states and correlates its pairs through `dsp.pair_peaks` in buffers
of its own, allocated on first use and reused by every interval (`_Lane`).
`audio_features` is the per-pair form, which it equals bit for bit; both
build states with the same code, it in new buffers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, ClassVar, NamedTuple, Sequence

import numpy as np

from ziskit import dsp
from ziskit.core.types import AudioSnippet, BeaconScan, Dataset, EvaluationRecord, Label
from ziskit.core.windowing import interval_runs, pmap, thread_count
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
    """The state of samples `x` (float or int16), in new buffers."""
    pad = dsp.fast_len(2 * x.size - 1)
    bins = pad // 2 + 1
    return _fill_state(x, np.empty(pad), np.empty(bins, complex), np.empty(bins, complex),
                       np.empty(x.size // 2))


def _fill_state(x: np.ndarray, padded: np.ndarray, work: np.ndarray, spectrum: np.ndarray,
                unit: np.ndarray) -> AudioState:
    """The state of the N samples `x`, built in scratch of the caller's:
    `padded`, float64 of the pad length fast_len(2N - 1), and `work`, complex128
    of its pad/2 + 1 bins, both overwritten. The state's spectrum goes into
    `spectrum` (pad/2 + 1 bins) and its unit spectrum into `unit` (N//2).

    `x` is cast into the head of `padded`, whose tail is zeroed: the head gives
    the sum of squares and the windowed spectrum, and the whole buffer the
    padded spectrum, as `dsp.padded_spectrum(x, N - 1)` would.
    """
    n = x.size
    head = padded[:n]
    head[...] = x
    padded[n:] = 0.0
    dsp.rfft(padded, out=spectrum)
    mag = dsp.fft_mag_hamming(head, out=unit, work=work)
    norm = float(np.linalg.norm(mag))
    if norm != 0.0:
        mag /= norm
    return AudioState(n, np.dot(head, head), spectrum, padded.size,
                      mag if norm != 0.0 else None)


class _Lane:
    """The buffers of one worker slot of a `build_dataset` call, allocated on
    first use and reused by every interval.

    Per audio size N: a pad buffer of fast_len(2N - 1) samples and a complex
    buffer of its pad/2 + 1 bins, the scratch of the slot's state builds and
    then of its pair correlation, and the spectrum and unit-spectrum rows of
    the devices the slot builds, which grow only when it builds more. Only
    the slot's thread writes its lane; other slots read the states in it.
    """

    def __init__(self):
        self._scratch: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._rows: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def scratch(self, size: int) -> tuple[np.ndarray, np.ndarray]:
        """The lane's pad buffer and complex buffer at audio size `size`."""
        if size not in self._scratch:
            pad = dsp.fast_len(2 * size - 1)
            self._scratch[size] = np.empty(pad), np.empty(pad // 2 + 1, complex)
        return self._scratch[size]

    def audio_state(self, row: int, rows: int, x: np.ndarray) -> AudioState:
        """The state of `x`, built in the lane's scratch into row `row` of the
        `rows` rows that the slot builds at x's size."""
        padded, work = self.scratch(x.size)
        if x.size not in self._rows or len(self._rows[x.size][0]) < rows:
            self._rows.pop(x.size, None)  # the last interval's states are released
            self._rows[x.size] = (np.empty((rows, work.size), complex),
                                  np.empty((rows, x.size // 2)))
        spectra, units = self._rows[x.size]
        return _fill_state(x, padded, work, spectra[row], units[row])


def audio_distances(a: AudioState, b: AudioState, peak: float,
                    diff: np.ndarray) -> AudioDistances:
    """Normalized max cross-correlation and time-frequency distance of two
    equal-length states whose correlation peaks at |c| = `peak` over every lag.

    The unit-spectrum difference is formed in the head of `diff`, a float64
    buffer of at least N//2 samples of the caller's, which is overwritten."""
    max_xcorr = float(dsp.normalize_peak(peak, a.sum_sq, b.sum_sq))
    if a.unit_spectrum is None or b.unit_spectrum is None:
        raise UndefinedCorrelation("zero spectrum")
    delta = np.subtract(a.unit_spectrum, b.unit_spectrum, out=diff[:a.unit_spectrum.size])
    freq_distance = float(np.linalg.norm(delta))
    time_distance = 1.0 - max_xcorr
    return AudioDistances(max_xcorr, time_distance, freq_distance,
                          math.hypot(time_distance, freq_distance))


def audio_features(x: AudioSnippet | np.ndarray, y: AudioSnippet | np.ndarray) -> AudioDistances:
    """Full-lag normalized max cross-correlation and time-frequency distance.

    The per-pair form of `build_dataset`'s audio slots, which equal it bit
    for bit."""
    xd = x.as_float() if isinstance(x, AudioSnippet) else np.asarray(x, dtype=np.float64)
    yd = y.as_float() if isinstance(y, AudioSnippet) else np.asarray(y, dtype=np.float64)
    if xd.size != yd.size or xd.size < 2:
        raise ValueError("snippets must be aligned, equal length, and non-trivial")
    a, b = audio_state(xd), audio_state(yd)
    c = dsp.xcorr_spectra(a.spectrum, b.spectrum, a.pad_len)
    return audio_distances(a, b, dsp.lag_peak(c, a.size - 1), np.empty(a.size // 2))


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
                                self.interval_len_s, self.label)


class DeviceInterval(NamedTuple):
    """One device's state in one interval; None marks a modality without usable data."""

    audio: AudioState | None
    wifi: BeaconAggregate | None
    ble: BeaconAggregate | None


def device_interval(dataset: Dataset, device: str, start: int, stop: int,
                    build: Callable[[np.ndarray], AudioState]) -> DeviceInterval:
    """The device's state over [start, stop); `build` makes the audio state
    of its samples."""
    chunk = dataset.audio_in(device, start, stop)
    audio = build(chunk.samples) if chunk is not None else None
    # No scan records at all means a scan error, not an empty environment.
    scans = {kind: dataset.beacons_in(device, kind, start, stop) for kind in ("wifi", "ble")}
    return DeviceInterval(audio, *(BeaconAggregate.from_scans(s, kind) if s else None
                                   for kind, s in scans.items()))


def pair_features(pair: EvaluationRecord, a: DeviceInterval, b: DeviceInterval,
                  peak: float | None, theta: float,
                  scratch: Callable[[int], tuple[np.ndarray, np.ndarray]]
                  ) -> TruongFeatureVector:
    """The feature vector of one pair-interval from its two device states and
    the full-lag peak of their audio correlation (None when not comparable).
    The pad buffer of `scratch(size)`, idle once the peaks are found, holds
    the unit-spectrum difference of audio of that size."""
    wifi, ble = (beacon_features(x, y, theta) if x is not None and y is not None else None
                 for x, y in ((a.wifi, b.wifi), (a.ble, b.ble)))
    audio = None
    if peak is not None:
        try:
            audio = audio_distances(a.audio, b.audio, peak, scratch(a.audio.size)[0])
        except UndefinedCorrelation:
            pass
    return TruongFeatureVector(
        pair.device_a, pair.device_b, pair.interval_start, pair.interval_len_s,
        *((wifi.jaccard, wifi.mean_hamming, wifi.euclidean, wifi.mean_exp,
           wifi.sum_sq_ranks) if wifi else (None,) * 5),
        *((ble.jaccard, ble.euclidean) if ble else (None,) * 2),
        *((audio.max_xcorr, audio.tf_distance) if audio else (None,) * 2),
        pair.label)


def _audio_peaks(pairs: list[EvaluationRecord], states: dict[str, DeviceInterval],
                 scratch: Callable[[int], tuple[np.ndarray, np.ndarray]]) -> list[float | None]:
    """Full-lag peak |c| of each pair's audio correlation, None where either
    side has no audio or the sizes differ; each audio size's pairs are
    correlated in `scratch(size)`, a pad buffer and a complex buffer of that
    size's."""
    peaks: list[float | None] = [None] * len(pairs)
    by_size: dict[int, list[int]] = {}
    for k, p in enumerate(pairs):
        a, b = states[p.device_a].audio, states[p.device_b].audio
        # Audio of unequal length (devices recording at other rates) is not comparable.
        if a is not None and b is not None and a.size == b.size:
            by_size.setdefault(a.size, []).append(k)
    spectra = {d: s.audio.spectrum for d, s in states.items() if s.audio is not None}
    for size, group in by_size.items():
        found = dsp.pair_peaks(spectra, [(pairs[k].device_a, pairs[k].device_b) for k in group],
                               size - 1, *scratch(size))
        for k, peak in zip(group, found):
            peaks[k] = peak
    return peaks


def build_dataset(pairs: list[EvaluationRecord], dataset: Dataset, t: int,
                  theta: float = THETA_DEFAULT) -> list[TruongFeatureVector]:
    """One labeled feature vector per pair-interval, in the order of `pairs`.

    Intervals (runs of `interval_runs`) are taken one at a time. An
    interval's devices are split into one run per worker slot (`_slots`),
    and each slot builds its devices' states once each, across threads
    (`pmap`), into the rows of its own `_Lane`; then its pairs are split the
    same way, each slot correlating its chunk in its lane's scratch. No
    pad-sized array is allocated after the first interval unless a slot
    builds more devices, and the states are released before the next
    interval's are built.
    """
    lanes: list[_Lane] = []

    def one_interval(run: list[EvaluationRecord]) -> list[TruongFeatureVector]:
        start = run[0].interval_start
        devices = list(dict.fromkeys(d for p in run for d in (p.device_a, p.device_b)))

        def slot_states(lane: _Lane, rows: Sequence[int]) -> list[DeviceInterval]:
            return [device_interval(dataset, devices[row], start, start + t * 1000,
                                    partial(lane.audio_state, i, len(rows)))
                    for i, row in enumerate(rows)]

        built = pmap(lambda job: slot_states(*job), _slots(range(len(devices)), lanes))
        states = dict(zip(devices, (state for slot_rows in built for state in slot_rows)))

        def chunk_rows(lane: _Lane, chunk: list[EvaluationRecord]) -> list[TruongFeatureVector]:
            peaks = _audio_peaks(chunk, states, lane.scratch)
            return [pair_features(p, states[p.device_a], states[p.device_b], peak, theta,
                                  lane.scratch)
                    for p, peak in zip(chunk, peaks)]

        chunks = pmap(lambda job: chunk_rows(*job), _slots(run, lanes))
        return [row for rows in chunks for row in rows]

    return [row for run in interval_runs(pairs) for row in one_interval(run)]


def _slots(items: Sequence, lanes: list[_Lane]) -> list[tuple[_Lane, Sequence]]:
    """`items` split in order into min(thread_count(), len(items)) runs, one
    per worker slot, each with the slot's lane; `lanes` grows to the slots."""
    n = min(thread_count(), len(items))
    lanes.extend(_Lane() for _ in range(len(lanes), n))
    return [(lanes[i], items[i * len(items) // n:(i + 1) * len(items) // n]) for i in range(n)]

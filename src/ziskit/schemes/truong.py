"""Multi-modal pair features: beacon set distances plus two audio distances.

WiFi and BLE scans are aggregated per interval into mean RSSI per beacon;
five set distances compare two aggregates. Audio contributes the full-lag
normalized maximum cross-correlation and a time-frequency distance. Feature
slots without usable data carry None rather than a substitute number; only
the both-sides-saw-nothing case maps every distance to the rejection value.

`build_dataset` takes one interval at a time and each audio rate's devices
in two halves, so that about half of the interval's padded spectra are held
at once: every state is built first, and the second half's spectra are then
streamed past the first half's. Each worker slot builds and correlates
through `dsp.pair_peaks` in buffers of its own, allocated on first use and
reused by every interval (`_Lane`). `audio_features` is the per-pair form,
which it equals bit for bit; both build states with the same code, it in
new buffers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Callable, ClassVar, Mapping, NamedTuple, Sequence

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
    unit_spectrum: np.ndarray | None  # |FFT(hamming * x)|[:N//2] over its norm


def audio_state(x: np.ndarray) -> AudioState:
    """The state of samples `x` (float or int16), in new buffers."""
    return _fill_state(x, np.empty(x.size), np.empty(x.size, complex), np.empty(x.size // 2))


def _fill_state(x: np.ndarray, head: np.ndarray, work: np.ndarray,
                unit: np.ndarray) -> AudioState:
    """The state of the N samples `x`, built in scratch of the caller's: `x`
    is cast into `head`, float64 of N samples, and `work`, complex128 of at
    least N bins, is overwritten; the unit spectrum goes into `unit` (N//2)."""
    head[:] = x
    mag = dsp.fft_mag_hamming(head, out=unit, work=work)
    norm = float(np.linalg.norm(mag))
    if norm != 0.0:
        mag /= norm
    return AudioState(x.size, np.dot(head, head), mag if norm != 0.0 else None)


class _Lane:
    """The buffers of one worker slot of a `build_dataset` call, allocated on
    first use and reused by every interval.

    Per audio size N: a pad buffer of fast_len(2N - 1) samples and a complex
    buffer of its pad/2 + 1 bins, the scratch of the slot's state builds,
    transforms and pair correlation; a unit-spectrum row per device the slot
    builds; a padded-spectrum row per first-half device it builds, which
    later take the second half's spectra; and one stream row. A stack grows
    only when the slot builds more into it. Only the slot's thread writes its
    lane; other slots read the states and spectra in it.
    """

    def __init__(self):
        self._scratch: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._stacks: dict[tuple[str, int], np.ndarray] = {}

    def scratch(self, size: int) -> tuple[np.ndarray, np.ndarray]:
        """The lane's pad buffer and complex buffer at audio size `size`."""
        if size not in self._scratch:
            pad = dsp.fast_len(2 * size - 1)
            self._scratch[size] = np.empty(pad), np.empty(pad // 2 + 1, complex)
        return self._scratch[size]

    def _stack(self, name: str, x: np.ndarray, rows: int, dtype: type) -> np.ndarray:
        """The lane's stack `name` at x's size, of at least `rows` rows of
        spectra (complex) or unit spectra (float)."""
        width = self.scratch(x.size)[1].size if dtype is complex else x.size // 2
        key = (name, x.size)
        if key not in self._stacks or len(self._stacks[key]) < rows:
            self._stacks.pop(key, None)  # the last interval's states are released
            self._stacks[key] = np.empty((rows, width), dtype)
        return self._stacks[key]

    def audio_state(self, row: int, rows: int, x: np.ndarray) -> AudioState:
        """The state of `x`, built in the lane's scratch with its unit spectrum
        in row `row` of the `rows` unit-spectrum rows that the slot holds at
        x's size."""
        pad, work = self.scratch(x.size)
        return _fill_state(x, pad[:x.size], work, self._stack("units", x, rows, float)[row])

    def spectrum(self, row: int | None, rows: int, x: np.ndarray) -> np.ndarray:
        """The padded spectrum of `x` (`dsp.padded_spectrum(x, x.size - 1)`),
        cast into the head of the lane's pad buffer, whose tail is zeroed, and
        transformed into row `row` of the `rows` spectrum rows that the slot
        holds at x's size, or into the stream row when `row` is None."""
        padded = self.scratch(x.size)[0]
        padded[:x.size] = x
        padded[x.size:] = 0.0
        return dsp.rfft(padded, out=self._stack("stream", x, 1, complex)[0] if row is None
                        else self._stack("spectra", x, rows, complex)[row])


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
    (fx, pad), (fy, _) = (dsp.padded_spectrum(v, v.size - 1) for v in (xd, yd))
    a, b = audio_state(xd), audio_state(yd)
    c = dsp.xcorr_spectra(fx, fy, pad)
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


def _comparable(pair: EvaluationRecord, states: Mapping[str, DeviceInterval]) -> bool:
    """Whether both devices of `pair` have audio of one size; audio of unequal
    length (devices recording at other rates) is not comparable."""
    a, b = states[pair.device_a].audio, states[pair.device_b].audio
    return a is not None and b is not None and a.size == b.size


def _audio_peaks(pairs: list[EvaluationRecord], states: Mapping[str, DeviceInterval],
                 spectra: Mapping[str, np.ndarray],
                 scratch: Callable[[int], tuple[np.ndarray, np.ndarray]]) -> list[float | None]:
    """Full-lag peak |c| of each pair's audio correlation, None where its audio
    is not `_comparable`; `spectra` holds the padded spectrum of each device of
    a comparable pair, and each audio size's pairs are correlated in
    `scratch(size)`, a pad buffer and a complex buffer of that size's."""
    peaks: list[float | None] = [None] * len(pairs)
    by_size: dict[int, list[int]] = {}
    for k, p in enumerate(pairs):
        if _comparable(p, states):
            by_size.setdefault(states[p.device_a].audio.size, []).append(k)
    for size, group in by_size.items():
        found = dsp.pair_peaks(spectra, [(pairs[k].device_a, pairs[k].device_b) for k in group],
                               size - 1, *scratch(size))
        for k, peak in zip(group, found):
            peaks[k] = peak
    return peaks


def build_dataset(pairs: list[EvaluationRecord], dataset: Dataset, t: int,
                  theta: float = THETA_DEFAULT) -> list[TruongFeatureVector]:
    """One labeled feature vector per pair-interval, in the order of `pairs`.

    Intervals (runs of `interval_runs`) are taken one at a time, and each
    interval's devices are split into two halves per audio rate (`_halves`).
    Every step splits its devices or pairs into one run per worker slot and
    runs the slots across threads (`_per_slot`), each in its own `_Lane`:
    1. every device's state is built, once, into its lane's rows; a
       first-half device's padded spectrum is transformed into its lane's row
       and held, and a second-half device's samples are kept;
    2. the first half's pairs are correlated, and each second-half device's
       padded spectrum is transformed into its lane's stream row and
       correlated at once with its first-half partners;
    3. the padded spectra of the second-half devices that share a comparable
       pair are transformed again from their samples, into the lanes' rows;
       the last device of each size that a slot streamed needs none, as its
       spectrum is still in the stream row;
    4. the second half's pairs are correlated.
    So ceil(D/2) padded spectra of an interval's D devices of one rate are
    held at once, plus one stream row per slot, and every state is built
    once, at the cost of at most floor(D/2) padded transforms more. No
    pad-sized array is allocated after the first interval unless a slot builds
    more devices, and the states are released before the next interval's are.
    """
    lanes: list[_Lane] = []

    def one_interval(run: list[EvaluationRecord]) -> list[TruongFeatureVector]:
        start = run[0].interval_start
        stop = start + t * 1000
        devices = list(dict.fromkeys(d for p in run for d in (p.device_a, p.device_b)))
        first, second = _halves(devices, dataset)
        # Indices of the pairs within the first half (`inner`), across the
        # halves by second-half device (`cross`), and within the second (`last`).
        inner: list[int] = []
        cross: dict[str, list[int]] = {d: [] for d in second}
        last: list[int] = []
        for k, p in enumerate(run):
            a, b = p.device_a in cross, p.device_b in cross
            if a and b:
                last.append(k)
            elif a or b:
                cross[p.device_a if a else p.device_b].append(k)
            else:
                inner.append(k)

        states: dict[str, DeviceInterval] = {}  # each slot of step 1 writes its devices' keys
        held: dict[str, np.ndarray] = {}     # the first half's padded spectra
        samples: dict[str, np.ndarray] = {}  # the second half's samples

        def rows_of(lane: _Lane, ks: Sequence[int],
                    spectra: Mapping[str, np.ndarray]) -> list[tuple[int, TruongFeatureVector]]:
            chunk = [run[k] for k in ks]
            peaks = _audio_peaks(chunk, states, spectra, lane.scratch)
            return [(k, pair_features(p, states[p.device_a], states[p.device_b], peak, theta,
                                      lane.scratch))
                    for k, p, peak in zip(ks, chunk, peaks)]

        def resident(lane: _Lane, firsts: Sequence[str], seconds: Sequence[str]) -> None:
            for i, d in enumerate(chain(firsts, seconds)):
                def build(x: np.ndarray, d: str = d, i: int = i) -> AudioState:
                    state = lane.audio_state(i, len(firsts) + len(seconds), x)
                    if i < len(firsts):
                        held[d] = lane.spectrum(i, len(firsts), x)
                    else:
                        samples[d] = x
                    return state

                states[d] = device_interval(dataset, d, start, stop, build)

        # `_runs` puts its longer runs last, so the second half's go in reverse.
        slots = _runs(first)
        _per_slot(resident, lanes, slots, _runs(second, len(slots))[::-1])

        def streamed(lane: _Lane, devs: Sequence[str], ks: Sequence[int]):
            found = rows_of(lane, ks, held)
            live: dict[int, tuple[str, np.ndarray]] = {}  # the stream row's device, by size
            for d in devs:
                own = {}
                if d in samples:
                    own[d] = lane.spectrum(None, 1, samples[d])
                    live[samples[d].size] = d, own[d]
                found += rows_of(lane, cross[d], {**held, **own})
            return found, dict(live.values())

        done = _per_slot(streamed, lanes, *_stream_jobs(second, inner, cross))
        late = {d: spectrum for _, live in done for d, spectrum in live.items()}
        for d in late:
            del samples[d]

        def again(lane: _Lane, devs: Sequence[str]) -> list[np.ndarray]:
            return [lane.spectrum(i, len(devs), samples.pop(d)) for i, d in enumerate(devs)]

        # Only devices of a comparable second-half pair need their spectrum,
        # and the last one of each size that a slot streamed still has it.
        redone = [d for d in dict.fromkeys(d for k in last if _comparable(run[k], states)
                                           for d in (run[k].device_a, run[k].device_b))
                  if d not in late]
        late.update(zip(redone, chain.from_iterable(_per_slot(again, lanes, _runs(redone)))))
        tail = _per_slot(lambda lane, ks: rows_of(lane, ks, late), lanes, _runs(last))
        out: list[TruongFeatureVector | None] = [None] * len(run)
        for k, row in chain.from_iterable([found for found, _ in done] + tail):
            out[k] = row
        return out

    return [row for run in interval_runs(pairs) for row in one_interval(run)]


def _halves(devices: list[str], dataset: Dataset) -> tuple[list[str], list[str]]:
    """`devices` split per audio rate, in order, into a first half of the first
    ceil(n/2) of each rate's n devices and a second half of the rest; devices
    without a recording count as one rate. A rate's full-interval audio has
    one size, t x rate."""
    by_rate: dict[int | None, list[str]] = {}
    for d in devices:
        recording = dataset.audio.get(d)
        by_rate.setdefault(recording.rate_hz if recording is not None else None, []).append(d)
    first = {d for group in by_rate.values() for d in group[:(len(group) + 1) // 2]}
    return [d for d in devices if d in first], [d for d in devices if d not in first]


def _runs(items: Sequence, n: int | None = None) -> list[Sequence]:
    """`items` split in order into n runs whose lengths differ by at most one,
    by default one per worker slot: min(thread_count(), len(items))."""
    n = min(thread_count(), len(items)) if n is None else n
    return [items[i * len(items) // n:(i + 1) * len(items) // n] for i in range(n)]


def _stream_jobs(second: list[str], inner: list[int], cross: Mapping[str, list[int]]
                 ) -> tuple[list[Sequence[str]], list[list[int]]]:
    """The second-half devices and the first-half pair indices of each worker
    slot of step 2: the devices in runs (`_runs`), then each pair to the slot
    with the least work so far, counting a pair as one inverse transform and
    a streamed device as its pairs plus one for its padded transform."""
    streams = _runs(second, min(thread_count(), len(second) + len(inner)))
    loads = [sum(1 + len(cross[d]) for d in devs) for devs in streams]
    chunks: list[list[int]] = [[] for _ in streams]
    for k in inner:
        i = loads.index(min(loads))
        chunks[i].append(k)
        loads[i] += 1
    return streams, chunks


def _per_slot(fn: Callable, lanes: list[_Lane], *runs: Sequence) -> list:
    """fn(lanes[i], runs[0][i], runs[1][i], ...) of each worker slot i, in
    order, across threads (`pmap`); there is one slot per run of runs[0], and
    `lanes` grows to them."""
    n = len(runs[0])
    lanes.extend(_Lane() for _ in range(len(lanes), n))
    return pmap(lambda i: fn(lanes[i], *(r[i] for r in runs)), range(n))

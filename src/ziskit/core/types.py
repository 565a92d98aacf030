"""Domain types: audio snippets, sensor series, beacon scans, ground truth.

All types are immutable after construction and validate their invariants
eagerly, so downstream feature code can assume well-formed data.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from ziskit.errors import IncompatibleFingerprints, InvariantViolation

INT16_MIN = -32768
INT16_MAX = 32767


class SensorKind(str, enum.Enum):
    TEMPERATURE = "temperature"
    HUMIDITY = "humidity"
    PRESSURE = "pressure"
    LUMINOSITY = "luminosity"
    # Derived channel: windowed mean absolute audio amplitude.
    NOISE = "noise"


class Label(str, enum.Enum):
    COLOCATED = "colocated"
    NON_COLOCATED = "non_colocated"


class Recording:
    """Mono 16-bit audio on an epoch-millisecond timeline.

    A subclass holds `rate_hz`, `start_time` (epoch milliseconds of frame 0),
    `device_id` and `n_frames`, and `read(i0, i1)` returns frames [i0, i1)
    as int16, for i1 <= n_frames or i1 == i0. The timeline arithmetic is
    written here once, for samples in memory (`AudioSnippet`) and samples
    read from a file a range at a time (`ziskit.core.io.WavRecording`).
    """

    @property
    def end_time(self) -> int:
        return self.start_time + int(round(self.n_frames * 1000 / self.rate_hz))

    def frame_range(self, start_ms: int, end_ms: int) -> tuple[int, int]:
        """Indices [i0, i1) of the frames whose timestamps fall in [start_ms, end_ms)."""
        i0 = max(0, int(np.ceil((start_ms - self.start_time) * self.rate_hz / 1000)))
        i1 = min(self.n_frames, int(np.ceil((end_ms - self.start_time) * self.rate_hz / 1000)))
        return i0, max(i0, i1)

    def slice_ms(self, start_ms: int, end_ms: int) -> "AudioSnippet":
        """Samples whose timestamps fall in [start_ms, end_ms); only they are read."""
        i0, i1 = self.frame_range(start_ms, end_ms)
        return AudioSnippet(
            samples=self.read(i0, i1),
            rate_hz=self.rate_hz,
            start_time=self.start_time + int(round(i0 * 1000 / self.rate_hz)),
            device_id=self.device_id,
        )


@dataclass(frozen=True)
class AudioSnippet(Recording):
    """Mono PCM audio in memory, with epoch timestamps.

    Attributes:
        samples: signed 16-bit amplitudes, shape (N,).
        rate_hz: sampling rate, 16000 canonical.
        start_time: epoch milliseconds of the first sample.
        device_id: recording device.
    """

    samples: np.ndarray
    rate_hz: int
    start_time: int
    device_id: str

    def __post_init__(self):
        samples = np.asarray(self.samples)
        if self.rate_hz <= 0:
            raise InvariantViolation(f"rate_hz must be positive, got {self.rate_hz}")
        if samples.ndim != 1:
            raise InvariantViolation("samples must be one-dimensional")
        if samples.size and (samples.min() < INT16_MIN or samples.max() > INT16_MAX):
            raise InvariantViolation("amplitudes outside signed 16-bit range")
        object.__setattr__(self, "samples", samples.astype(np.int16, copy=False))

    @property
    def n_frames(self) -> int:
        return self.samples.size

    def read(self, i0: int, i1: int) -> np.ndarray:
        return self.samples[i0:i1]

    def as_float(self) -> np.ndarray:
        return self.samples.astype(np.float64)


@dataclass(frozen=True)
class SensorSeries:
    """Timestamped scalar readings of one kind for one device."""

    kind: SensorKind
    timestamps_ms: np.ndarray
    values: np.ndarray
    device_id: str

    def __post_init__(self):
        t = np.asarray(self.timestamps_ms, dtype=np.int64)
        v = np.asarray(self.values, dtype=np.float64)
        if t.shape != v.shape or t.ndim != 1:
            raise InvariantViolation("timestamps and values must be equal-length 1-d arrays")
        if not np.all(t[1:] > t[:-1]):
            raise InvariantViolation(f"{self.kind.value} timestamps not strictly increasing")
        if not np.all(np.isfinite(v)):
            raise InvariantViolation(f"{self.kind.value} readings contain non-finite values")
        if self.kind is SensorKind.PRESSURE and v.size and v.min() <= 0:
            raise InvariantViolation("pressure readings must be positive")
        if self.kind is SensorKind.HUMIDITY and v.size and (v.min() < 0 or v.max() > 100):
            raise InvariantViolation("humidity readings must lie in [0, 100]")
        if self.kind is SensorKind.LUMINOSITY and v.size and v.min() < 0:
            raise InvariantViolation("luminosity readings must be non-negative")
        object.__setattr__(self, "timestamps_ms", t)
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return int(self.timestamps_ms.size)


# The largest |RSSI| in dBm that a scan or an RSSI flag takes: 1000 dBm is
# 10^97 W, far beyond any radio, and within it every beacon distance is finite.
RSSI_LIMIT_DBM = 1000.0


@dataclass(frozen=True)
class BeaconScan:
    """One WiFi or BLE scan: identifier -> RSSI dBm at a timestamp."""

    kind: str
    time: int
    observations: dict[str, float]

    def __post_init__(self):
        if self.kind not in ("wifi", "ble"):
            raise InvariantViolation(f"unknown beacon kind {self.kind!r}")
        for ident, rssi in self.observations.items():
            if not abs(rssi) <= RSSI_LIMIT_DBM:  # NaN too
                raise InvariantViolation(
                    f"RSSI {rssi} for {ident!r} outside +-{RSSI_LIMIT_DBM} dBm")


def _merge_ranges(ranges: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Sort and coalesce [start, end) ranges."""
    merged: list[tuple[int, int]] = []
    for s, e in sorted(ranges):
        if s >= e:
            raise InvariantViolation(f"empty/inverted time range [{s}, {e})")
        if merged and s <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], e))
        else:
            merged.append((s, e))
    return merged


def _covered_within(merged: list[tuple[int, int]], start: int, end: int) -> list[tuple[int, int]]:
    """Portions of [start, end) covered by a merged range list."""
    out = []
    for s, e in merged:
        lo, hi = max(s, start), min(e, end)
        if lo < hi:
            out.append((lo, hi))
    return out


@dataclass(frozen=True)
class Group:
    group_id: str
    members: tuple[str, ...]
    ranges: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class Subscenario:
    name: str
    ranges: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class GroundTruth:
    """Colocation groups and named subscenario time ranges."""

    groups: tuple[Group, ...]
    subscenarios: tuple[Subscenario, ...] = ()

    def __post_init__(self):
        norm_groups = tuple(
            Group(g.group_id, tuple(g.members), tuple(_merge_ranges(list(g.ranges))))
            for g in self.groups
        )
        object.__setattr__(self, "groups", norm_groups)
        names = [s.name for s in self.subscenarios]
        # "full" names the whole-timeline row of results.csv and its curve file.
        if "full" in names or len(set(names)) != len(names):
            raise InvariantViolation(
                f"subscenario names must be unique and not 'full', got {names}")
        norm_subs = []
        for s in self.subscenarios:
            merged = _merge_ranges(list(s.ranges))
            # Overlaps shrink the union; touching ranges such as [0, 10), [10, 20) do not.
            if sum(e - b for b, e in set(s.ranges)) != sum(e - b for b, e in merged):
                raise InvariantViolation(f"subscenario {s.name!r} has overlapping ranges")
            norm_subs.append(Subscenario(s.name, tuple(merged)))
        object.__setattr__(self, "subscenarios", tuple(norm_subs))
        self._check_exclusive_membership()

    def _check_exclusive_membership(self):
        # A device may belong to at most one group at any instant.
        for i, g in enumerate(self.groups):
            for h in self.groups[i + 1:]:
                shared = set(g.members) & set(h.members)
                if not shared:
                    continue
                for gs, ge in g.ranges:
                    for hs, he in h.ranges:
                        if max(gs, hs) < min(ge, he):
                            raise InvariantViolation(
                                f"devices {sorted(shared)} in groups {g.group_id!r} and "
                                f"{h.group_id!r} simultaneously"
                            )

    def subscenario(self, name: str) -> Subscenario:
        for s in self.subscenarios:
            if s.name == name:
                return s
        from ziskit.errors import NotFound

        raise NotFound(f"unknown subscenario {name!r}")

    def _together(self, devices: tuple[str, ...], start: int, end: int) -> int:
        """Length of [start, end) during which all `devices` share a group."""
        covered = [r for g in self.groups if all(d in g.members for d in devices)
                   for r in _covered_within(list(g.ranges), start, end)]
        return sum(e - s for s, e in _merge_ranges(covered))

    def label_for(self, a: str, b: str, start: int, end: int) -> Label | None:
        """Colocation label for [start, end), or None when the interval is mixed.

        colocated: the pair shares a group for the whole interval.
        non_colocated: both devices are grouped for the whole interval and
        never share a group. Anything else (partial overlap, ungrouped gaps)
        yields None and the pair-interval is dropped.
        """
        span = end - start
        shared = self._together((a, b), start, end)
        if shared == span:
            return Label.COLOCATED
        if shared == 0 and self._together((a,), start, end) == span \
                and self._together((b,), start, end) == span:
            return Label.NON_COLOCATED
        return None


@dataclass(frozen=True)
class EvaluationRecord:
    """One device pair in one aligned interval, its ground-truth label and score.

    A record without a score is unscored (not yet scored, or gated).
    """

    device_a: str
    device_b: str
    interval_start: int
    interval_len_s: int
    label: Label
    score: float | None = None

    def __post_init__(self):
        if self.device_a == self.device_b:
            raise InvariantViolation("pair must consist of two distinct devices")

    @property
    def gated(self) -> bool:
        """No score: the pair-interval is not scored yet, or was gated."""
        return self.score is None


@dataclass(frozen=True)
class Fingerprint:
    """Fixed-length bit vector with generation metadata."""

    bits: np.ndarray
    device_id: str
    interval_start: int

    def __post_init__(self):
        bits = np.asarray(self.bits, dtype=np.uint8)
        if bits.ndim != 1 or not np.all((bits == 0) | (bits == 1)):
            raise InvariantViolation("bits must be a 1-d 0/1 vector")
        object.__setattr__(self, "bits", bits)

    def __len__(self) -> int:
        return int(self.bits.size)

    def to_hex(self) -> str:
        """Lowercase hex, most-significant bit of byte 0 = bit 0."""
        return np.packbits(self.bits).tobytes().hex()

    @classmethod
    def from_hex(cls, hex_bits: str, n_bits: int, device_id: str,
                 interval_start: int) -> "Fingerprint":
        """The inverse of `to_hex`: `n_bits` >= 1 bits in exactly the whole bytes
        they need, with the pad bits after them 0."""
        if n_bits < 1:
            raise InvariantViolation(f"need at least 1 bit, got {n_bits}")
        width = 2 * -(-n_bits // 8)
        # isalnum() excludes the whitespace that bytes.fromhex would skip.
        if len(hex_bits) != width or not hex_bits.isalnum():
            raise InvariantViolation(
                f"{n_bits} bits take {width} hex digits, got {hex_bits!r}")
        unpacked = np.unpackbits(np.frombuffer(bytes.fromhex(hex_bits), dtype=np.uint8))
        if unpacked[n_bits:].any():
            raise InvariantViolation(f"pad bits after bit {n_bits} are not 0")
        return cls(unpacked[:n_bits], device_id, interval_start)


def common_length(fingerprints: list[Fingerprint]) -> int:
    """The bit count of the first fingerprint, which every other one must share;
    IncompatibleFingerprints names the first that does not."""
    n_bits = len(fingerprints[0])
    for fp in fingerprints:
        if len(fp) != n_bits:
            raise IncompatibleFingerprints(
                f"fingerprints must share one length: {fp.device_id!r} at "
                f"{fp.interval_start} ms has {len(fp)} bits, the first has {n_bits}")
    return n_bits


@dataclass(frozen=True)
class Dataset:
    """Validated collections for one scenario plus ground truth.

    Each device's audio is a `Recording`: `AudioSnippet`s in memory, or the
    `WavRecording`s of `load_dataset`, which hold a file's header and read
    only the frames a caller asks for. Spans use only a recording's start,
    rate and frame count, so nothing here reads a sample but `audio_in`.
    """

    audio: dict[str, Recording] = field(default_factory=dict)
    sensors: dict[str, dict[SensorKind, SensorSeries]] = field(default_factory=dict)
    beacons: dict[str, list[BeaconScan]] = field(default_factory=dict)
    ground_truth: GroundTruth = GroundTruth(groups=())

    def device_ids(self) -> list[str]:
        ids = set(self.audio) | set(self.sensors) | set(self.beacons)
        return sorted(ids)

    def device_span(self, device: str) -> tuple[int, int] | None:
        """Earliest and latest data timestamp of a device, or None if no data."""
        starts, ends = [], []
        snip = self.audio.get(device)
        if snip is not None and snip.n_frames:
            starts.append(snip.start_time)
            ends.append(snip.end_time)
        for series in self.sensors.get(device, {}).values():
            if len(series):
                starts.append(int(series.timestamps_ms[0]))
                ends.append(int(series.timestamps_ms[-1]))
        scans = self.beacons.get(device, [])
        if scans:
            starts.append(min(s.time for s in scans))
            ends.append(max(s.time for s in scans))
        if not starts:
            return None
        return min(starts), max(ends)

    def audio_in(self, device: str, start: int, end: int) -> AudioSnippet | None:
        """The device's audio over [start, end), or None when missing or short."""
        snip = self.audio.get(device)
        chunk = snip.slice_ms(start, end) if snip is not None else None
        full = chunk is not None and chunk.samples.size >= (end - start) * snip.rate_hz // 1000
        return chunk if full else None

    def beacons_in(self, device: str, kind: str, start: int, end: int) -> list[BeaconScan]:
        return [s for s in self.beacons.get(device, [])
                if s.kind == kind and start <= s.time < end]

"""Dataset ingestion: manifest-driven loading of WAV/CSV/JSONL/JSON files.

WAV files are read and written with the standard library's `wave` and
numpy, so loading a dataset imports no scipy module. A loaded WAV file is
its header: `WavRecording` reads the frames of a range when asked.
"""

from __future__ import annotations

import json
import os
import struct
import wave
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO

import numpy as np

from ziskit.core.types import (
    AudioSnippet,
    BeaconScan,
    Dataset,
    GroundTruth,
    Group,
    Recording,
    SensorKind,
    SensorSeries,
    Subscenario,
)
from ziskit.errors import InvariantViolation, MissingInput, ParseError
from ziskit.table import Column, read_table, real, write_table

MANIFEST_NAME = "manifest.json"
# Timestamps are epoch milliseconds held in int64.
_INT64 = np.iinfo(np.int64)
_WAVE_FORMAT_PCM = 1  # integer PCM; 3 is IEEE float, 0xFFFE WAVE_FORMAT_EXTENSIBLE


def _require(path: Path) -> Path:
    if not path.exists():
        raise MissingInput(f"missing input file: {path}")
    return path


@dataclass(frozen=True)
class WavRecording(Recording):
    """The audio of a mono 16-bit PCM WAV file, read a range of frames at a time.

    `offset` is the byte offset of the data chunk's first frame, and
    `n_frames` the whole frames the file held when `open_wav` read its
    header. Each `read` opens the file on its own handle, so threads share
    nothing; a file that has since lost frames is a ParseError naming it.
    """

    path: Path
    offset: int
    n_frames: int
    rate_hz: int
    start_time: int
    device_id: str

    def read(self, i0: int, i1: int) -> np.ndarray:
        out = np.empty(i1 - i0, dtype=np.int16)
        if out.size:
            with open(self.path, "rb") as fh:
                fh.seek(self.offset + 2 * i0)
                if fh.readinto(out) != out.nbytes:
                    raise ParseError(f"WAV file lost frames after it was loaded: frames "
                                     f"[{i0}, {i1}) of {self.n_frames} are not all there",
                                     path=str(self.path))
        return out


def open_wav(path: Path, device_id: str, start_ms: int) -> WavRecording:
    """The header of a mono 16-bit PCM WAV file, checked; no sample is read.

    Anything else, a malformed or truncated header included, raises ParseError
    naming the file. WAVE_FORMAT_EXTENSIBLE is refused on every Python version
    (`wave` reads it only from 3.12 on). A data chunk shorter than its header
    declares holds the whole frames that are present.
    """
    _require(path)
    try:
        with open(path, "rb") as fh, wave.open(fh) as wav:
            width, channels, rate = wav.getsampwidth(), wav.getnchannels(), wav.getframerate()
            tag, offset, declared = _pcm_layout(fh)
            present = os.fstat(fh.fileno()).st_size - offset
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
    if rate <= 0:
        raise ParseError(f"rate_hz must be positive, got {rate}", path=str(path))
    return WavRecording(path, offset, min(declared, present) // 2, rate, start_ms, device_id)


def _pcm_layout(fh: BinaryIO) -> tuple[int, int, int]:
    """The format tag of the 'fmt ' chunk of a RIFF file `wave` has opened, the
    byte offset of its 'data' chunk's payload, and the payload's byte count as
    its header and the RIFF chunk's bound it.

    `wave` found both chunks, 'fmt ' first, so every chunk header on the way
    is whole.
    """
    fh.seek(4)
    riff_end = 8 + struct.unpack("<I", fh.read(4))[0]
    fh.seek(12)  # past "RIFF", the RIFF size and "WAVE"
    tag = None
    while True:
        name, size = struct.unpack("<4sI", fh.read(8))
        if name == b"data":
            return tag, fh.tell(), min(size, riff_end - fh.tell())
        if name == b"fmt " and tag is None:
            tag = struct.unpack("<H", fh.read(2))[0]
            fh.seek(-2, 1)
        fh.seek(size + size % 2, 1)  # chunks are padded to even length


def write_wav(path: Path, snippet: AudioSnippet) -> None:
    """Write mono 16-bit PCM; the bytes equal those of scipy.io.wavfile.write."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with wave.open(str(path), "wb") as wav:
        wav.setnchannels(1)
        wav.setsampwidth(2)
        wav.setframerate(snippet.rate_hz)
        wav.writeframes(np.ascontiguousarray(snippet.samples, dtype=np.int16))


def _int64(cell: str) -> int:
    value = int(cell)
    if not _INT64.min <= value <= _INT64.max:
        raise ValueError(f"{cell!r} does not fit int64")
    return value


SENSOR_COLUMNS = (Column("timestamp_ms", _int64), real("value"))


def read_sensor_csv(path: Path, kind: SensorKind, device_id: str) -> SensorSeries:
    rows = list(read_table(_require(path), SENSOR_COLUMNS))
    try:
        return SensorSeries(kind, np.array([t for t, _ in rows], dtype=np.int64),
                            np.array([v for _, v in rows], dtype=np.float64), device_id)
    except InvariantViolation as exc:
        raise InvariantViolation(f"{path}: {exc}") from exc


def write_sensor_csv(path: Path, series: SensorSeries) -> None:
    write_table(path, SENSOR_COLUMNS, zip(series.timestamps_ms, series.values),
                line_end="\n")


def read_beacons_jsonl(path: Path) -> list[BeaconScan]:
    _require(path)
    scans = []
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                rec = json.loads(line)
                obs = {o["id"]: float(o["rssi"]) for o in rec["obs"]}
                if len(obs) != len(rec["obs"]):
                    raise InvariantViolation("duplicate beacon identifiers in one scan")
                scans.append(BeaconScan(kind=rec["kind"], time=int(rec["t"]), observations=obs))
            # ValueError covers UnicodeDecodeError, OverflowError a time of Infinity,
            # and InvariantViolation a bad kind, RSSI or repeated identifier.
            except (KeyError, ValueError, TypeError, OverflowError, InvariantViolation) as exc:
                raise ParseError(f"bad scan record: {exc}", path=str(path), line=lineno) from exc
    return scans


def write_beacons_jsonl(path: Path, scans: list[BeaconScan]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for scan in scans:
            obs = [{"id": i, "rssi": r} for i, r in sorted(scan.observations.items())]
            fh.write(json.dumps({"t": scan.time, "kind": scan.kind, "obs": obs},
                                sort_keys=True) + "\n")


def read_ground_truth(path: Path) -> GroundTruth:
    _require(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
        groups = tuple(
            Group(g["id"], tuple(g["members"]),
                  tuple((int(s), int(e)) for s, e in g["ranges"]))
            for g in raw.get("groups", [])
        )
        subs = tuple(
            Subscenario(s["name"], tuple((int(a), int(b)) for a, b in s["ranges"]))
            for s in raw.get("subscenarios", [])
        )
    except (KeyError, ValueError, TypeError, json.JSONDecodeError) as exc:
        raise ParseError(f"bad ground truth: {exc}", path=str(path)) from exc
    try:
        return GroundTruth(groups=groups, subscenarios=subs)
    except InvariantViolation as exc:
        raise InvariantViolation(f"{path}: {exc}") from exc


def write_ground_truth(path: Path, gt: GroundTruth) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "groups": [
            {"id": g.group_id, "members": list(g.members),
             "ranges": [list(r) for r in g.ranges]}
            for g in gt.groups
        ],
        "subscenarios": [
            {"name": s.name, "ranges": [list(r) for r in s.ranges]}
            for s in gt.subscenarios
        ],
    }
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def load_dataset(root_path: str | Path) -> Dataset:
    """Load and validate the dataset that `manifest.json` under `root_path` describes.

    The manifest maps device ids to relative file paths:

        {"devices": [{"id": "d00",
                      "audio": {"path": "audio/d00.wav", "start_ms": 0},
                      "sensors": {"temperature": "sensors/d00_temperature.csv"},
                      "beacons": "beacons/d00.jsonl"}],
         "ground_truth": "ground_truth.json"}

    A device id is any text that UTF-8 encodes, without `|`, the pair
    separator of the pair tables. An empty manifest yields an empty Dataset;
    a malformed one raises ParseError naming it, as does an audio `start_ms`
    at which the recording would start or end outside int64 milliseconds.
    Of each WAV file only the header is read and checked (`open_wav`): the
    dataset's audio reads its frames when a caller asks for a time range.
    """
    root = Path(root_path)
    devices, gt_path = _read_manifest(root)
    audio: dict[str, WavRecording] = {}
    sensors: dict[str, dict[SensorKind, SensorSeries]] = {}
    beacons: dict[str, list[BeaconScan]] = {}
    for dev_id, wav, sensor_files, jsonl in devices:
        if wav is not None:
            audio[dev_id] = open_wav(wav[0], dev_id, wav[1])
            if audio[dev_id].end_time > _INT64.max:
                raise ParseError(f"bad manifest: audio of device {dev_id!r} starting at "
                                 f"{wav[1]} ms ends past int64 milliseconds",
                                 path=str(root / MANIFEST_NAME))
        for kind, path in sensor_files:
            sensors.setdefault(dev_id, {})[kind] = read_sensor_csv(path, kind, dev_id)
        if jsonl is not None:
            beacons[dev_id] = read_beacons_jsonl(jsonl)
    gt = read_ground_truth(gt_path) if gt_path is not None else GroundTruth(groups=())
    return Dataset(audio=audio, sensors=sensors, beacons=beacons, ground_truth=gt)


def load_ground_truth(root_path: str | Path) -> GroundTruth:
    """The ground truth of the dataset under `root_path`. The manifest is checked
    as `load_dataset` checks it, and no audio, sensor or beacon file is opened."""
    _, gt_path = _read_manifest(Path(root_path))
    return read_ground_truth(gt_path) if gt_path is not None else GroundTruth(groups=())


def _read_manifest(root: Path) -> tuple[list[tuple], Path | None]:
    """The `_device_files` of each manifest device, and the ground truth path."""
    manifest_path = _require(root / MANIFEST_NAME)
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        devices = [_device_files(root, dev) for dev in manifest.get("devices", [])]
        gt_path = root / manifest["ground_truth"] if "ground_truth" in manifest else None
    except (AttributeError, KeyError, TypeError, ValueError) as exc:  # bad JSON or bytes too
        raise ParseError(f"bad manifest: {exc!r}", path=str(manifest_path)) from exc
    return devices, gt_path


def _device_files(root: Path, dev: dict) -> tuple:
    """(id, (wav, start_ms) or None, [(kind, csv)], jsonl or None) of a manifest device."""
    if not isinstance(dev["id"], str):
        raise TypeError(f"device id {dev['id']!r} is not a string")
    if "|" in dev["id"]:  # pair tables write a pair as `devA|devB`
        raise ValueError(f"device id {dev['id']!r} contains '|'")
    dev["id"].encode("utf-8")  # tables are UTF-8: a lone surrogate raises a ValueError
    wav = dev.get("audio")
    if wav is not None:
        if not isinstance(wav, dict):
            raise TypeError(f"audio of device {dev['id']!r} is not an object")
        wav = (root / wav["path"], int(wav.get("start_ms", 0)))
        if not _INT64.min <= wav[1] <= _INT64.max:
            raise ValueError(f"audio start_ms {wav[1]} of device {dev['id']!r} "
                             "does not fit int64")
    sensor_files = [(SensorKind(kind), root / rel) for kind, rel in dev.get("sensors", {}).items()]
    jsonl = root / dev["beacons"] if "beacons" in dev else None
    return dev["id"], wav, sensor_files, jsonl

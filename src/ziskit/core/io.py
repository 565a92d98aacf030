"""Dataset ingestion: manifest-driven loading of WAV/CSV/JSONL/JSON files."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from ziskit.core.types import (
    AudioSnippet,
    BeaconScan,
    Dataset,
    GroundTruth,
    Group,
    SensorKind,
    SensorSeries,
    Subscenario,
)
from ziskit.errors import InvariantViolation, MissingInput, ParseError

MANIFEST_NAME = "manifest.json"


def _require(path: Path) -> Path:
    if not path.exists():
        raise MissingInput(f"missing input file: {path}")
    return path


def read_wav(path: Path, device_id: str, start_ms: int = 0) -> AudioSnippet:
    from scipy.io import wavfile

    _require(path)
    rate, data = wavfile.read(str(path))
    if data.dtype != np.int16:
        raise ParseError(f"expected 16-bit PCM, got {data.dtype}", path=str(path))
    if data.ndim != 1:
        raise ParseError("expected mono audio", path=str(path))
    return AudioSnippet(samples=data, rate_hz=int(rate), start_time=start_ms, device_id=device_id)


def write_wav(path: Path, snippet: AudioSnippet) -> None:
    from scipy.io import wavfile

    path.parent.mkdir(parents=True, exist_ok=True)
    wavfile.write(str(path), snippet.rate_hz, snippet.samples)


def read_sensor_csv(path: Path, kind: SensorKind, device_id: str) -> SensorSeries:
    _require(path)
    timestamps, values = [], []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "timestamp_ms,value":
            raise ParseError(f"bad header {header!r}", path=str(path), line=1)
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            try:
                timestamps.append(int(parts[0]))
                values.append(float(parts[1]))
            except (ValueError, IndexError) as exc:
                raise ParseError(f"bad row: {exc}", path=str(path), line=lineno) from exc
    try:
        return SensorSeries(kind, np.array(timestamps, dtype=np.int64),
                            np.array(values), device_id)
    except InvariantViolation as exc:
        raise InvariantViolation(f"{path}: {exc}") from exc


def write_sensor_csv(path: Path, series: SensorSeries) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("timestamp_ms,value\n")
        for t, v in zip(series.timestamps_ms, series.values):
            fh.write(f"{int(t)},{float(v)!r}\n")


def read_beacons_jsonl(path: Path, device_id: str) -> list[BeaconScan]:
    _require(path)
    scans = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                obs = {o["id"]: float(o["rssi"]) for o in rec["obs"]}
                if len(obs) != len(rec["obs"]):
                    raise InvariantViolation("duplicate beacon identifiers in one scan")
                scans.append(BeaconScan(kind=rec["kind"], time=int(rec["t"]),
                                        observations=obs, device_id=device_id))
            except (KeyError, ValueError, TypeError, json.JSONDecodeError) as exc:
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
    return GroundTruth(groups=groups, subscenarios=subs)


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


def load_dataset(root_path: str | Path, manifest: dict | str | Path | None = None) -> Dataset:
    """Load and validate a dataset described by a manifest.

    The manifest maps device ids to relative file paths:

        {"devices": [{"id": "d00",
                      "audio": {"path": "audio/d00.wav", "start_ms": 0},
                      "sensors": {"temperature": "sensors/d00_temperature.csv"},
                      "beacons": "beacons/d00.jsonl"}],
         "ground_truth": "ground_truth.json"}

    `manifest` may be the parsed dict, a path to a manifest JSON, or None to
    read `manifest.json` under `root_path`. An empty manifest yields an empty
    Dataset.
    """
    root = Path(root_path)
    if manifest is None:
        manifest = root / MANIFEST_NAME
    if isinstance(manifest, (str, Path)):
        mpath = _require(Path(manifest))
        try:
            manifest = json.loads(mpath.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad manifest: {exc}", path=str(mpath)) from exc

    audio: dict[str, AudioSnippet] = {}
    sensors: dict[str, dict[SensorKind, SensorSeries]] = {}
    beacons: dict[str, list[BeaconScan]] = {}
    for dev in manifest.get("devices", []):
        dev_id = dev["id"]
        if "audio" in dev:
            entry = dev["audio"]
            if isinstance(entry, str):
                path, start_ms = root / entry, 0
            else:
                path, start_ms = root / entry["path"], int(entry.get("start_ms", 0))
            audio[dev_id] = read_wav(path, dev_id, start_ms)
        for kind_name, rel in dev.get("sensors", {}).items():
            kind = SensorKind(kind_name)
            sensors.setdefault(dev_id, {})[kind] = read_sensor_csv(root / rel, kind, dev_id)
        if "beacons" in dev:
            beacons[dev_id] = read_beacons_jsonl(root / dev["beacons"], dev_id)

    gt = GroundTruth(groups=())
    if "ground_truth" in manifest:
        gt = read_ground_truth(root / manifest["ground_truth"])
    return Dataset(audio=audio, sensors=sensors, beacons=beacons, ground_truth=gt)

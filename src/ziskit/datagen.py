"""Synthetic multi-device scenario generator.

Each group shares one ambient audio process (band-limited noise with a slowly
wandering level plus distinct bursts), one random walk per sensor modality,
and one beacon population; every group draws them from the one
AmbientProfile of the scenario. Devices add private gains, offsets, dropout
and measurement noise. Audio is sampled at RATE_HZ, sensors every
SENSOR_PERIOD_MS and beacon scans every BEACON_PERIOD_S, from START_EPOCH_MS
on. The cross-group leakage coefficient scales how much of a foreign group's
context a device observes: audio events leak at amplitude `leakage`, foreign
beacons appear with probability scaled by `leakage` and attenuated by
(1 - leakage) * 25 dB, and sensor walks blend a common component with weight
`leakage`.

Outputs use the toolkit's on-disk formats (WAV, CSV, JSONL, ground truth and
manifest JSON) and are byte-identical for a fixed seed.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from ziskit import dsp
from ziskit.core import io as zio
from ziskit.core.types import (
    AudioSnippet,
    BeaconScan,
    GroundTruth,
    Group,
    SensorKind,
    SensorSeries,
    Subscenario,
)
from ziskit.errors import InvariantViolation

RATE_HZ = 16000
SENSOR_PERIOD_MS = 500
BEACON_PERIOD_S = 10
START_EPOCH_MS = 1_600_000_000_000
FOREIGN_BEACON_ATTENUATION_DB = 25.0
# Upper bounds of the ambient profile: ten bursts a second, and a noise floor
# whose noise alone (rms 10**6) clips every int16 sample.
MAX_EVENT_RATE_PER_MIN = 600.0
MAX_NOISE_FLOOR_DB = 120.0
# The longest scenario whose float64 audio buffer, the first one generated,
# has a size in bytes that fits int64, numpy's limit for any array.
MAX_DURATION_S = np.iinfo(np.int64).max // (RATE_HZ * np.dtype(np.float64).itemsize)

_SENSOR_BASE = {"temperature": 22.0, "humidity": 40.0,
                "pressure": 1005.0, "luminosity": 300.0}
_SENSOR_VOLATILITY = {"temperature": 0.05, "humidity": 0.12,
                      "pressure": 0.02, "luminosity": 6.0}
_SENSOR_OFFSET_STD = {"temperature": 0.5, "humidity": 1.2,
                      "pressure": 0.15, "luminosity": 15.0}
_SENSOR_JITTER_STD = {"temperature": 0.02, "humidity": 0.05,
                      "pressure": 0.01, "luminosity": 2.0}


@dataclass(frozen=True)
class AmbientProfile:
    """Ambient context of every group."""

    event_rate_per_min: float = 30.0
    event_band_hz: tuple[float, float] = (300.0, 3500.0)
    noise_floor_db: float = 45.0
    beacon_population: int = 12
    beacon_dropout: float = 0.1
    leakage: float = 0.1


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int
    duration_s: int
    groups: tuple[int, ...]  # devices per group
    profile: AmbientProfile = AmbientProfile()

    def __post_init__(self):
        if len(self.groups) < 2:
            raise InvariantViolation("need at least 2 groups for non-colocated pairs")
        if not 0 <= self.profile.leakage < 1:
            raise InvariantViolation("leakage must lie in [0, 1)")
        if min(self.groups) < 1:
            raise InvariantViolation("groups must contain at least one device")


def _group_event_signal(rng: np.random.Generator, profile: AmbientProfile,
                        n_samples: int) -> np.ndarray:
    """Shared ambient audio of one group: enveloped band noise plus bursts."""
    # Its own order-2 float32 filter, not dsp.bandpass: the scenario bytes depend on it.
    lo, hi = profile.event_band_hz
    sos = dsp.butter_bandpass_sos(2, lo, hi, RATE_HZ)
    carrier = dsp.sosfilt(sos, rng.standard_normal(n_samples).astype(np.float32))
    carrier /= max(float(carrier.std()), 1e-12)

    # Slow level wander: mean-reverting walk in log-amplitude, 5 s blocks.
    block = 5 * RATE_HZ
    n_blocks = max(2, n_samples // block + 2)
    log_level = np.empty(n_blocks)
    log_level[0] = rng.normal(0.0, 0.5)
    steps = rng.normal(0.0, 0.55, size=n_blocks - 1)
    for k in range(1, n_blocks):
        log_level[k] = 0.75 * log_level[k - 1] + steps[k - 1]
    block_pos = np.arange(n_blocks) * block
    envelope = np.interp(np.arange(n_samples), block_pos, np.exp(log_level[:n_blocks]))

    # Distinct audio events on top of the ambient level.
    n_events = rng.poisson(profile.event_rate_per_min * n_samples / RATE_HZ / 60.0)
    bursts = np.zeros(n_samples, dtype=np.float32)
    for _ in range(n_events):
        dur = int(rng.uniform(0.3, 1.5) * RATE_HZ)
        start = int(rng.uniform(0, max(1, n_samples - dur)))
        amp = rng.uniform(2.0, 6.0)
        window = 0.5 * (1 - np.cos(2 * np.pi * np.arange(dur) / dur))
        # A burst longer than the recording is cut at its end.
        bursts[start:start + dur] += (amp * window[:n_samples - start]).astype(np.float32)

    noise_rms = 10.0 ** (profile.noise_floor_db / 20.0)
    scale = 3.0 * noise_rms
    return (carrier * (envelope + bursts) * scale).astype(np.float32)


def _device_audio(rng: np.random.Generator, group_idx: int,
                  events: list[np.ndarray], profile: AmbientProfile) -> np.ndarray:
    gain = rng.uniform(0.8, 1.25)
    noise_rms = 10.0 ** (profile.noise_floor_db / 20.0)
    signal = gain * events[group_idx].astype(np.float64)
    for other, event in enumerate(events):
        if other == group_idx:
            continue
        signal += profile.leakage * rng.uniform(0.8, 1.25) * event.astype(np.float64)
    if noise_rms > 0:
        signal += rng.normal(0.0, noise_rms, size=signal.size)
    return np.clip(signal, -32000, 32000).astype(np.int16)


def _sensor_walks(rng: np.random.Generator, n_groups: int, n_steps: int,
                  leakage: float) -> dict[str, np.ndarray]:
    """Per (kind, group) fluctuation walks blended with a common component."""
    walks: dict[str, np.ndarray] = {}
    for kind, vol in _SENSOR_VOLATILITY.items():
        common = np.cumsum(rng.normal(0.0, vol, size=n_steps))
        per_group = np.empty((n_groups, n_steps))
        for g in range(n_groups):
            own = np.cumsum(rng.normal(0.0, vol, size=n_steps))
            per_group[g] = (1.0 - leakage) * own + leakage * common
        walks[kind] = per_group
    return walks


def _device_sensor_series(rng: np.random.Generator, device: str, group_idx: int,
                          kind: str, walks: dict[str, np.ndarray]) -> SensorSeries:
    n_steps = walks[kind].shape[1]
    offset = rng.normal(0.0, _SENSOR_OFFSET_STD[kind])
    jitter = rng.normal(0.0, _SENSOR_JITTER_STD[kind], size=n_steps)
    values = _SENSOR_BASE[kind] + walks[kind][group_idx] + offset + jitter
    if kind == "luminosity":
        values = np.maximum(values, 0.0)
    elif kind == "humidity":
        values = np.clip(values, 0.0, 100.0)
    elif kind == "pressure":
        values = np.maximum(values, 1.0)
    times = START_EPOCH_MS + np.arange(n_steps, dtype=np.int64) * SENSOR_PERIOD_MS
    return SensorSeries(SensorKind(kind), times, values, device)


def _beacon_tables(rng: np.random.Generator, n_groups: int,
                   beacon_population: int) -> dict[str, dict[str, float]]:
    """Base RSSI per beacon identifier, keyed by kind."""
    tables: dict[str, dict[str, float]] = {"wifi": {}, "ble": {}}
    for kind in ("wifi", "ble"):
        for g in range(n_groups):
            for i in range(beacon_population):
                tables[kind][f"{kind}-g{g}-{i:02d}"] = float(rng.uniform(-80.0, -45.0))
    return tables


def _device_scans(rng: np.random.Generator, group_idx: int,
                  tables: dict[str, dict[str, float]], cfg: ScenarioConfig
                  ) -> list[BeaconScan]:
    profile = cfg.profile
    scans: list[BeaconScan] = []
    n_scans = cfg.duration_s // BEACON_PERIOD_S
    for k in range(n_scans):
        t = START_EPOCH_MS + k * BEACON_PERIOD_S * 1000 + 500
        for kind in ("wifi", "ble"):
            obs: dict[str, float] = {}
            for ident, base in tables[kind].items():
                own = ident.split("-")[1] == f"g{group_idx}"
                if own:
                    seen = rng.random() < 1.0 - profile.beacon_dropout
                    atten = 0.0
                else:
                    seen = rng.random() < profile.leakage * (1.0 - profile.beacon_dropout)
                    atten = (1.0 - profile.leakage) * FOREIGN_BEACON_ATTENUATION_DB
                noise = rng.normal(0.0, 2.0)
                if seen:
                    obs[ident] = round(float(base - atten + noise), 1)
            scans.append(BeaconScan(kind=kind, time=t, observations=obs))
    return scans


def generate(cfg: ScenarioConfig, out_dir: str | Path) -> dict:
    """Write a full synthetic dataset; returns the manifest dict."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    profile = cfg.profile
    n_groups = len(cfg.groups)
    n_samples = cfg.duration_s * RATE_HZ
    n_steps = cfg.duration_s * 1000 // SENSOR_PERIOD_MS

    root_ss = np.random.SeedSequence(cfg.seed)
    ss_events, ss_sensors, ss_beacons, ss_devices = root_ss.spawn(4)
    event_rngs = [np.random.default_rng(s) for s in ss_events.spawn(n_groups)]
    events = [_group_event_signal(event_rngs[g], profile, n_samples) for g in range(n_groups)]
    walks = _sensor_walks(np.random.default_rng(ss_sensors), n_groups, n_steps,
                          profile.leakage)
    tables = _beacon_tables(np.random.default_rng(ss_beacons), n_groups,
                            profile.beacon_population)

    devices: list[tuple[str, int]] = []
    for g, size in enumerate(cfg.groups):
        for i in range(size):
            devices.append((f"g{g}d{i}", g))
    device_sss = ss_devices.spawn(len(devices))

    manifest: dict = {"devices": [], "ground_truth": "ground_truth.json"}
    for (device, g), dev_ss in zip(devices, device_sss):
        rng = np.random.default_rng(dev_ss)
        samples = _device_audio(rng, g, events, profile)
        snippet = AudioSnippet(samples, RATE_HZ, START_EPOCH_MS, device)
        zio.write_wav(out / "audio" / f"{device}.wav", snippet)
        entry: dict = {
            "id": device,
            "audio": {"path": f"audio/{device}.wav", "start_ms": START_EPOCH_MS},
            "sensors": {},
            "beacons": f"beacons/{device}.jsonl",
        }
        for kind in _SENSOR_BASE:
            series = _device_sensor_series(rng, device, g, kind, walks)
            rel = f"sensors/{device}_{kind}.csv"
            zio.write_sensor_csv(out / rel, series)
            entry["sensors"][kind] = rel
        zio.write_beacons_jsonl(out / f"beacons/{device}.jsonl",
                                _device_scans(rng, g, tables, cfg))
        manifest["devices"].append(entry)

    end = START_EPOCH_MS + cfg.duration_s * 1000
    half = START_EPOCH_MS + cfg.duration_s * 500
    gt = GroundTruth(
        groups=tuple(
            Group(f"g{g}", tuple(d for d, gg in devices if gg == g),
                  ((START_EPOCH_MS, end),))
            for g in range(n_groups)
        ),
        subscenarios=(
            Subscenario("first_half", ((START_EPOCH_MS, half),)),
            Subscenario("second_half", ((half, end),)),
        ),
    )
    zio.write_ground_truth(out / "ground_truth.json", gt)
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    (out / "scenario.json").write_text(
        json.dumps(asdict(cfg), indent=2, sort_keys=True, default=list) + "\n",
        encoding="utf-8")
    return manifest

import hashlib
from pathlib import Path

import numpy as np
import pytest

from ziskit import datagen, evaluation, pipeline
from ziskit.core.io import load_dataset
from ziskit.core.types import SensorKind
from ziskit.errors import InvariantViolation
from ziskit.schemes import karapanos


def dir_digest(root: Path) -> dict[str, str]:
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            out[str(path.relative_to(root))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def small_cfg(seed=1, leakage=0.1, duration_s=30, **profile_kwargs):
    profile = datagen.AmbientProfile(leakage=leakage, **profile_kwargs)
    return datagen.ScenarioConfig(
        seed=seed, duration_s=duration_s,
        groups=(datagen.GroupSpec(2, profile), datagen.GroupSpec(2, profile)))


class TestGenerate:
    def test_deterministic_byte_identical(self, tmp_path):
        datagen.generate(small_cfg(seed=9), tmp_path / "one")
        datagen.generate(small_cfg(seed=9), tmp_path / "two")
        assert dir_digest(tmp_path / "one") == dir_digest(tmp_path / "two")

    def test_different_seed_differs(self, tmp_path):
        datagen.generate(small_cfg(seed=1), tmp_path / "one")
        datagen.generate(small_cfg(seed=2), tmp_path / "two")
        assert dir_digest(tmp_path / "one") != dir_digest(tmp_path / "two")

    def test_output_passes_validation(self, tmp_path):
        datagen.generate(small_cfg(), tmp_path / "scen")
        dataset = load_dataset(tmp_path / "scen")
        assert dataset.device_ids() == ["g0d0", "g0d1", "g1d0", "g1d1"]
        for device in dataset.device_ids():
            assert dataset.audio[device].rate_hz == 16000
            assert set(dataset.sensors[device]) == {
                SensorKind.TEMPERATURE, SensorKind.HUMIDITY,
                SensorKind.PRESSURE, SensorKind.LUMINOSITY}
            assert dataset.beacons[device]

    def test_degenerate_config_gives_identical_colocated_sensors(self, tmp_path):
        cfg = small_cfg(leakage=0.0, sensor_offset_scale=0.0,
                        sensor_jitter_scale=0.0)
        datagen.generate(cfg, tmp_path / "scen")
        root = tmp_path / "scen" / "sensors"
        for kind in ("temperature", "humidity", "pressure", "luminosity"):
            a = (root / f"g0d0_{kind}.csv").read_bytes()
            b = (root / f"g0d1_{kind}.csv").read_bytes()
            c = (root / f"g1d0_{kind}.csv").read_bytes()
            assert a == b
            assert a != c  # different group, different walk

    def test_single_group_rejected(self):
        with pytest.raises(InvariantViolation):
            datagen.ScenarioConfig(seed=1, duration_s=10,
                                   groups=(datagen.GroupSpec(3),))

    def test_leakage_bound_enforced(self):
        with pytest.raises(InvariantViolation):
            small_cfg(leakage=1.0)

    def test_leakage_raises_noncolocated_similarity(self, tmp_path):
        # Paired-run oracle: same seed, only leakage differs.
        means = {}
        for leakage in (0.0, 0.9):
            out = tmp_path / f"leak{leakage}"
            datagen.generate(small_cfg(seed=7, leakage=leakage, duration_s=30), out)
            dataset = load_dataset(out)
            cfg = karapanos.KarapanosConfig()
            records = pipeline.karapanos_records(dataset, 10, cfg)
            scores, labels = evaluation.usable_scores(records)
            means[leakage] = float(np.mean(scores[labels == 0]))
        assert means[0.9] > means[0.0]

    def test_scenario_json_echoes_config(self, tmp_path):
        import json

        cfg = small_cfg(seed=12)
        datagen.generate(cfg, tmp_path / "scen")
        echoed = json.loads((tmp_path / "scen" / "scenario.json").read_text())
        assert echoed["seed"] == 12
        assert echoed["duration_s"] == 30
        assert len(echoed["groups"]) == 2

    def test_ground_truth_subscenarios_cover_halves(self, tmp_path):
        datagen.generate(small_cfg(duration_s=20), tmp_path / "scen")
        gt = load_dataset(tmp_path / "scen").ground_truth
        names = [s.name for s in gt.subscenarios]
        assert names == ["first_half", "second_half"]
        first = gt.subscenario("first_half").ranges[0]
        second = gt.subscenario("second_half").ranges[0]
        assert first[1] == second[0]
        assert second[1] - first[0] == 20_000

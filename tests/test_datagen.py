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


def small_cfg(seed=1, leakage=0.1, duration_s=30):
    return datagen.ScenarioConfig(seed=seed, duration_s=duration_s, groups=(2, 2),
                                  profile=datagen.AmbientProfile(leakage=leakage))


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

    def test_single_group_rejected(self):
        with pytest.raises(InvariantViolation):
            datagen.ScenarioConfig(seed=1, duration_s=10, groups=(3,))

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

    @pytest.mark.parametrize("seed", range(6))
    def test_one_second_scenario_cuts_bursts_at_its_end(self, seed, tmp_path):
        # A burst lasts up to 1.5 s, longer than the recording.
        cfg = datagen.ScenarioConfig(seed=seed, duration_s=1, groups=(1, 1))
        datagen.generate(cfg, tmp_path / "scen")
        dataset = load_dataset(tmp_path / "scen")
        assert [x.n_frames for x in dataset.audio.values()] == [datagen.RATE_HZ] * 2

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


# sha256 of every file that `datagen --groups 2,1 --duration-s 10` writes, except
# scenario.json, which echoes the configuration; and of `features` karapanos and
# schurmann on that scenario. Any change in RNG draw order or arithmetic shows here.
GOLDEN_DIGESTS = {
    1: {
        "audio/g0d0.wav":
            "c170339a7e760d2f4033e80539b84f1ab498e671f772c65e017e827fdad59bab",
        "audio/g0d1.wav":
            "6d802981f0964dc9b114463d46487d245edb5ac262d22a65a56afe0ce5b34161",
        "audio/g1d0.wav":
            "94ae8c45d0ff644ef373d6e1b1df6079d459f0bd36db8c8d297bef8eda8f8244",
        "beacons/g0d0.jsonl":
            "7e4b15380ac7b3f62b227df9ceb3770dc4ed5502e2b0ae355b7a114bdece6738",
        "beacons/g0d1.jsonl":
            "8f90e36ae321d16efb5e08f1e58c65032915a1f063de2f5effce7fb3c63ab1c8",
        "beacons/g1d0.jsonl":
            "6b779118a4973982f841a134db56466ea46606a4e370ed3d709eed164e298116",
        "ground_truth.json":
            "4ccfc3fa18bcff781cb0cfbd5bdf2c3d55e5d93ecf71024fae23f5d98cee1133",
        "manifest.json":
            "de9ecddf7b734abcd2074d5e8199f2c40e366e541b8697d1b06f0d64ca5fc9dc",
        "sensors/g0d0_humidity.csv":
            "114596d1b4693bf4e116146402985b6ea3e9232a1a00a8656ca3112050dfd318",
        "sensors/g0d0_luminosity.csv":
            "81b76e4b5e77fe6aba8f9fd14445d4a19ff02ddb6426b143cf9f75cce009cb8b",
        "sensors/g0d0_pressure.csv":
            "a884710d78ed27687be7e00cbefddef1f1dba25d74e11f28ba4e7d178ea84330",
        "sensors/g0d0_temperature.csv":
            "2dbd9b28dfe7a1c98093e46c09fdc49449a92e64dbb54db54ff67bf9bff09081",
        "sensors/g0d1_humidity.csv":
            "cf49374c64e6347a7203e99a2ea68c8923d89180e2e26d317dfc38ce530bd651",
        "sensors/g0d1_luminosity.csv":
            "5af9a6cf5fe0019782494d4f86673969bd608463467a88f4b14535041746f10d",
        "sensors/g0d1_pressure.csv":
            "3be17f9047ee0f6c24409d436bf84f66c8d4cc53a443841927802aeaeb2a8e9f",
        "sensors/g0d1_temperature.csv":
            "0c27ed9d8eaef279a392ced233ac81a23656a94417fc507941d1733cfab6c626",
        "sensors/g1d0_humidity.csv":
            "edc26934501534be5f20bc8ac96eae280ce62d3f6eba09f7b5da1ed71dedbaaa",
        "sensors/g1d0_luminosity.csv":
            "738084fb75ec8bb56492ea3048a9e426ef0044d49c36842f53436b986d51115e",
        "sensors/g1d0_pressure.csv":
            "fe098b2eff42998321ebbc62fba2b57fd8a667e840c60e015f9f4ee8e8943087",
        "sensors/g1d0_temperature.csv":
            "710141b6dfcb8e5b14cb1aeac0e6458d4b50466463cf0d9b801a5d330049ab67",
        "features_karapanos.csv":
            "50f56f8cad8fb47c7e933a050570e07722239dafa4d02db419c50b618f54376c",
        "features_schurmann.csv":
            "3a9e6a2d3985ecdb1c9915b2cc71909a2a05327f17eaa50e69c587bbe9371db6",
    },
    2: {
        "audio/g0d0.wav":
            "c5cb9820c7824d67e482d4f08ac0570efd5b652c14012f462c8f826cef0a3dfe",
        "audio/g0d1.wav":
            "048229e94e2ae96b0d6da29975fc6903694993dbb00bb136a96b3a5d139d4ac9",
        "audio/g1d0.wav":
            "4a1b859784348948ab29e89829e3983e41c1ebc277e221d3c95f86a4a2a810ac",
        "beacons/g0d0.jsonl":
            "4a9de074949211314dad1d58e931a6b30a35bd30f65ce5ad3f9830f4cf1ce639",
        "beacons/g0d1.jsonl":
            "3487e5386b67aa131f8880e6552a478f38bd3ff70f1ea6bff03eb645333c33c3",
        "beacons/g1d0.jsonl":
            "3989db2cbc7de8af6116b5971f59617911f754dc59fd9c62cde7077ca74cbbef",
        "ground_truth.json":
            "4ccfc3fa18bcff781cb0cfbd5bdf2c3d55e5d93ecf71024fae23f5d98cee1133",
        "manifest.json":
            "de9ecddf7b734abcd2074d5e8199f2c40e366e541b8697d1b06f0d64ca5fc9dc",
        "sensors/g0d0_humidity.csv":
            "f42a15619f656789abecc558ad6a6221f0be263c5292889160fa96a4f41e83ea",
        "sensors/g0d0_luminosity.csv":
            "9d955fac933769378870954d44fe277625cba5ff4ccaa2beb0ed62cc96ad39d7",
        "sensors/g0d0_pressure.csv":
            "0de3b7ca8395821be524cc38303437e5f868fe127c189043a1aee9439b245c8f",
        "sensors/g0d0_temperature.csv":
            "b4980df47ee8df4310b9871795bb065c205134edc18376f72c324ca380688a15",
        "sensors/g0d1_humidity.csv":
            "a30bbf8c07a596c94b769521276dfb4766a0d81b23b04bc0ca6d63a54a617cec",
        "sensors/g0d1_luminosity.csv":
            "358294174f284e9067425b39dbf3cecb08bac94c43b8de7a1ca52c3dea8af5e6",
        "sensors/g0d1_pressure.csv":
            "83e5ac1b2a4865002828abe09dbf8bfaa4978fdf0dd4af03e71eadca39efdbc3",
        "sensors/g0d1_temperature.csv":
            "fc87910082cce53c4ac7846a82e9e63fc9ed97e0e2c72e8a209dcb346710af58",
        "sensors/g1d0_humidity.csv":
            "0a79354bcc3e1f7f8c2eaa80e4f7104e7f80da43f64756285b09cb97a6534061",
        "sensors/g1d0_luminosity.csv":
            "b2c5f37910b55b64c833f3e787c1b4eb1766b1fec7b6f1a67aee202668f1d429",
        "sensors/g1d0_pressure.csv":
            "dd905ef5055c2f8190b39c0f5719909152d57c6a62094d79910dbeeb2e05d127",
        "sensors/g1d0_temperature.csv":
            "c8b4662557a0c29932bfdb3765f7712111a4f64dca4574df891fa678475692e1",
        "features_karapanos.csv":
            "8b2e1df3f37b0d2a62353710e7a2d6a4e1589c04df4989d467b7d838b0e02a82",
        "features_schurmann.csv":
            "41ccd40a31470a74928568251553bcd8eb26296a549d47dc45d5c0dd4f558808",
    },
}


@pytest.mark.parametrize("seed", sorted(GOLDEN_DIGESTS))
def test_golden_scenario_digests(seed, tmp_path):
    from ziskit.cli import main

    scen = tmp_path / "scen"
    assert main(["datagen", "--out", str(scen), "--seed", str(seed),
                 "--duration-s", "10", "--groups", "2,1"]) == 0
    digests = {name: sha for name, sha in dir_digest(scen).items() if name != "scenario.json"}
    for scheme in ("karapanos", "schurmann"):
        out = tmp_path / f"features_{scheme}.csv"
        assert main(["features", "--scheme", scheme, "--dataset", str(scen),
                     "--out", str(out)]) == 0
        digests[out.name] = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digests == GOLDEN_DIGESTS[seed]


# sha256 of the feature CSVs that test_golden_scenario_digests leaves out,
# on the same 10 s two-group scenario.
GOLDEN_FEATURE_DIGESTS = {
    1: {
        "shrestha": "790810ba0dd312ad8dcdbe8bfaa6bcda096ef6421f15f44e88660631a21040ee",
        "truong": "5ddc3166a82a659ed0b029e442efeeb64912caab7e3626dc009d7c88ba0af5a3",
        "miettinen": "2bdf7e923057aca364a2b88d06f0b36b76b5c2c6f348f38eba54a50d280b2640",
    },
    2: {
        "shrestha": "e0d224312b91089b201c28e9db05de1ff4d523ec432236521d8bee63ed20e20b",
        "truong": "c6693ed6a69b8a40a36a60161079028bf8d617e678357118ff03e7df031941bc",
        "miettinen": "7098bf316ad6f75a95c54228f4ccd12ebce0403ba314a72a824033c93b2f18a3",
    },
}
# A 1 s interval and 4-bit fingerprints, so a 10 s scenario yields some.
_FEATURE_ARGS = {"shrestha": [], "truong": [], "miettinen": ["--t", "1", "--bits", "4"]}


@pytest.mark.parametrize("seed", sorted(GOLDEN_FEATURE_DIGESTS))
def test_golden_feature_digests(seed, tmp_path):
    from ziskit.cli import main

    scen = tmp_path / "scen"
    assert main(["datagen", "--out", str(scen), "--seed", str(seed),
                 "--duration-s", "10", "--groups", "2,1"]) == 0
    digests = {}
    for scheme, extra in _FEATURE_ARGS.items():
        out = tmp_path / f"features_{scheme}.csv"
        assert main(["features", "--scheme", scheme, "--dataset", str(scen),
                     "--out", str(out), *extra]) == 0
        digests[scheme] = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digests == GOLDEN_FEATURE_DIGESTS[seed]

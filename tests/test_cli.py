import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.io import wavfile
from scipy.signal import resample_poly

from conftest import wav_bytes
from ziskit import cli
from ziskit.cli import _apply_config, build_parser, main
from ziskit.core.io import WavRecording, load_dataset
from ziskit.schemes import truong

pytestmark = pytest.mark.usefixtures("scenario_dir")


@pytest.fixture(scope="module")
def scenario_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "scen"
    code = main(["datagen", "--out", str(out), "--seed", "21", "--duration-s", "60",
                 "--groups", "2,2", "--leakage", "0.1"])
    assert code == 0
    return out


def run_ok(argv):
    assert main(argv) == 0


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_no_args_prints_usage(capsys):
    assert main([]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_flag_is_usage_error(capsys):
    assert main(["datagen", "--nope"]) == 1


def test_missing_dataset_is_data_error(tmp_path, capsys):
    code = main(["features", "--scheme", "karapanos",
                 "--dataset", str(tmp_path / "absent"),
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "error" in capsys.readouterr().err.lower()


def test_full_pipeline_golden_headers(scenario_dir, tmp_path):
    kara = tmp_path / "kara.csv"
    run_ok(["features", "--scheme", "karapanos", "--dataset", str(scenario_dir),
            "--out", str(kara), "--t", "10"])
    with open(kara) as fh:
        assert fh.readline().strip() == "pair_id,interval_start_ms,t,score,gated"

    out = tmp_path / "eval"
    run_ok(["evaluate", "--scheme", "karapanos", "--features", str(kara),
            "--dataset", str(scenario_dir), "--out", str(out),
            "--scenario", "synthetic"])
    results = out / "results.csv"
    assert results.exists()
    with open(results) as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["scheme"] == "karapanos"
    assert set(rows[0]) == {"scheme", "scenario", "subscenario", "t", "eer",
                            "starred", "threshold", "availability"}
    subnames = {r["subscenario"] for r in rows}
    assert subnames == {"full", "first_half", "second_half"}
    curve = out / "curves" / "karapanos_full_t10.csv"
    with open(curve) as fh:
        assert fh.readline().strip() == "far_target,frr"


def test_evaluate_empty_features_exits_2(tmp_path, capsys, scenario_dir):
    empty = tmp_path / "empty.csv"
    empty.write_text("pair_id,interval_start_ms,t,score,gated\n")
    code = main(["evaluate", "--scheme", "karapanos", "--features", str(empty),
                 "--dataset", str(scenario_dir), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "no records" in capsys.readouterr().err


def test_features_idempotent(scenario_dir, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for out in (a, b):
        run_ok(["features", "--scheme", "schurmann", "--dataset", str(scenario_dir),
                "--out", str(out), "--t", "10"])
    assert digest(a) == digest(b)


def test_fingerprint_randomness_report(scenario_dir, tmp_path):
    fps = tmp_path / "fp.csv"
    run_ok(["features", "--scheme", "schurmann", "--dataset", str(scenario_dir),
            "--out", str(fps), "--t", "10"])
    report = tmp_path / "rand.json"
    run_ok(["fingerprint-randomness", "--features", str(fps), "--out", str(report),
            "--sub-len", "31"])
    doc = json.loads(report.read_text())
    assert 0.0 <= doc["random_walk"]["tv_distance"] <= 1.0
    assert len(doc["subfingerprints"]) == 16
    assert len(doc["markov"]["p_one"]) == 496


def test_miettinen_features_with_surprisal(scenario_dir, tmp_path):
    """The surprisal gate of `evaluate` fits its model on the fingerprint file:
    it gates exactly the pairs that a model fit on the computed fingerprints gates."""
    from ziskit import pipeline
    from ziskit.core.io import load_dataset
    from ziskit.schemes import miettinen

    fps = tmp_path / "miet.csv"
    argv = ["features", "--scheme", "miettinen", "--dataset", str(scenario_dir),
            "--out", str(fps), "--t", "2", "--bits", "8", "--delta-rel", "0.05",
            "--delta-abs", "5"]
    run_ok(argv)
    with open(fps) as fh:
        header = fh.readline().strip()
        assert header == "device_id,interval_start_ms,t,hex_bits,n_bits"
    assert main([*argv, "--with-surprisal"]) == 1

    dataset = load_dataset(scenario_dir)
    fingerprints = pipeline.miettinen_fingerprints(dataset, miettinen.MiettinenConfig(
        snapshot_s=2, bits=8, delta_rel=0.05, delta_abs=5))
    model = miettinen.SurprisalModel.fit(fingerprints)
    surprisals = [miettinen.surprisal(fp, model) for fp in fingerprints]
    threshold = float(np.median(surprisals))
    expected = pipeline.fingerprint_records(fingerprints, [16] * len(fingerprints),
                                            dataset.ground_truth, threshold)
    assert any(r.gated for r in expected) and not all(r.gated for r in expected)
    # The expected records, evaluated as a score file, give the same rows and curves.
    scores = tmp_path / "expected.csv"
    pipeline.write_score_csv(scores, expected)
    run_ok(["evaluate", "--scheme", "miettinen", "--features", str(fps),
            "--dataset", str(scenario_dir), "--out", str(tmp_path / "gated"),
            "--surprisal-threshold", repr(threshold)])
    run_ok(["evaluate", "--scheme", "karapanos", "--features", str(scores),
            "--dataset", str(scenario_dir), "--out", str(tmp_path / "expected")])
    results = {}
    for out in ("gated", "expected"):
        with open(tmp_path / out / "results.csv") as fh:
            results[out] = [{**row, "scheme": None} for row in csv.DictReader(fh)]
    assert results["gated"] == results["expected"]
    assert 0 < float(results["gated"][0]["availability"]) < 1
    assert sorted(p.name.split("_", 1)[1] for p in (tmp_path / "gated" / "curves").iterdir()) \
        == sorted(p.name.split("_", 1)[1] for p in (tmp_path / "expected" / "curves").iterdir())
    for curve in (tmp_path / "gated" / "curves").iterdir():
        twin = tmp_path / "expected" / "curves" / curve.name.replace("miettinen", "karapanos")
        assert curve.read_bytes() == twin.read_bytes()


def test_ml_train_predict_cycle(scenario_dir, tmp_path):
    feats = tmp_path / "truong.csv"
    run_ok(["features", "--scheme", "truong", "--dataset", str(scenario_dir),
            "--out", str(feats), "--t", "10"])
    model = tmp_path / "model.json"
    preds = tmp_path / "preds.csv"
    metrics = tmp_path / "metrics.csv"
    run_ok(["ml", "train", "--features", str(feats), "--scheme", "truong",
            "--grid", "small", "--folds", "3", "--out", str(model),
            "--predictions", str(preds), "--metrics", str(metrics)])
    assert json.loads(model.read_text())["params"]["kind"] in ("forest", "boosting")
    with open(metrics) as fh:
        assert fh.readline().strip() == "model_id,auc,eer,accuracy"
    run_ok(["evaluate", "--scheme", "truong", "--scores", str(preds),
            "--dataset", str(scenario_dir), "--out", str(tmp_path / "eval_truong")])
    preds2 = tmp_path / "preds2.csv"
    run_ok(["ml", "predict", "--model", str(model), "--features", str(feats),
            "--scheme", "truong", "--out", str(preds2)])
    assert preds2.exists()


def test_ml_determinism_same_seed(scenario_dir, tmp_path):
    feats = tmp_path / "shr.csv"
    run_ok(["features", "--scheme", "shrestha", "--dataset", str(scenario_dir),
            "--out", str(feats)])
    models = []
    for name in ("m1.json", "m2.json"):
        out = tmp_path / name
        run_ok(["ml", "train", "--features", str(feats), "--scheme", "shrestha",
                "--grid", "small", "--folds", "3", "--seed", "1619",
                "--out", str(out)])
        models.append(digest(out))
    assert models[0] == models[1]


def test_robustness_self_application(scenario_dir, tmp_path):
    kara = tmp_path / "kara.csv"
    run_ok(["features", "--scheme", "karapanos", "--dataset", str(scenario_dir),
            "--out", str(kara), "--t", "10"])
    out = tmp_path / "eval"
    run_ok(["evaluate", "--scheme", "karapanos", "--features", str(kara),
            "--dataset", str(scenario_dir), "--out", str(out)])
    robust = tmp_path / "robust.csv"
    run_ok(["robustness", "--results", str(out / "results.csv"),
            "--scheme", "karapanos", "--features", str(kara),
            "--dataset", str(scenario_dir), "--out", str(robust)])
    with open(robust) as fh:
        rows = list(csv.DictReader(fh))
    full = [r for r in rows if r["subscenario"] == "full"]
    assert full
    # A = B: deltas vanish
    assert float(full[0]["delta_far"]) == 0.0
    assert float(full[0]["delta_frr"]) == 0.0
    # on every row: each is applied within its own subscenario
    assert {r["subscenario"] for r in rows} == {"full", "first_half", "second_half"}
    assert all(float(r["delta_far"]) == 0.0 == float(r["delta_frr"]) for r in rows), rows


def test_robustness_applies_each_row_within_its_subscenario(scenario_dir, valid_files,
                                                            tmp_path):
    """Self-application of overlapping scores gives zero deltas on every row; without
    --dataset, or for a subscenario the ground truth lacks, a row is skipped."""
    from dataclasses import replace

    from ziskit import pipeline
    from ziskit.core.io import load_dataset

    records = pipeline.read_score_csv(valid_files / "score.csv",
                                      load_dataset(scenario_dir).ground_truth)
    rng = np.random.default_rng(5)
    preds = tmp_path / "preds.csv"
    pipeline.write_prediction_csv(preds, [replace(r, score=float(rng.random()))
                                          for r in records])
    run_ok(["evaluate", "--scheme", "scores", "--scores", str(preds),
            "--dataset", str(scenario_dir), "--out", str(tmp_path / "eval")])
    results = tmp_path / "eval" / "results.csv"
    renamed = tmp_path / "renamed.csv"
    renamed.write_bytes(results.read_bytes().replace(b"first_half", b"elsewhere"))
    dataset = ["--dataset", str(scenario_dir)]
    for results_csv, flags, kept in [(results, dataset, {"full", "first_half", "second_half"}),
                                     (results, [], {"full"}),
                                     (renamed, dataset, {"full", "second_half"})]:
        robust = tmp_path / "robust.csv"
        run_ok(["robustness", "--results", str(results_csv), "--scheme", "scores",
                "--scores", str(preds), *flags, "--out", str(robust)])
        with open(robust) as fh:
            rows = list(csv.DictReader(fh))
        assert {r["subscenario"] for r in rows} == kept
        assert all(float(r["delta_far"]) == 0.0 == float(r["delta_frr"]) for r in rows), rows


def test_align_report(scenario_dir, tmp_path):
    out = tmp_path / "lags.json"
    run_ok(["align", "--dataset", str(scenario_dir), "--out", str(out),
            "--probe-s", "30", "--maxlag-s", "1"])
    doc = json.loads(out.read_text())
    assert len(doc["pairs"]) == 6
    for pair in doc["pairs"]:
        assert pair["lag_samples"] == 0  # generator emits aligned audio


def test_config_file_defaults_and_flag_override(scenario_dir, tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"t": 10, "out": str(tmp_path / "from_config.csv")}))
    run_ok(["features", "--config", str(config), "--scheme", "schurmann",
            "--dataset", str(scenario_dir)])
    assert (tmp_path / "from_config.csv").exists()
    # explicit flag wins over the config value
    run_ok(["features", "--config", str(config), "--scheme", "schurmann",
            "--dataset", str(scenario_dir), "--out", str(tmp_path / "explicit.csv")])
    assert (tmp_path / "explicit.csv").exists()


@pytest.fixture(scope="module")
def valid_files(scenario_dir, tmp_path_factory):
    """One valid file of every table format that a CLI command reads."""
    base = tmp_path_factory.mktemp("tables")
    for scheme, name in [("karapanos", "score"), ("schurmann", "fingerprint"),
                         ("truong", "truong"), ("shrestha", "shrestha")]:
        run_ok(["features", "--scheme", scheme, "--dataset", str(scenario_dir),
                "--out", str(base / f"{name}.csv"), "--t", "10"])
    (base / "prediction.csv").write_bytes(
        b"pair_id,interval_start_ms,t,score,label\r\n"
        b"a|b,0,10,0.9,colocated\r\na|c,0,10,0.2,non_colocated\r\n"
        b"a|b,10000,10,0.7,colocated\r\na|c,10000,10,0.4,non_colocated\r\n")
    run_ok(["evaluate", "--scheme", "scores", "--scores", str(base / "prediction.csv"),
            "--out", str(base / "eval")])
    (base / "results.csv").write_bytes((base / "eval" / "results.csv").read_bytes())
    return base


def _reader_argv(table: str, bad: Path, files: Path, scenario: Path, out: Path):
    if table in ("score", "fingerprint"):
        scheme = "karapanos" if table == "score" else "schurmann"
        return ["evaluate", "--scheme", scheme, "--features", str(bad),
                "--dataset", str(scenario), "--out", str(out)]
    if table in ("truong", "shrestha"):
        return ["ml", "train", "--scheme", table, "--features", str(bad),
                "--grid", "small", "--folds", "3", "--out", str(out / "model.json")]
    if table == "prediction":
        return ["evaluate", "--scheme", "scores", "--scores", str(bad), "--out", str(out)]
    return ["robustness", "--results", str(bad), "--scheme", "scores",
            "--scores", str(files / "prediction.csv"), "--out", str(out / "robust.csv")]


@pytest.mark.parametrize("table,fault", [
    *((table, fault) for table in ("score", "fingerprint", "truong", "shrestha", "prediction",
                                   "results") for fault in ("ragged_row", "non_utf8")),
    # Every pair table holds pairs of two distinct devices.
    ("score", "self_pair"), ("prediction", "self_pair"), ("truong", "self_pair"),
    ("shrestha", "self_pair"),
    # A fingerprint row holds exactly its n_bits >= 1 bits, here 496 in 124 hex digits.
    ("fingerprint", "n_bits_0"), ("fingerprint", "hex_width"), ("fingerprint", "pad_bits")])
def test_bad_input_table_exits_2(table, fault, valid_files, scenario_dir, tmp_path,
                                 capsys):
    lines = (valid_files / f"{table}.csv").read_bytes().split(b"\r\n")
    if fault == "ragged_row":
        lines[1] += b",extra"
    elif fault == "non_utf8":
        lines[1] = b"\xff" + lines[1]
    elif fault == "self_pair":  # the row's pair becomes its first device twice
        pair, rest = lines[1].split(b",", 1)
        device = pair.split(b"|")[0]
        lines[1] = device + b"|" + device + b"," + rest
    else:
        *cells, hex_bits, n_bits = lines[1].split(b",")
        lines[1] = b",".join([*cells, *{"n_bits_0": (hex_bits, b"0"),
                                        "hex_width": (hex_bits + b"00", n_bits),
                                        "pad_bits": (b"f" * 124, b"495")}[fault]])
    bad = tmp_path / f"bad_{table}.csv"
    bad.write_bytes(b"\r\n".join(lines))
    code = main(_reader_argv(table, bad, valid_files, scenario_dir, tmp_path / "out"))
    assert code == 2
    err = capsys.readouterr().err
    assert f"{bad}:2)" in err
    assert {"self_pair": "two distinct devices", "n_bits_0": "need at least 1 bit",
            "hex_width": "496 bits take 124 hex digits",
            "pad_bits": "pad bits after bit 495 are not 0"}.get(fault, "") in err


def _break_dataset_file(fault: str, dataset: Path) -> Path:
    """Break one file of a copied dataset as `fault` says; returns that file."""
    manifest = json.loads((dataset / "manifest.json").read_text())
    device = manifest["devices"][0]
    if fault.endswith("_bytes"):
        name = {"manifest_bytes": "manifest.json", "beacon_bytes": device["beacons"],
                "sensor_bytes": device["sensors"]["temperature"],
                "truth_bytes": manifest["ground_truth"]}[fault]
        (dataset / name).write_bytes(b"\xff" + (dataset / name).read_bytes())
        return dataset / name
    if fault == "no_truth":
        (dataset / manifest["ground_truth"]).unlink()
        return dataset / manifest["ground_truth"]
    if fault == "list":
        manifest = [manifest]
    elif fault == "no_id":
        del device["id"]
    elif fault == "sensor_kind":
        device["sensors"]["smell"] = device["sensors"]["temperature"]
    elif fault == "start_ms":
        device["audio"]["start_ms"] = "abc"
    elif fault == "audio_string":
        device["audio"] = device["audio"]["path"]
    elif fault in ("pipe_id", "surrogate_id"):  # pair tables write a pair as devA|devB
        device["id"] = "a|x" if fault == "pipe_id" else "a\ud800"
    else:
        manifest["devices"] = 5
    (dataset / "manifest.json").write_text(json.dumps(manifest))
    return dataset / "manifest.json"


@pytest.mark.parametrize("command", ["features", "evaluate"])
@pytest.mark.parametrize("fault", ["list", "no_id", "sensor_kind", "start_ms", "devices_int",
                                   "manifest_bytes", "sensor_bytes", "beacon_bytes",
                                   "audio_string", "pipe_id", "surrogate_id",
                                   "truth_bytes", "no_truth"])
def test_bad_dataset_file_exits_2(fault, command, valid_files, scenario_dir, tmp_path,
                                  capsys):
    dataset = tmp_path / "scen"
    shutil.copytree(scenario_dir, dataset)
    bad = _break_dataset_file(fault, dataset)
    argv = ["--scheme", "karapanos", "--dataset", str(dataset), "--out", str(tmp_path / "out")]
    if command == "evaluate":
        argv += ["--features", str(valid_files / "score.csv")]
    # evaluate reads only the manifest and the ground truth it names.
    if command == "evaluate" and fault in ("sensor_bytes", "beacon_bytes"):
        assert main([command, *argv]) == 0
        return
    assert main([command, *argv]) == 2
    assert str(bad) in capsys.readouterr().err


@pytest.mark.parametrize("start_ms", [10 ** 30, -10 ** 30, 1.5e300, 2 ** 63 - 1])
@pytest.mark.parametrize("scheme", ["miettinen", "karapanos"])
def test_audio_start_outside_int64_ms_exits_2(start_ms, scheme, scenario_dir, tmp_path,
                                              capsys):
    # 2**63 - 1 fits int64, but the recording that starts there ends past it.
    dataset = tmp_path / "scen"
    shutil.copytree(scenario_dir, dataset)
    manifest = json.loads((dataset / "manifest.json").read_text())
    manifest["devices"][0]["audio"]["start_ms"] = start_ms
    (dataset / "manifest.json").write_text(json.dumps(manifest))
    assert main(["features", "--scheme", scheme, "--dataset", str(dataset),
                 "--out", str(tmp_path / "out.csv")]) == 2
    err = capsys.readouterr().err
    assert "int64" in err and str(dataset / "manifest.json") in err
    assert "Traceback" not in err


@pytest.mark.parametrize("edit, message", [
    ({"obs": [{"id": "x", "rssi": 1e200}]}, "RSSI 1e+200 for 'x' outside"),
    ({"obs": [{"id": "x", "rssi": -1e200}]}, "RSSI -1e+200 for 'x' outside"),
    ({"obs": [{"id": "x", "rssi": math.nan}]}, "RSSI nan for 'x' outside"),
    ({"t": math.inf}, "cannot convert float infinity to integer"),
])
def test_bad_beacon_value_exits_2_naming_the_line(edit, message, scenario_dir, tmp_path,
                                                  capsys):
    # An RSSI of 1e200 made the beacon distances inf; NaN failed without
    # naming the file, and a time of Infinity with a traceback.
    dataset = tmp_path / "scen"
    shutil.copytree(scenario_dir, dataset)
    device = json.loads((dataset / "manifest.json").read_text())["devices"][0]
    beacons = dataset / device["beacons"]
    lines = beacons.read_text().splitlines(keepends=True)
    lines[1] = json.dumps(json.loads(lines[1]) | edit) + "\n"
    beacons.write_text("".join(lines))
    assert main(["features", "--scheme", "truong", "--dataset", str(dataset),
                 "--out", str(tmp_path / "out.csv")]) == 2
    err = capsys.readouterr().err
    assert message in err and f"{beacons}:2" in err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("names", [("full", "second_half"), ("first_half", "first_half")])
def test_evaluate_rejects_subscenario_full_or_twice(names, scenario_dir, valid_files,
                                                    tmp_path, capsys):
    """`full` names the whole-timeline results row, and a name names one row."""
    dataset = tmp_path / "scen"
    shutil.copytree(scenario_dir, dataset)
    truth = json.loads((dataset / "ground_truth.json").read_text())
    assert [s["name"] for s in truth["subscenarios"]] == ["first_half", "second_half"]
    for sub, name in zip(truth["subscenarios"], names):
        sub["name"] = name
    (dataset / "ground_truth.json").write_text(json.dumps(truth))
    out = tmp_path / "eval"
    assert main(["evaluate", "--scheme", "karapanos", "--features",
                 str(valid_files / "score.csv"), "--dataset", str(dataset),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{dataset / 'ground_truth.json'}: subscenario names must be unique and not 'full'" \
        in err
    assert not out.exists()


def _mixed_bit_counts(valid_files: Path, tmp_path: Path) -> tuple[Path, str]:
    """A copy of the 496-bit fingerprint file whose second row holds 3 bits,
    and how an error names that fingerprint."""
    lines = (valid_files / "fingerprint.csv").read_bytes().split(b"\r\n")
    device, start, t, _, _ = lines[2].split(b",")
    lines[2] = b",".join([device, start, t, b"a0", b"3"])
    mixed = tmp_path / "mixed.csv"
    mixed.write_bytes(b"\r\n".join(lines))
    return mixed, f"{device.decode()!r} at {start.decode()} ms has 3 bits"


def test_surprisal_gate_on_mixed_bit_counts_exits_2(valid_files, scenario_dir, tmp_path,
                                                   capsys):
    """A surprisal model covers one fingerprint length."""
    mixed, _ = _mixed_bit_counts(valid_files, tmp_path)
    argv = _reader_argv("fingerprint", mixed, valid_files, scenario_dir, tmp_path / "out")
    assert main([*argv, "--surprisal-threshold", "10"]) == 2
    err = capsys.readouterr().err
    assert f"({mixed})" in err and "has 3 bits, the first has 496" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["evaluate", "fingerprint-randomness"])
def test_mixed_bit_counts_name_the_file_and_fingerprint(command, valid_files, scenario_dir,
                                                        tmp_path, capsys):
    """Fingerprints of one file are compared or counted bit by bit, so they
    share one length; the error names the file and the first that differs."""
    mixed, odd = _mixed_bit_counts(valid_files, tmp_path)
    out = tmp_path / "out"
    argv = (_reader_argv("fingerprint", mixed, valid_files, scenario_dir, out)
            if command == "evaluate" else
            [command, "--features", str(mixed), "--out", str(out / "randomness.json")])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"{odd}, the first has 496 ({mixed})" in err
    assert "Traceback" not in err
    assert not out.exists()


def _bad_wav(fault: str, audio: np.ndarray) -> bytes:
    pcm16 = audio.astype("<i2").tobytes()
    if fault == "text":
        return b"not a WAV file\n"
    if fault == "truncated_header":
        return wav_bytes(pcm16)[:30]
    if fault == "stereo":
        return wav_bytes(pcm16, channels=2)
    if fault in ("pcm8", "pcm32"):
        bits = int(fault[3:])
        return wav_bytes(audio.astype(f"<i{bits // 8}").tobytes(), bits=bits)
    if fault == "rate0":
        return wav_bytes(pcm16, rate=0)
    if fault == "float":
        return wav_bytes(audio.astype("<f4").tobytes(), tag=3, bits=32)
    return wav_bytes(pcm16, tag=0xFFFE)  # 16-bit PCM in WAVE_FORMAT_EXTENSIBLE


@pytest.mark.parametrize("fault,message", [
    ("text", "does not start with RIFF"),
    ("truncated_header", "truncated or malformed header"),
    ("stereo", "expected mono audio"),
    ("pcm8", "expected 16-bit PCM, got 8-bit"),
    ("pcm32", "expected 16-bit PCM, got 32-bit"),
    ("rate0", "rate_hz must be positive"),
    ("float", "unknown format: 3"),
    # Python's `wave` reads the extensible format only from 3.12 on; refused on all.
    ("extensible", "unknown format: 65534")])
def test_bad_wav_exits_2_naming_the_file(fault, message, scenario_dir, tmp_path):
    dataset = tmp_path / "scen"
    shutil.copytree(scenario_dir, dataset)
    manifest = json.loads((dataset / "manifest.json").read_text())
    wav = dataset / manifest["devices"][0]["audio"]["path"]
    wav.write_bytes(_bad_wav(fault, np.arange(-800, 800, 10)))
    proc = _cold("-m", "ziskit.cli", "features", "--scheme", "miettinen", "--dataset",
                 str(dataset), "--out", str(tmp_path / "fp.csv"), cwd=tmp_path, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert message in proc.stderr and str(wav) in proc.stderr


@pytest.mark.parametrize("argv", [
    ["features", "--scheme", "karapanos"], ["features", "--scheme", "schurmann"],
    ["features", "--scheme", "truong"], ["features", "--scheme", "miettinen"],
    ["align"]])
def test_wav_cut_after_loading_exits_2_naming_the_file(argv, scenario_dir, tmp_path,
                                                       monkeypatch, capsys):
    """A recording that loses frames between `load_dataset` and a read is a
    data error, from whichever thread reads it."""
    dataset = tmp_path / "scen"
    shutil.copytree(scenario_dir, dataset)
    manifest = json.loads((dataset / "manifest.json").read_text())
    wav = dataset / manifest["devices"][0]["audio"]["path"]

    def load_then_cut(root):
        loaded = load_dataset(root)
        with open(wav, "r+b") as fh:
            fh.truncate(44 + 2000)  # the header and 1000 frames
        return loaded

    monkeypatch.setattr(cli, "load_dataset", load_then_cut)
    out = tmp_path / ("lags.json" if argv == ["align"] else "out.csv")
    assert main([*argv, "--dataset", str(dataset), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"({wav})" in err and "lost frames" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["features", "--scheme", "shrestha", "--out", "{tmp}/shr.csv"],
    ["features", "--scheme", "miettinen", "--source", "luminosity", "--t", "5", "--bits", "3",
     "--out", "{tmp}/lum.csv"],
    ["evaluate", "--scheme", "karapanos", "--features", "{files}/score.csv",
     "--out", "{tmp}/eval"],
    ["evaluate", "--scheme", "schurmann", "--features", "{files}/fingerprint.csv",
     "--out", "{tmp}/eval"],
    ["robustness", "--results", "{files}/results.csv", "--scheme", "karapanos",
     "--features", "{files}/score.csv", "--out", "{tmp}/robust.csv"],
    ["ml", "train", "--scheme", "truong", "--features", "{files}/truong.csv",
     "--grid", "small", "--folds", "3", "--out", "{tmp}/model.json"]])
def test_commands_without_audio_read_no_samples(argv, valid_files, scenario_dir, tmp_path,
                                               monkeypatch):
    """A recording's samples are read only by the commands that use them;
    `features --scheme miettinen` from noise levels reads them all."""
    reads = []
    real_read = WavRecording.read

    def read(self, i0, i1):
        reads.append((self.device_id, i0, i1))
        return real_read(self, i0, i1)

    monkeypatch.setattr(WavRecording, "read", read)
    dataset = [] if argv[0] == "ml" else ["--dataset", str(scenario_dir)]
    assert main([a.format(tmp=tmp_path, files=valid_files) for a in argv] + dataset) == 0
    assert reads == []
    assert main(["features", "--scheme", "miettinen", "--dataset", str(scenario_dir),
                 "--out", str(tmp_path / "noise.csv")]) == 0
    assert {device for device, _, _ in reads} == {d["id"] for d in json.loads(
        (scenario_dir / "manifest.json").read_text())["devices"]}


@pytest.mark.parametrize("cell", ["nan", "inf"])
@pytest.mark.parametrize("table", ["score", "prediction"])
def test_non_finite_score_exits_2(table, cell, valid_files, scenario_dir, tmp_path,
                                  capsys):
    with open(valid_files / f"{table}.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    rows[2][rows[0].index("score")] = cell
    bad = tmp_path / f"bad_{table}.csv"
    with open(bad, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    code = main(_reader_argv(table, bad, valid_files, scenario_dir, tmp_path / "out"))
    assert code == 2
    err = capsys.readouterr().err
    assert f"{bad}:3)" in err and "non-finite" in err


@pytest.mark.parametrize("edit", ["missing_t", "t_not_int"])
def test_robustness_bad_results_exits_2(edit, valid_files, tmp_path, capsys):
    with open(valid_files / "results.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index("t")
    for row in rows:
        if edit == "missing_t":
            del row[col]
        elif row is not rows[0]:
            row[col] = "ten"
    bad = tmp_path / "results.csv"
    with open(bad, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    code = main(["robustness", "--results", str(bad), "--scheme", "scores",
                 "--scores", str(valid_files / "prediction.csv"),
                 "--out", str(tmp_path / "robust.csv")])
    assert code == 2
    assert str(bad) in capsys.readouterr().err


def test_config_flag_without_file_is_usage_error(capsys):
    assert main(["evaluate", "--config"]) == 1
    assert "--config" in capsys.readouterr().err


def test_config_file_must_hold_json_object(scenario_dir, tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps([{"t": 10}]))
    code = main(["features", "--config", str(config), "--scheme", "schurmann",
                 "--dataset", str(scenario_dir), "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--groups", "a,b"), ("--event-band", "300"),
                                         ("--far-targets", "x")])
def test_bad_comma_list_is_usage_error(flag, value, valid_files, tmp_path, capsys):
    if flag == "--far-targets":
        argv = ["evaluate", "--scheme", "scores",
                "--scores", str(valid_files / "prediction.csv")]
    else:
        argv = ["datagen", "--duration-s", "10"]
    assert main(argv + ["--out", str(tmp_path / "out"), flag, value]) == 1
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_comma_list_config_values_are_converted(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"groups": "1,2", "event_band": "400,3000"}))
    parser, registry = build_parser()
    argv = ["datagen", "--config", str(config), "--out", str(tmp_path / "s")]
    _apply_config(argv, registry)
    args = parser.parse_args(argv)
    assert args.groups == [1, 2]
    assert args.event_band == (400.0, 3000.0)
    args = parser.parse_args(["evaluate", "--scheme", "scores", "--out", "x"])
    assert args.far_targets == [0.001, 0.005, 0.01, 0.05]


@pytest.mark.parametrize("values, explicit", [
    ({"scheme": "nope"}, ["--out", "x.csv"]),
    ({"out": 5}, ["--scheme", "schurmann"]),
])
def test_bad_config_value_is_usage_error(values, explicit, scenario_dir, tmp_path,
                                         monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(values))
    code = main(["features", "--config", str(config), "--dataset", str(scenario_dir),
                 *explicit])
    assert code in (1, 2)
    assert "Traceback" not in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


@pytest.mark.parametrize("scheme, table", [("karapanos", "score"),
                                           ("schurmann", "fingerprint")])
def test_evaluate_and_robustness_read_only_the_ground_truth(scheme, table, valid_files,
                                                            scenario_dir, tmp_path):
    # Both commands read the manifest and the ground truth it names, and no
    # audio, sensor or beacon file: their outputs stay the same without them.
    bare = tmp_path / "scen"
    shutil.copytree(scenario_dir, bare)
    for modality in ("audio", "sensors", "beacons"):
        shutil.rmtree(bare / modality)
    outputs = {}
    for name, dataset in [("full", scenario_dir), ("bare", bare)]:
        out = tmp_path / name
        features = ["--scheme", scheme, "--features", str(valid_files / f"{table}.csv"),
                    "--dataset", str(dataset)]
        run_ok(["evaluate", *features, "--out", str(out / "eval")])
        run_ok(["robustness", "--results", str(out / "eval" / "results.csv"), *features,
                "--out", str(out / "robust.csv")])
        outputs[name] = {p.relative_to(out): p.read_bytes()
                         for p in sorted(out.rglob("*")) if p.is_file()}
    assert Path("robust.csv") in outputs["full"]
    assert outputs["bare"] == outputs["full"]


@pytest.mark.parametrize("rate", [8000, 32000])
def test_karapanos_gates_only_pairs_of_a_device_at_another_rate(rate, scenario_dir,
                                                                 tmp_path):
    # The top third-octave band reaches 4.49 kHz, above an 8 kHz device's
    # Nyquist; a 32 kHz device holds the bands but matches no other device.
    other = tmp_path / "scen"
    shutil.copytree(scenario_dir, other)
    manifest = json.loads((other / "manifest.json").read_text())
    device = manifest["devices"][0]["id"]
    wav = other / manifest["devices"][0]["audio"]["path"]
    native, samples = wavfile.read(wav)
    assert native == 16000
    resampled = resample_poly(samples.astype(float), rate // 8000, 2)
    wavfile.write(wav, rate, np.clip(np.round(resampled), -32768, 32767).astype(np.int16))
    rows = {}
    for name, dataset in [("native", scenario_dir), ("other", other)]:
        out = tmp_path / f"{name}.csv"
        run_ok(["features", "--scheme", "karapanos", "--dataset", str(dataset),
                "--out", str(out), "--t", "10"])
        with open(out, newline="") as fh:
            rows[name] = list(csv.DictReader(fh))
    assert len(rows["other"]) == len(rows["native"])
    for native_row, row in zip(rows["native"], rows["other"]):
        if device in row["pair_id"].split("|"):
            assert (row["score"], row["gated"]) == ("", "1")
        else:
            assert row == native_row
    assert any(r["gated"] == "0" for r in rows["other"])


def test_schurmann_skips_only_a_device_at_8khz(scenario_dir, tmp_path):
    # 32 bands of 250 Hz need 16 kHz audio: at 8 kHz bands 17-32 lie above Nyquist.
    other = tmp_path / "scen"
    shutil.copytree(scenario_dir, other)
    manifest = json.loads((other / "manifest.json").read_text())
    device = manifest["devices"][0]["id"]
    wav = other / manifest["devices"][0]["audio"]["path"]
    _, samples = wavfile.read(wav)
    resampled = resample_poly(samples.astype(float), 1, 2)
    wavfile.write(wav, 8000, np.clip(np.round(resampled), -32768, 32767).astype(np.int16))
    rows = {}
    for name, dataset in [("native", scenario_dir), ("other", other)]:
        out = tmp_path / f"{name}.csv"
        run_ok(["features", "--scheme", "schurmann", "--dataset", str(dataset),
                "--out", str(out), "--t", "10"])
        with open(out, newline="") as fh:
            rows[name] = list(csv.DictReader(fh))
    assert any(r["device_id"] == device for r in rows["native"])
    assert rows["other"] == [r for r in rows["native"] if r["device_id"] != device]


def test_miettinen_drops_only_a_too_short_device(scenario_dir, tmp_path):
    # 0.25 s of audio holds no 1 s measurement window.
    other = tmp_path / "scen"
    shutil.copytree(scenario_dir, other)
    manifest = json.loads((other / "manifest.json").read_text())
    device = manifest["devices"][0]["id"]
    wav = other / manifest["devices"][0]["audio"]["path"]
    rate, samples = wavfile.read(wav)
    wavfile.write(wav, rate, samples[:rate // 4])
    rows = {}
    for name, dataset in [("native", scenario_dir), ("other", other)]:
        out = tmp_path / f"{name}.csv"
        run_ok(["features", "--scheme", "miettinen", "--dataset", str(dataset),
                "--out", str(out), "--t", "2", "--bits", "4"])
        with open(out, newline="") as fh:
            rows[name] = list(csv.DictReader(fh))
    assert any(r["device_id"] == device for r in rows["native"])
    assert rows["other"] == [r for r in rows["native"] if r["device_id"] != device]


def _truong_model(kind: str = "forest", left: tuple = (1, -1, -1),
                  value: tuple = (0.0, 0.0, 1.0)) -> bytes:
    """A one-split model over the truong features; the defaults make it valid."""
    n = len(truong.ALL_FEATURES)
    return json.dumps({
        "kind": kind, "params": {"kind": kind, "n_trees": 1, "max_depth": 1,
                                 "learning_rate": 0.3},
        "n_features": n, "prior": 0.5, "base_score": 0.0, "seed": 0, "cv_auc": None,
        "feature_names": None, "feature_importances": [1.0 / n] * n,
        "trees": [{"feature": [0, -1, -1], "threshold": [0.5, 0.0, 0.0],
                   "missing_left": [1, 1, 1], "left": list(left), "right": [2, -1, -1],
                   "value": list(value), "root": 0}]}).encode()


def _edited_model(old: bytes, new: bytes, **kwargs) -> bytes:
    """`_truong_model` with `old` replaced by `new`: json.dumps cannot write a
    literal that overflows or a quoted number."""
    model = _truong_model(**kwargs)
    assert model.count(old) == 1
    return model.replace(old, new)


_LR = b'"learning_rate": 0.3'
_EDITED_MODELS = {
    "overflowing_leaf": _edited_model(b"0.25", b"1e999", value=(0.0, 0.0, 0.25)),
    "string_inf_leaf": _edited_model(b"0.25", b'"inf"', value=(0.0, 0.0, 0.25)),
    "string_nan_threshold": _edited_model(b'"threshold": [0.5', b'"threshold": ["nan"'),
    "overflowing_prior": _edited_model(b'"prior": 0.5', b'"prior": 1e999'),
    "string_nan_prior": _edited_model(b'"prior": 0.5', b'"prior": "nan"'),
    "overflowing_learning_rate": _edited_model(_LR, b'"learning_rate": 1e999',
                                               kind="boosting", value=(0.0, 0.0, 0.0)),
    "huge_int_learning_rate": _edited_model(_LR, b'"learning_rate": 1' + b"0" * 400,
                                            kind="boosting", value=(0.0, 0.0, 0.0)),
    "string_learning_rate": _edited_model(_LR, b'"learning_rate": "fast"',
                                          kind="boosting", value=(0.0, 0.0, 0.0)),
}


@pytest.mark.parametrize("content", [b"not json", b'{"kind":"forest"}', b"\xffnot utf-8",
                                     _truong_model(left=(0, -1, -1)),
                                     _truong_model(kind="tree"),
                                     _truong_model(value=(0.0, math.nan, 1.0)),
                                     _truong_model(value=(0.0, 0.0, math.inf)),
                                     *_EDITED_MODELS.values()],
                         ids=["not_json", "no_params", "non_utf8", "cyclic_tree",
                              "unknown_kind", "nan_leaf", "infinite_leaf", *_EDITED_MODELS])
def test_bad_model_file_exits_2(content, valid_files, tmp_path, capsys):
    model = tmp_path / "model.json"
    model.write_bytes(content)
    code = main(["ml", "predict", "--model", str(model), "--scheme", "truong",
                 "--features", str(valid_files / "truong.csv"),
                 "--out", str(tmp_path / "pred.csv")])
    assert code == 2
    assert f"({model})" in capsys.readouterr().err
    assert not (tmp_path / "pred.csv").exists()


def test_handwritten_model_predicts(valid_files, tmp_path):
    model = tmp_path / "model.json"
    model.write_bytes(_truong_model())
    run_ok(["ml", "predict", "--model", str(model), "--scheme", "truong",
            "--features", str(valid_files / "truong.csv"), "--out", str(tmp_path / "pred.csv")])
    assert (tmp_path / "pred.csv").exists()


@pytest.mark.parametrize("folds, via_config", [("1", False), ("0", False), ("-3", False),
                                               (1, True), ("0", True), (1, "=")])
def test_folds_below_two_is_usage_error(folds, via_config, valid_files, tmp_path, capsys):
    argv = ["ml", "train", "--scheme", "shrestha", "--grid", "small",
            "--features", str(valid_files / "shrestha.csv"), "--out", str(tmp_path / "m.json")]
    if via_config:
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"folds": folds}))
        argv += [f"--config={config}"] if via_config == "=" else ["--config", str(config)]
    else:
        argv += ["--folds", folds]
    assert main(argv) == 1
    assert "need at least 2 folds" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


def test_folds_config_takes_json_number(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"folds": 3}))
    parser, registry = build_parser()
    argv = ["ml", "train", "--config", str(config), "--scheme", "truong",
            "--features", "f.csv", "--out", "m.json"]
    _apply_config(argv, registry)
    assert parser.parse_args(argv).folds == 3


def test_every_numeric_flag_takes_a_json_number(tmp_path):
    _, registry = build_parser()
    config = tmp_path / "cfg.json"
    checked = 0
    for name, actions in registry.items():
        for spec, action in actions.values():
            try:
                numeric = isinstance(spec.kind("3"), (int, float))
            except (ValueError, TypeError, argparse.ArgumentTypeError):
                numeric = False
            # A kind that parses numbers must be one the config reader accepts.
            assert numeric == spec.numeric, (name, spec.name)
            if numeric:
                # a JSON number inside the flag's range
                number = spec.low if math.isfinite(spec.low) else 3
                config.write_text(json.dumps({spec.name.replace("-", "_"): number}))
                _apply_config([*name.split(), "--config", str(config)], registry)
                assert action.default == number, (name, spec.name)
                checked += 1
    assert checked >= 20


# Every flag of every command, as (command, spec).
FLAGS = [(name, spec) for name, (_, _, flags) in cli.COMMANDS.items() for spec in flags]
FLAG_IDS = [f"{name} --{spec.name}" for name, spec in FLAGS]


def _argv_with_required(name: str, skip) -> list[str]:
    """`name`'s argv with a valid value for each required flag but `skip`."""
    argv = name.split()
    for spec in cli.COMMANDS[name][2]:
        if spec.required and spec is not skip:
            argv.append(f"--{spec.name}={spec.choices[0] if spec.choices else 'x'}")
    return argv


def _assert_in_spec(spec, value) -> None:
    if spec.numeric:
        assert type(value) is spec.kind
        assert spec.kind is int or math.isfinite(value)
        assert spec.low <= value <= spec.high and not (spec.high_open and value == spec.high)
    elif spec.choices:
        assert value in spec.choices


@pytest.fixture(scope="module")
def config_file(tmp_path_factory):
    return tmp_path_factory.mktemp("config") / "cfg.json"


def _bounds(spec) -> list:
    """The flag's finite bounds, where off-by-one range checks show."""
    return [bound for bound in (spec.low, spec.high) if math.isfinite(bound)] or [0]


ARGV_TEXT = st.one_of(st.text(), st.integers().map(str), st.floats().map(repr),
                      st.sampled_from(["nan", "-inf", "1" + "0" * 400]))


@pytest.mark.parametrize("name, spec", FLAGS, ids=FLAG_IDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_flag_text_parses_into_its_range_or_is_usage_error(name, spec, data):
    text = data.draw(st.one_of(ARGV_TEXT, st.sampled_from(_bounds(spec)).map(repr)))
    parser, _ = build_parser()
    try:
        args = parser.parse_args([*_argv_with_required(name, spec), f"--{spec.name}={text}"])
    except cli._UsageError:
        return
    _assert_in_spec(spec, getattr(args, spec.name.replace("-", "_")))


JSON_SCALAR = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(),
                        st.just(10 ** 400))


@pytest.mark.parametrize("name, spec", FLAGS, ids=FLAG_IDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_flag_config_value_parses_into_its_range_or_is_usage_error(name, spec, data,
                                                                    config_file):
    value = data.draw(st.one_of(JSON_SCALAR, st.sampled_from(_bounds(spec))))
    config_file.write_text(json.dumps({spec.name: value}))
    parser, registry = build_parser()
    argv = [*_argv_with_required(name, spec), f"--config={config_file}"]
    try:
        _apply_config(argv, registry)
        args = parser.parse_args(argv)
    except cli._UsageError:
        return
    _assert_in_spec(spec, getattr(args, spec.name.replace("-", "_")))


def test_readme_range_table_matches_the_flag_specs():
    table = "\n".join([
        "| flag | kind | range |", "|---|---|---|",
        *(f"| `{name} --{spec.name}` | {spec.kind.__name__} | {spec.bounds} |"
          for name, spec in FLAGS if spec.numeric)]) + "\n"
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    assert table in readme, f"README.md's flag-range table should read:\n{table}"


def _flag_text(spec, valid: bool) -> st.SearchStrategy[str]:
    """Argv text for one flag. Valid: in its range, its extremes included.
    Invalid: one step past a bound or beyond, not a number, or not a choice."""
    if spec.choices:
        return (st.sampled_from(spec.choices) if valid
                else st.text(max_size=10).filter(lambda text: text not in spec.choices))
    low, high = (bound if math.isfinite(bound) else None for bound in (spec.low, spec.high))
    if spec.kind is int:
        numbers, huge = st.integers, 10 ** 30
        below = None if low is None else low - 1
        above = None if high is None else high + 1
    else:
        # The nearest floats inside each bound (MAX_T lies between two), and outside.
        numbers = partial(st.floats, allow_nan=False, allow_infinity=False)
        huge = sys.float_info.max
        if low is not None:
            low = float(low) if float(low) >= low else np.nextafter(float(low), math.inf)
            below = np.nextafter(low, -math.inf)
        if high is not None:
            high = float(high) if float(high) <= high else np.nextafter(float(high), -math.inf)
            above = np.nextafter(high, math.inf)
            if spec.high_open:
                high, above = np.nextafter(high, -math.inf), high
    if valid:
        edges = [-huge if low is None else low, huge if high is None else high]
        return st.one_of(numbers(low, high), st.sampled_from(edges)).map(str)
    past = [*([st.just(below), numbers(max_value=below)] if low is not None else []),
            *([st.just(above), numbers(min_value=above)] if high is not None else [])]
    return st.one_of(*past).map(str) | st.sampled_from(
        ["", "x", "0x10", "1,2", "nan", "-inf", "inf", "1e400", "-1e400"])


@pytest.fixture(scope="module")
def small_scenario(tmp_path_factory):
    """A 10 s scenario of three devices, and its audio's size in bytes as float64."""
    out = tmp_path_factory.mktemp("argv") / "scen"
    run_ok(["datagen", "--out", str(out), "--seed", "3", "--duration-s", "10",
            "--groups", "2,1"])
    return out, 3 * 10 * 16000 * 8


FEATURE_FLAGS = [spec for spec in cli.COMMANDS["features"][2] if spec.kind is not Path]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_features_argv_exits_0_1_or_2_within_the_audio(data, small_scenario, tmp_path_factory):
    # Each flag of `features` but its paths is given or not, the required
    # ones always, and at most one is invalid. No run may write a non-finite
    # cell, and no flag may scale an allocation past what the audio sets:
    # the largest run, Truong's states and two workers' buffers at --t 10,
    # takes about 7.5 times the scenario's audio as float64.
    scenario, audio_bytes = small_scenario
    out = tmp_path_factory.getbasetemp() / "argv_out.csv"
    out.unlink(missing_ok=True)
    chosen = [spec for spec in FEATURE_FLAGS if spec.required or data.draw(st.booleans())]
    invalid = data.draw(st.none() | st.sampled_from(chosen))
    argv = ["features", "--dataset", str(scenario), "--out", str(out),
            *(f"--{spec.name}={data.draw(_flag_text(spec, spec is not invalid))}"
              for spec in chosen)]
    tracemalloc.start()
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setenv("ZIS_THREADS", "2")
            code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code in (0, 1, 2) and (invalid is None or code == 1)
    assert peak < 16 * audio_bytes
    if code == 0:
        assert not {"inf", "nan"} & set(out.read_text().lower().replace(",", "\n").split())


# Valid argv text of `datagen`'s size flags, drawn small so that a run takes
# well under a second, and of its flags whose kind parses a list.
DATAGEN_TEXT = {
    "duration-s": st.integers(1, 3).map(str),
    "beacon-population": st.integers(0, 30).map(str),
    "groups": st.lists(st.integers(1, 3), min_size=2, max_size=3).map(
        lambda sizes: ",".join(map(str, sizes))),
    "event-band": st.lists(st.floats(0, cli.datagen.RATE_HZ / 2, exclude_min=True,
                                     exclude_max=True), min_size=2, max_size=2, unique=True
                           ).map(lambda band: "{!r},{!r}".format(*sorted(band))),
}
# Invalid argv text of the flags whose kind parses a list.
LIST_INVALID = {"groups": ["x", "1.5,2", "1;2", "2,y", "1", "3", "", "0,2", "2,0,1", "2,-1"],
                "event-band": ["5,1", "300,8000", "0,10", "nan,5", "x", "1,2,3"]}


@pytest.mark.parametrize("command", ["datagen", "align"])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_datagen_and_align_argv_exits_0_1_or_2(command, data, small_scenario,
                                               tmp_path_factory):
    # As for `features`: each flag but the paths is given or not, at most one
    # is invalid, and the value flags range over their whole range and one
    # step past each bound. `datagen`'s size flags are always given.
    scenario, _ = small_scenario
    out = tmp_path_factory.getbasetemp() / f"argv_{command}"
    flags = [spec for spec in cli.COMMANDS[command][2] if spec.kind is not Path]
    chosen = [spec for spec in flags
              if command == "datagen" and spec.name in ("duration-s", "groups")
              or data.draw(st.booleans())]
    invalid = data.draw(st.none() | st.sampled_from([None, *chosen]))  # None half the time

    def text(spec) -> st.SearchStrategy[str]:
        if spec is invalid and spec.name in LIST_INVALID:
            return st.sampled_from(LIST_INVALID[spec.name])
        if spec is not invalid and spec.name in DATAGEN_TEXT:
            return DATAGEN_TEXT[spec.name]
        return _flag_text(spec, spec is not invalid)

    argv = [command, "--out", str(out), *(["--dataset", str(scenario)] if command == "align"
                                          else []),
            *(f"--{spec.name}={data.draw(text(spec))}" for spec in chosen)]
    code = main(argv)
    assert code in (0, 1, 2) and (invalid is None or code == 1)


@pytest.fixture(scope="module")
def small_tables(small_scenario, tmp_path_factory):
    """Small valid tables of every kind the table-reading commands take, from
    the small scenario at --t 1, keyed by the scheme or the flag that reads them."""
    scenario, _ = small_scenario
    base = tmp_path_factory.mktemp("argv_tables")
    files = {"dataset": scenario, "model": base / "model.json",
             "scores": base / "prediction.csv", "results": base / "eval" / "results.csv"}
    for scheme, extra in [("karapanos", []), ("schurmann", []), ("truong", []),
                          ("shrestha", []), ("miettinen", ["--bits", "2"])]:
        files[scheme] = base / f"{scheme}.csv"
        run_ok(["features", "--scheme", scheme, "--dataset", str(scenario),
                "--out", str(files[scheme]), "--t", "1", *extra])
    run_ok(["ml", "train", "--scheme", "truong", "--grid", "small", "--folds", "2",
            "--features", str(files["truong"]), "--out", str(files["model"]),
            "--predictions", str(files["scores"])])
    run_ok(["evaluate", "--scheme", "scores", "--scores", str(files["scores"]),
            "--dataset", str(scenario), "--out", str(base / "eval")])
    return files


# Valid and invalid argv text of the table-reading commands' flags whose kind
# parses a list, and the flags `ml train` keeps small: a small grid and two
# folds, unless the flag is the one drawn over its whole range.
FAR_TARGETS = st.lists(st.floats(0, 1, exclude_min=True, exclude_max=True), max_size=4).map(
    lambda targets: ",".join(map(repr, targets)))
FAR_TARGETS_INVALID = ["0", "1", "0.5,1", "-0.1", "nan", "0.1,inf", "x", "0.1;0.2"]
SEARCH_PINS = {"grid": "small", "folds": "2"}
TABLE_COMMANDS = ["fingerprint-randomness", "evaluate", "robustness", "ml train", "ml predict"]


@pytest.mark.parametrize("command", TABLE_COMMANDS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_table_command_argv_exits_0_1_or_2(command, data, small_tables, tmp_path_factory):
    # As for `features`: each flag is given or not, the required ones always,
    # at most one is invalid, and the value flags range over their whole range
    # and one step past each bound. An input path names the table that its
    # scheme reads, or any other table; an output path is fresh.
    out = tmp_path_factory.mktemp("argv_out")
    flags = cli.COMMANDS[command][2]
    chosen = [spec for spec in flags
              if spec.required or spec.name in SEARCH_PINS and command == "ml train"
              or data.draw(st.integers(0, 3)) > 0]
    invalid = data.draw(st.none() | st.sampled_from([None, *(
        spec for spec in chosen if spec.kind not in (Path, cli._utf8_text))]))
    wide = data.draw(st.sampled_from([None, *SEARCH_PINS]))

    def text(spec) -> st.SearchStrategy[str]:
        if spec.name == "far-targets":
            return st.sampled_from(FAR_TARGETS_INVALID) if spec is invalid else FAR_TARGETS
        if spec.name in SEARCH_PINS and spec is not invalid and spec.name != wide:
            return st.just(SEARCH_PINS[spec.name])
        if spec.kind is cli._utf8_text:  # any argv text, undecoded bytes too
            return st.text(st.characters(exclude_categories=()))
        return _flag_text(spec, spec is not invalid)

    argv = command.split()
    values = {spec.name: data.draw(text(spec)) for spec in chosen if spec.kind is not Path}
    scheme = values.get("scheme", "")
    read = {"features": scheme if command != "fingerprint-randomness" else "schurmann"}
    for spec in chosen:
        if spec.kind is not Path:
            argv.append(f"--{spec.name}={values[spec.name]}")
        elif spec.name in ("out", "predictions", "metrics"):
            argv.append(f"--{spec.name}={out / spec.name}")
        else:
            key = read.get(spec.name, spec.name)
            any_table = st.sampled_from(list(small_tables.values()))
            path = data.draw(st.just(small_tables[key]) | any_table if key in small_tables
                             else any_table)
            argv.append(f"--{spec.name}={path}")
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("ZIS_THREADS", "1")
        code = main(argv)
    assert code in (0, 1, 2) and (invalid is None or code == 1)


@pytest.mark.parametrize("argv", [
    ["features", "--scheme", "miettinen", "--t", "5", "--bits", "0"],
    ["features", "--scheme", "miettinen", "--t", "5", "--bits", "-1"],
    ["features", "--scheme", "karapanos", "--t", "0"],
    ["features", "--scheme", "truong", "--t", "0"],
    ["features", "--scheme", "schurmann", "--t", "0"],
    ["features", "--scheme", "miettinen", "--t", "-3"],
    ["features", "--scheme", "karapanos", "--maxlag-s", "-1"],
    ["features", "--scheme", "karapanos", "--maxlag-s", "nan"],
    ["features", "--scheme", "karapanos", "--maxlag-s", "1e15"],
    ["features", "--scheme", "karapanos", "--maxlag-s", "1e300"],
    ["features", "--scheme", "karapanos", "--t", "5", "--maxlag-s", "5.5"],
    ["features", "--scheme", "miettinen", "--t", "99999999999999999999"],
    ["features", "--scheme", "miettinen", "--t", str(cli.MAX_T + 1)],
    ["align", "--maxlag-s", "-1"],
    ["datagen", "--duration-s", "0"],
    ["datagen", "--duration-s", "-5"],
    ["datagen", "--seed", "-1"],
    ["datagen", "--event-rate", "-1"],
    ["ml", "train", "--scheme", "truong", "--seed", "-1"],
    ["evaluate", "--scheme", "karapanos", "--far-targets", "0,2"],
    ["align", "--probe-s", "nan"],
    ["features", "--scheme", "karapanos", "--power-db", "nan"],
    ["features", "--scheme", "truong", "--theta", "nan"],
    ["features", "--scheme", "miettinen", "--delta-abs", "nan"],
    ["features", "--scheme", "miettinen", "--delta-rel", "inf"],
    ["evaluate", "--scheme", "schurmann", "--surprisal-threshold", "nan"],
    ["datagen", "--event-band", "5,1"],
    ["datagen", "--event-band", "300,8000"],
    ["datagen", "--noise-floor-db", "nan"],
    ["datagen", "--beacon-dropout", "2"],
    ["datagen", "--beacon-population", "-3"],
    ["features", "--scheme", "miettinen", "--measurement-window-s", "nan"],
    ["features", "--scheme", "miettinen", "--measurement-window-s", "inf"],
    ["features", "--scheme", "miettinen", "--measurement-window-s", "0"],
    ["features", "--scheme", "miettinen", "--measurement-window-s", "-1"],
    ["ml", "train", "--scheme", "truong", "--early-stop", "-1"],
    ["datagen", "--leakage", "5"],
    ["datagen", "--leakage", "nan"],
    ["fingerprint-randomness", "--sub-len", "-1"],
    ["features", "--scheme", "truong", "--theta", "1e308"],
    ["features", "--scheme", "miettinen", "--measurement-window-s", "1.1235582092889475e+304"],
    ["align", "--probe-s", "1e308"],
    ["align", "--maxlag-s", "1e308"],
    ["datagen", "--event-rate", "1e308"],
    ["datagen", "--noise-floor-db", "1e308"],
    ["datagen", "--duration-s", str(cli.datagen.MAX_DURATION_S + 1)],
    ["datagen", "--duration-s", "100000000000000"],
    ["datagen", "--groups", "1"],
    ["datagen", "--groups", "0,2"],
    ["evaluate", "--scheme", "karapanos", "--scenario", "a\udcffb"],  # argv byte 0xff
])
def test_out_of_range_number_is_usage_error(argv, scenario_dir, valid_files, tmp_path):
    dataset = ["--dataset", str(scenario_dir)]
    inputs = {"features": dataset, "align": dataset,
              "ml": ["--features", str(valid_files / "truong.csv")],
              "evaluate": ["--features", str(valid_files / "score.csv"), *dataset],
              "fingerprint-randomness": ["--features", str(valid_files / "fingerprint.csv")]}
    proc = _cold("-m", "ziskit.cli", *argv, *inputs.get(argv[0], []),
                 "--out", str(tmp_path / "out"), cwd=tmp_path, timeout=60)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "usage error" in proc.stderr


def test_longest_duration_runs_out_of_memory_without_traceback(tmp_path):
    # The first buffer of the longest scenario has a byte count just inside
    # int64: numpy refuses it as an allocation (exit 2), not as a size.
    proc = _cold("-m", "ziskit.cli", "datagen", "--duration-s", str(cli.datagen.MAX_DURATION_S),
                 "--out", str(tmp_path / "scen"), cwd=tmp_path, timeout=60)
    assert proc.returncode in (0, 2), proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", ["train", "predict"])
@pytest.mark.parametrize("scheme", ["truong", "shrestha"])
def test_ml_on_header_only_features_exits_2(scheme, command, valid_files, tmp_path, capsys):
    header = (valid_files / f"{scheme}.csv").read_bytes().split(b"\r\n")[0]
    empty = tmp_path / "empty.csv"
    empty.write_bytes(header + b"\r\n")
    # predict reads the features before the model, so the model need not exist
    model = ["--model", str(tmp_path / "absent.json")] if command == "predict" else []
    code = main(["ml", command, "--scheme", scheme, "--features", str(empty), *model,
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert "no records in feature file" in capsys.readouterr().err


@pytest.mark.parametrize("outputs", [[], ["--metrics"], ["--predictions"]])
def test_ml_train_refits_only_for_predictions_or_metrics(outputs, valid_files, tmp_path,
                                                         monkeypatch):
    from ziskit.ml import ensemble

    calls = []
    real_oof = ensemble.oof_predictions

    def counting_oof(*args, **kwargs):
        calls.append(args[1])
        return real_oof(*args, **kwargs)

    monkeypatch.setattr(ensemble, "oof_predictions", counting_oof)
    run_ok(["ml", "train", "--scheme", "shrestha", "--grid", "small", "--folds", "3",
            "--features", str(valid_files / "shrestha.csv"), "--out", str(tmp_path / "m.json"),
            *(arg for flag in outputs for arg in (flag, str(tmp_path / "out.csv")))])
    assert calls[:2] == list(ensemble.GRID_SMALL)
    assert len(calls) == 2 + len(outputs)


@pytest.mark.parametrize("scheme", ["truong", "shrestha"])
def test_ml_train_bytes_identical_for_one_and_two_workers(scheme, valid_files, tmp_path,
                                                          monkeypatch):
    outputs = {}
    for threads in ("1", "2"):
        monkeypatch.setenv("ZIS_THREADS", threads)
        model, preds = tmp_path / f"m{threads}.json", tmp_path / f"p{threads}.csv"
        run_ok(["ml", "train", "--scheme", scheme, "--grid", "small", "--folds", "3",
                "--features", str(valid_files / f"{scheme}.csv"), "--out", str(model),
                "--predictions", str(preds)])
        outputs[threads] = (model.read_bytes(), preds.read_bytes())
    assert outputs["1"] == outputs["2"]


def _cold(*args: str, cwd: Path, timeout: float = 300) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parents[1] / "src"),
                    os.environ.get("PYTHONPATH", "")) if p))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=timeout)


def test_cli_import_loads_no_scipy_and_commands_run_cold(tmp_path, monkeypatch):
    # Two workers on any machine: each audio scheme loads its kernels first
    # in a worker thread.
    monkeypatch.setenv("ZIS_THREADS", "2")
    proc = _cold("-c", "import sys, ziskit.cli; "
                 "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
                 cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    # Each command imports the scipy parts it uses on first call.
    for argv in (["datagen", "--out", "scen", "--seed", "3", "--duration-s", "20",
                  "--groups", "2,2"],
                 ["features", "--scheme", "karapanos", "--dataset", "scen",
                  "--out", "kara.csv", "--t", "10"],
                 ["features", "--scheme", "schurmann", "--dataset", "scen",
                  "--out", "fp.csv", "--t", "10"],
                 ["features", "--scheme", "truong", "--dataset", "scen",
                  "--out", "truong.csv", "--t", "10"],
                 ["fingerprint-randomness", "--features", "fp.csv", "--out", "rand.json"]):
        proc = _cold("-m", "ziskit.cli", *argv, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
    assert len((tmp_path / "kara.csv").read_text().splitlines()) == 1 + 6 * 2
    assert len((tmp_path / "truong.csv").read_text().splitlines()) == 1 + 6 * 2
    assert json.loads((tmp_path / "rand.json").read_text())["random_walk"]["n_fingerprints"] == 8


def test_maxlag_beyond_interval_is_usage_error_before_loading(tmp_path, capsys):
    # A lag beyond the interval has no samples to correlate; the bound is
    # checked before the dataset, absent here, is read.
    argv = ["features", "--scheme", "karapanos", "--dataset", str(tmp_path / "absent"),
            "--out", str(tmp_path / "kara.csv"), "--t", "10"]
    assert main([*argv, "--maxlag-s", "10.001"]) == 1
    assert "--maxlag-s 10.001 exceeds --t 10" in capsys.readouterr().err
    (tmp_path / "cfg.json").write_text('{"maxlag_s": 11}')
    assert main([*argv, "--config", str(tmp_path / "cfg.json")]) == 1
    assert main([*argv, "--maxlag-s", "10"]) == 2  # in range: the absent dataset is reached
    assert not (tmp_path / "kara.csv").exists()


@pytest.mark.parametrize("scheme", cli.SCHEMES)
def test_longest_interval_runs_every_scheme(scheme, scenario_dir, tmp_path):
    # --t is bounded so that its milliseconds fit int64. At the bound no
    # interval fits the scenario, so each scheme writes its header alone, and
    # Karapanos allocates nothing for a --maxlag-s within it.
    out = tmp_path / "out.csv"
    run_ok(["features", "--scheme", scheme, "--dataset", str(scenario_dir), "--out", str(out),
            "--t", str(cli.MAX_T), "--maxlag-s", "1e15"])
    assert cli.MAX_T * 1000 <= np.iinfo(np.int64).max < (cli.MAX_T + 1) * 1000
    if scheme != "shrestha":  # Shrestha's instances take no --t
        assert len(out.read_text().splitlines()) == 1


# Runs `main(sys.argv[1:])` with `karapanos._band_peaks` first asking for 8 PiB,
# beyond the address space, so the allocation fails at once, in a worker
# thread under ZIS_THREADS=2.
_HUGE_ALLOCATION = """
import sys
import numpy as np
from ziskit.cli import main
from ziskit.schemes import karapanos
real = karapanos._band_peaks
def band_peaks(*args):
    np.empty(1 << 50)
    return real(*args)
karapanos._band_peaks = band_peaks
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("threads", ["1", "2"])
def test_allocation_beyond_address_space_exits_2(threads, tmp_path, monkeypatch):
    run_ok(["datagen", "--out", str(tmp_path / "scen"), "--seed", "3", "--duration-s", "20",
            "--groups", "2,1"])
    monkeypatch.setenv("ZIS_THREADS", threads)
    proc = _cold("-c", _HUGE_ALLOCATION, "features", "--scheme", "karapanos",
                 "--dataset", "scen", "--out", "kara.csv", cwd=tmp_path, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: out of memory")


# Runs `main(sys.argv[1:])` and prints its exit code, the scipy modules loaded
# and those first imported outside the main thread.
_SCIPY_PROBE = """
import json, sys, threading
off_main = []
class Spy:
    def find_spec(self, name, path=None, target=None):
        if name.split('.')[0] == 'scipy' and threading.current_thread() is not threading.main_thread():
            off_main.append(name)
sys.meta_path.insert(0, Spy())
from ziskit.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'),
                  sorted(set(off_main))]))
"""


def test_each_command_loads_only_the_scipy_it_uses(tmp_path, monkeypatch):
    # WAV files are read with `wave`, and no command loads scipy.io. The band
    # filters load only scipy's compiled sosfilt kernel and the FFTs only its
    # compiled pocketfft kernel (`dsp._scipy_kernel`), never the scipy.signal
    # package, whose __init__ pulls in scipy.stats, scipy.interpolate and
    # scipy.optimize, nor the scipy.fft package, which pulls in scipy.special.
    # The audio pipelines leave each first load to their `pmap` worker
    # threads, which `dsp._scipy_kernel` serializes; datagen and align load
    # on the main thread.
    monkeypatch.setenv("ZIS_THREADS", "2")
    sosfilt, fft = "scipy.signal._sosfilt", "scipy.fft._pocketfft.pypocketfft"
    no_scipy = set()
    dataset = ["--dataset", "scen"]
    steps = [
        (["datagen", "--out", "scen", "--seed", "3", "--duration-s", "20",
          "--groups", "2,2"], {sosfilt}),
        (["features", "--scheme", "karapanos", *dataset, "--out", "kara.csv"], {sosfilt, fft}),
        (["features", "--scheme", "schurmann", *dataset, "--out", "fp.csv"], {sosfilt}),
        (["features", "--scheme", "truong", *dataset, "--out", "tr.csv"], {fft}),
        (["align", *dataset, "--probe-s", "10", "--maxlag-s", "1", "--out", "lags.json"],
         {fft}),
        (["features", "--scheme", "shrestha", *dataset, "--out", "shr.csv"], no_scipy),
        (["features", "--scheme", "miettinen", *dataset, "--out", "mi.csv"], no_scipy),
        (["ml", "train", "--scheme", "shrestha", "--features", "shr.csv", "--grid", "small",
          "--folds", "3", "--out", "model.json"], no_scipy),
        (["ml", "predict", "--scheme", "shrestha", "--features", "shr.csv",
          "--model", "model.json", "--out", "pred.csv"], no_scipy),
        (["evaluate", "--scheme", "karapanos", "--features", "kara.csv", *dataset,
          "--out", "ev_kara"], no_scipy),
        (["evaluate", "--scheme", "scores", "--scores", "pred.csv", "--out", "ev_pred"],
         no_scipy),
        (["robustness", "--results", "ev_kara/results.csv", "--scheme", "karapanos",
          "--features", "kara.csv", *dataset, "--out", "robust.csv"], no_scipy),
    ]
    for argv, kernels in steps:
        proc = _cold("-c", _SCIPY_PROBE, *argv, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        code, loaded, off_main = json.loads(proc.stdout.splitlines()[-1])
        assert code == 0, (argv, proc.stderr)
        # The Cython sosfilt kernel also imports the top-level scipy package
        # (scipy._lib and scipy.version), and no other scipy subpackage module.
        subpackages = [m for m in loaded if "." in m and m != "scipy.version"
                       and not m.split(".")[1].startswith("_")]
        assert subpackages == sorted(kernels), argv
        if sosfilt not in kernels:
            assert loaded == sorted(kernels), argv
        assert bool(off_main) == (argv[0] == "features" and bool(kernels)), argv


def test_cli_import_loads_no_process_pool(tmp_path):
    # Only a multi-worker `process_map` imports the process-pool modules.
    proc = _cold("-c", "import sys, ziskit.cli; print('multiprocessing' in sys.modules)",
                 cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_fingerprint_randomness_loads_no_scipy(valid_files, tmp_path):
    argv = ["fingerprint-randomness", "--features", str(valid_files / "fingerprint.csv"),
            "--out", "rand.json", "--sub-len", "31"]
    proc = _cold("-c", "import sys; from ziskit.cli import main; "
                 f"code = main({argv!r}); "
                 "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
                 cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"
    assert json.loads((tmp_path / "rand.json").read_text())["subfingerprints"]

import argparse
import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.io import wavfile
from scipy.signal import resample_poly

from ziskit import cli
from ziskit.cli import _apply_config, build_parser, main
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
    fps = tmp_path / "miet.csv"
    run_ok(["features", "--scheme", "miettinen", "--dataset", str(scenario_dir),
            "--out", str(fps), "--t", "5", "--bits", "8",
            "--delta-rel", "0.05", "--delta-abs", "5", "--with-surprisal"])
    with open(fps) as fh:
        header = fh.readline().strip()
        assert header == "device_id,interval_start_ms,t,hex_bits,surprisal_bits"
    run_ok(["evaluate", "--scheme", "miettinen", "--features", str(fps),
            "--dataset", str(scenario_dir), "--out", str(tmp_path / "eval_miet")])


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


@pytest.mark.parametrize("fault", ["ragged_row", "non_utf8"])
@pytest.mark.parametrize("table", ["score", "fingerprint", "truong", "shrestha",
                                   "prediction", "results"])
def test_bad_input_table_exits_2(table, fault, valid_files, scenario_dir, tmp_path,
                                 capsys):
    lines = (valid_files / f"{table}.csv").read_bytes().split(b"\r\n")
    lines[1] = lines[1] + b",extra" if fault == "ragged_row" else b"\xff" + lines[1]
    bad = tmp_path / f"bad_{table}.csv"
    bad.write_bytes(b"\r\n".join(lines))
    code = main(_reader_argv(table, bad, valid_files, scenario_dir, tmp_path / "out"))
    assert code == 2
    assert f"{bad}:2)" in capsys.readouterr().err


def _break_dataset_file(fault: str, dataset: Path) -> Path:
    """Break one file of a copied dataset as `fault` says; returns that file."""
    manifest = json.loads((dataset / "manifest.json").read_text())
    device = manifest["devices"][0]
    if fault.endswith("_bytes"):
        name = {"manifest_bytes": "manifest.json", "beacon_bytes": device["beacons"],
                "sensor_bytes": device["sensors"]["temperature"]}[fault]
        (dataset / name).write_bytes(b"\xff" + (dataset / name).read_bytes())
        return dataset / name
    if fault == "list":
        manifest = [manifest]
    elif fault == "no_id":
        del device["id"]
    elif fault == "sensor_kind":
        device["sensors"]["smell"] = device["sensors"]["temperature"]
    elif fault == "start_ms":
        device["audio"]["start_ms"] = "abc"
    else:
        manifest["devices"] = 5
    (dataset / "manifest.json").write_text(json.dumps(manifest))
    return dataset / "manifest.json"


@pytest.mark.parametrize("command", ["features", "evaluate"])
@pytest.mark.parametrize("fault", ["list", "no_id", "sensor_kind", "start_ms", "devices_int",
                                   "manifest_bytes", "sensor_bytes", "beacon_bytes"])
def test_bad_dataset_file_exits_2(fault, command, valid_files, scenario_dir, tmp_path,
                                  capsys):
    dataset = tmp_path / "scen"
    shutil.copytree(scenario_dir, dataset)
    bad = _break_dataset_file(fault, dataset)
    argv = ["--scheme", "karapanos", "--dataset", str(dataset), "--out", str(tmp_path / "out")]
    if command == "evaluate":
        argv += ["--features", str(valid_files / "score.csv")]
    assert main([command, *argv]) == 2
    assert str(bad) in capsys.readouterr().err


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


def test_evaluate_loads_dataset_once(valid_files, scenario_dir, tmp_path, monkeypatch):
    import ziskit.cli as cli

    calls = []
    real_load = cli.load_dataset

    def counting_load(path):
        calls.append(path)
        return real_load(path)

    monkeypatch.setattr(cli, "load_dataset", counting_load)
    run_ok(["evaluate", "--scheme", "karapanos", "--features", str(valid_files / "score.csv"),
            "--dataset", str(scenario_dir), "--out", str(tmp_path / "eval")])
    assert calls == [scenario_dir]


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


def _truong_model(kind: str = "forest", left: tuple = (1, -1, -1)) -> bytes:
    """A one-split model over the truong features; the defaults make it valid."""
    n = len(truong.ALL_FEATURES)
    return json.dumps({
        "kind": kind, "params": {"kind": kind, "n_trees": 1, "max_depth": 1,
                                 "learning_rate": 0.3},
        "n_features": n, "prior": 0.5, "base_score": 0.0, "seed": 0, "cv_auc": None,
        "feature_names": None, "feature_importances": [1.0 / n] * n,
        "trees": [{"feature": [0, -1, -1], "threshold": [0.5, 0.0, 0.0],
                   "missing_left": [1, 1, 1], "left": list(left), "right": [2, -1, -1],
                   "value": [0.0, 0.0, 1.0], "root": 0}]}).encode()


@pytest.mark.parametrize("content", [b"not json", b'{"kind":"forest"}', b"\xffnot utf-8",
                                     _truong_model(left=(0, -1, -1)),
                                     _truong_model(kind="tree")],
                         ids=["not_json", "no_params", "non_utf8", "cyclic_tree",
                              "unknown_kind"])
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
                                               (1, True), ("0", True)])
def test_folds_below_two_is_usage_error(folds, via_config, valid_files, tmp_path, capsys):
    argv = ["ml", "train", "--scheme", "shrestha", "--grid", "small",
            "--features", str(valid_files / "shrestha.csv"), "--out", str(tmp_path / "m.json")]
    if via_config:
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"folds": folds}))
        argv += ["--config", str(config)]
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
    for name, sub in registry.items():
        for action in sub._actions:
            if not action.option_strings or action.type is None:
                continue
            try:
                numeric = isinstance(action.type("3"), (int, float))
            except (ValueError, TypeError, argparse.ArgumentTypeError):
                numeric = False
            # A type that parses numbers must be one the config reader accepts.
            assert numeric == (action.type in cli.NUMERIC_TYPES), (name, action.dest)
            if numeric:
                config.write_text(json.dumps({action.dest: 3}))
                _apply_config([*name.split(), "--config", str(config)], registry)
                assert action.default == 3, (name, action.dest)
                checked += 1
    assert checked >= 20


@pytest.mark.parametrize("argv", [
    ["features", "--scheme", "miettinen", "--t", "5", "--bits", "0"],
    ["features", "--scheme", "miettinen", "--t", "5", "--bits", "-1"],
    ["features", "--scheme", "karapanos", "--t", "0"],
    ["features", "--scheme", "truong", "--t", "0"],
    ["features", "--scheme", "schurmann", "--t", "0"],
    ["features", "--scheme", "miettinen", "--t", "-3"],
    ["features", "--scheme", "karapanos", "--maxlag-s", "-1"],
    ["features", "--scheme", "karapanos", "--maxlag-s", "nan"],
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
])
def test_out_of_range_number_is_usage_error(argv, scenario_dir, valid_files, tmp_path):
    dataset = ["--dataset", str(scenario_dir)]
    inputs = {"features": dataset, "align": dataset,
              "ml": ["--features", str(valid_files / "truong.csv")],
              "evaluate": ["--features", str(valid_files / "score.csv"), *dataset]}
    proc = _cold("-m", "ziskit.cli", *argv, *inputs.get(argv[0], []),
                 "--out", str(tmp_path / "out"), cwd=tmp_path, timeout=60)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "usage error" in proc.stderr


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


def _cold(*args: str, cwd: Path, timeout: float = 300) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parents[1] / "src"),
                    os.environ.get("PYTHONPATH", "")) if p))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=timeout)


def test_cli_import_loads_no_scipy_and_commands_run_cold(tmp_path):
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
                 ["fingerprint-randomness", "--features", "fp.csv", "--out", "rand.json"]):
        proc = _cold("-m", "ziskit.cli", *argv, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
    assert len((tmp_path / "kara.csv").read_text().splitlines()) == 1 + 6 * 2
    assert json.loads((tmp_path / "rand.json").read_text())["random_walk"]["n_fingerprints"] == 8

"""Command-line entry point: datagen, align, features, evaluate, ml, robustness.

Exit codes: 0 success, 1 usage error, 2 data error. An optional JSON config
file supplies flag defaults; explicit flags win. Each flag is one `Flag` in
`COMMANDS`, which the parser, the config reader and the README table read.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

from ziskit import datagen, dsp, evaluation, pipeline, randomness
from ziskit.core.io import load_dataset, load_ground_truth
from ziskit.core.types import RSSI_LIMIT_DBM, EvaluationRecord, Fingerprint, common_length
from ziskit.errors import DegenerateLabels, IncompatibleFingerprints, ParseError, ZisError
from ziskit.ml import ensemble
from ziskit.schemes import karapanos, miettinen, shrestha, truong
from ziskit.table import Column, flag, read_table, real, write_table

SCHEMES = ("karapanos", "schurmann", "miettinen", "truong", "shrestha")
ML_SCHEMES = ("truong", "shrestha")
# evaluate and robustness also take any model's prediction CSV as "scores"
EVALUATED = SCHEMES + ("scores",)

RESULTS_COLUMNS = (Column("scheme"), Column("scenario"), Column("subscenario"),
                   Column("t", int), real("eer"), flag("starred"), real("threshold"),
                   real("availability"))
CURVE_COLUMNS = (real("far_target"), real("frr"))
ROBUSTNESS_COLUMNS = (Column("scheme"), Column("subscenario"), Column("t", int),
                      real("threshold"), real("far"), real("frr"), real("delta_far"),
                      real("delta_frr"))
METRICS_COLUMNS = (Column("model_id"), real("auc"), real("eer"), real("accuracy"))
# The longest interval, in seconds, whose length in milliseconds fits int64.
MAX_T = np.iinfo(np.int64).max // 1000


class _UsageError(Exception):
    pass


def _group_sizes(value: str) -> list[int]:
    """Comma-separated sizes of at least 2 groups, each of at least 1 device."""
    sizes = [int(v) for v in value.split(",") if v]
    if len(sizes) < 2 or min(sizes) < 1:
        raise argparse.ArgumentTypeError(
            f"need at least 2 groups of at least 1 device each, got {value}")
    return sizes


def _utf8_text(value: str) -> str:
    """Text that a UTF-8 table can hold: no argv byte that did not decode."""
    value.encode("utf-8")  # UnicodeEncodeError is a ValueError: a usage error
    return value


def _far_targets(value: str) -> list[float]:
    targets = [float(v) for v in value.split(",") if v]
    for target in targets:
        if not 0 < target < 1:
            raise argparse.ArgumentTypeError(f"FAR targets must lie in (0, 1), got {target}")
    return targets


def _event_band(value: str) -> tuple[float, float]:
    """`lo,hi` with 0 < lo < hi below the Nyquist frequency of generated audio."""
    lo, hi = (float(v) for v in value.split(","))
    if not 0 < lo < hi < datagen.RATE_HZ / 2:
        raise argparse.ArgumentTypeError(
            f"need 0 < lo < hi < {datagen.RATE_HZ // 2} Hz, got {value}")
    return lo, hi


@dataclass(frozen=True)
class Flag:
    """One flag of one command. `kind` converts its text; numeric kinds (int,
    float) take finite values in [low, high], or [low, high) if `high_open`."""

    name: str
    kind: Callable[[str], Any] = str
    default: Any = None
    low: float = -math.inf
    high: float = math.inf
    high_open: bool = False
    unit: str = ""
    choices: tuple[str, ...] | None = None
    required: bool = False
    help: str | None = None

    @property
    def numeric(self) -> bool:
        return self.kind in (int, float)

    @property
    def bounds(self) -> str:
        """A numeric flag's range in words, as usage errors and the README say it."""
        if self.high < math.inf and self.low > -math.inf:
            return f"a number in [{self.low}, {self.high}{')' if self.high_open else ']'}"
        if self.high < math.inf:
            return f"at most {self.high} {self.unit}".rstrip()
        if self.low > -math.inf:
            return f"at least {self.low} {self.unit}".rstrip()
        return "a finite number"

    def parse(self, text: str):
        """argparse type, also applied to config values: conversion, range, choices."""
        try:
            value = self.kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {self.kind.__name__}: {text!r}") from None
        # int kinds skip isfinite, which overflows on ints beyond float range
        if self.numeric and not (
                self.low <= value <= self.high and (self.kind is int or math.isfinite(value))
                and not (self.high_open and value == self.high)):
            raise argparse.ArgumentTypeError(f"need {self.bounds}, got {text}")
        if self.choices and value not in self.choices:
            raise argparse.ArgumentTypeError(f"choose from {', '.join(self.choices)}, got {text}")
        return value


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def build_parser() -> tuple[_Parser, dict]:
    """The parser, and per command {flag name: (its Flag, its argparse action)}."""
    parsers = {"": _Parser(prog="ziskit", description=__doc__)}
    subs = {}
    registry: dict[str, dict[str, tuple[Flag, argparse.Action]]] = {}
    for key, (handler, help_text, flags) in COMMANDS.items():
        group, _, name = key.rpartition(" ")
        if group not in subs:
            subs[group] = parsers[group].add_subparsers(dest="command", required=True)
        sp = parsers[key] = subs[group].add_parser(name, help=help_text)
        sp.set_defaults(handler=handler)
        sp.add_argument("--config", type=Path, help="JSON file with flag defaults")
        actions = registry[key] = {}
        for spec in flags:
            actions[spec.name] = spec, sp.add_argument(
                f"--{spec.name}", type=spec.parse, default=spec.default, choices=spec.choices,
                required=spec.required, help=spec.help)
    return parsers[""], registry


def _apply_config(argv: list[str], registry: dict) -> None:
    """Config file values become flag defaults; explicit flags still win. `--config`
    is found as the command's parser finds it: `--config=FILE` and prefixes apply too."""
    finder = _Parser(add_help=False)
    finder.add_argument("--config", type=Path)
    path = finder.parse_known_args(argv)[0].config
    if path is None:
        return
    try:
        defaults = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # bad JSON or undecodable bytes
        raise ParseError(f"bad config file: {exc}", path=str(path)) from exc
    if not isinstance(defaults, dict):
        raise ParseError("config file must hold a JSON object", path=str(path))
    command = " ".join(argv[:2]) if " ".join(argv[:2]) in registry else argv[0]
    for key, value in defaults.items():
        spec, action = registry.get(command, {}).get(key.replace("_", "-"), (None, None))
        # Values parse like flag strings; numeric flags also take JSON numbers.
        if spec is None or not (isinstance(value, str) or spec.numeric):
            raise _UsageError(f"config {key}={value!r} is not a value for {command}")
        try:
            action.default = spec.parse(str(value))
        except argparse.ArgumentTypeError as exc:
            raise _UsageError(f"config {key}: {exc}") from exc
        action.required = False  # a config value satisfies a required flag


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_datagen(args) -> int:
    profile = datagen.AmbientProfile(
        event_rate_per_min=args.event_rate,
        event_band_hz=args.event_band,
        noise_floor_db=args.noise_floor_db,
        beacon_population=args.beacon_population,
        beacon_dropout=args.beacon_dropout,
        leakage=args.leakage,
    )
    cfg = datagen.ScenarioConfig(seed=args.seed, duration_s=args.duration_s,
                                 groups=tuple(args.groups), profile=profile)
    datagen.generate(cfg, args.out)
    print(f"wrote scenario to {args.out}")
    return 0


def _cmd_align(args) -> int:
    dataset = load_dataset(args.dataset)
    devices = sorted(dataset.audio)
    report = []
    for i, dev_a in enumerate(devices):
        for dev_b in devices[i + 1:]:
            result = dsp.align(dataset.audio[dev_a], dataset.audio[dev_b],
                               probe_len_s=args.probe_s, maxlag_s=args.maxlag_s)
            rate = dataset.audio[dev_a].rate_hz
            report.append({
                "device_a": dev_a, "device_b": dev_b,
                "lag_samples": result.lag_samples,
                "lag_s": result.lag_samples / rate,
                "trimmed_len": result.trimmed_len,
            })
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps({"pairs": report}, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
    print(f"wrote {len(report)} pair lags to {args.out}")
    return 0


def _cmd_features(args) -> int:
    # A lag beyond the interval has no samples to correlate.
    if args.scheme == "karapanos" and args.maxlag_s > args.t:
        raise _UsageError(f"--maxlag-s {args.maxlag_s} exceeds --t {args.t}")
    dataset = load_dataset(args.dataset)
    if args.scheme == "karapanos":
        cfg = karapanos.KarapanosConfig(maxlag_s=args.maxlag_s,
                                        power_threshold_db=args.power_db)
        records = pipeline.karapanos_records(dataset, args.t, cfg)
        pipeline.write_score_csv(args.out, records)
    elif args.scheme == "schurmann":
        fingerprints = pipeline.schurmann_fingerprints(dataset, args.t)
        pipeline.write_fingerprint_csv(args.out, fingerprints, args.t)
    elif args.scheme == "miettinen":
        cfg = miettinen.MiettinenConfig(
            snapshot_s=args.t, bits=args.bits, delta_rel=args.delta_rel,
            delta_abs=args.delta_abs, measurement_window_s=args.measurement_window_s)
        fingerprints = pipeline.miettinen_fingerprints(dataset, cfg, source=args.source)
        pipeline.write_fingerprint_csv(args.out, fingerprints, args.bits * args.t)
    elif args.scheme == "truong":
        rows = pipeline.truong_rows(dataset, args.t, theta=args.theta)
        pipeline.write_truong_csv(args.out, rows)
    else:
        rows = shrestha.compress_instances(shrestha.build_dataset(dataset))
        pipeline.write_shrestha_csv(args.out, rows)
    print(f"wrote {args.scheme} features to {args.out}")
    return 0


def _read_fingerprints(path: Path) -> tuple[list[Fingerprint], list[int]]:
    """`pipeline.read_fingerprint_csv`, with every fingerprint of one length;
    a ParseError names the first that differs."""
    fingerprints, spans = pipeline.read_fingerprint_csv(path)
    if fingerprints:
        try:
            common_length(fingerprints)
        except IncompatibleFingerprints as exc:
            raise ParseError(str(exc), path=str(path)) from exc
    return fingerprints, spans


def _cmd_fingerprint_randomness(args) -> int:
    fingerprints, _ = _read_fingerprints(args.features)
    if not fingerprints:
        raise ZisError("no records in fingerprint file")
    report = {"random_walk": asdict(randomness.random_walk(fingerprints)),
              "markov": asdict(randomness.markov_stats(fingerprints))}
    if args.sub_len:
        chunks_by_pos: dict[int, list] = {}
        for fp in fingerprints:
            for pos, chunk in enumerate(randomness.split_subfingerprints(fp, args.sub_len)):
                chunks_by_pos.setdefault(pos, []).append(chunk)
        report["subfingerprints"] = [
            {"position": pos, **asdict(randomness.random_walk(chunks))}
            for pos, chunks in sorted(chunks_by_pos.items())
        ]
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=2, sort_keys=True,
                                   default=np.ndarray.tolist) + "\n", encoding="utf-8")
    print(f"wrote randomness report to {args.out}")
    return 0


def _load_records(args) -> dict[tuple[int, str], list[EvaluationRecord]]:
    """The scheme's records of each results row (`evaluation.cells`), labeled by
    the ground truth for feature files."""
    ground_truth = load_ground_truth(args.dataset) if args.dataset else None
    if args.scheme in ML_SCHEMES or args.scheme not in SCHEMES:  # a prediction CSV
        if not args.scores:
            raise _UsageError(f"--scores is required for scheme {args.scheme}")
        records = pipeline.read_prediction_csv(args.scores)
    elif not args.features or ground_truth is None:
        raise _UsageError("--features and --dataset are required for this scheme")
    elif args.scheme == "karapanos":
        records = pipeline.read_score_csv(args.features, ground_truth)
    else:
        records = pipeline.fingerprint_records(*_read_fingerprints(args.features), ground_truth,
                                               surprisal_threshold=args.surprisal_threshold)
    if not records:
        raise ZisError("no records to evaluate")
    return evaluation.cells(records, ground_truth)


def _cmd_evaluate(args) -> int:
    out_rows = []
    for (t, sub), subset in _load_records(args).items():
        scores, labels = evaluation.usable_scores(subset)
        avail = evaluation.availability(subset)
        try:
            rates = evaluation.equal_error_rate(scores, labels)
        except (DegenerateLabels, ValueError):
            continue
        out_rows.append((args.scheme, args.scenario, sub, t, rates.eer,
                         rates.starred, rates.threshold, avail))
        curve = evaluation.frr_at_far(scores, labels, far_targets=args.far_targets)
        write_table(args.out / "curves" / f"{args.scheme}_{sub}_t{t}.csv",
                    CURVE_COLUMNS, curve)
    if not out_rows:
        raise ZisError("no records with both classes present")
    write_table(args.out / "results.csv", RESULTS_COLUMNS, out_rows)
    print(f"wrote {len(out_rows)} result rows to {args.out / 'results.csv'}")
    return 0


def _cmd_robustness(args) -> int:
    """Each results row's threshold applied to the records of its (t, subscenario)
    cell (`evaluation.cells`). A row whose cell holds no records, or one class
    only, is skipped: a subscenario the ground truth lacks, for one."""
    cells = _load_records(args)
    out_rows = []
    results = read_table(args.results, RESULTS_COLUMNS)
    for scheme, _, subscenario, t, _, _, threshold, _ in results:
        scores, labels = evaluation.usable_scores(cells.get((t, subscenario), []))
        try:
            result = evaluation.cross_apply(threshold, scores, labels)
        except DegenerateLabels:
            continue
        out_rows.append((scheme, subscenario, t, threshold, result.far, result.frr,
                         result.delta_far, result.delta_frr))
    if not out_rows:
        raise ZisError("no overlapping configurations between results and scores")
    write_table(args.out, ROBUSTNESS_COLUMNS, out_rows)
    print(f"wrote {len(out_rows)} robustness rows to {args.out}")
    return 0


def _ml_dataset(args) -> tuple[ensemble.MLDataset, list[EvaluationRecord]]:
    read = pipeline.read_truong_csv if args.scheme == "truong" else pipeline.read_shrestha_csv
    return pipeline.ml_table(read(args.features))


def _cmd_ml_train(args) -> int:
    data, meta = _ml_dataset(args)
    grid = ensemble.GRID_FULL if args.grid == "full" else ensemble.GRID_SMALL
    model = ensemble.train(data, kind=args.kind, grid=grid, seed=args.seed,
                           early_stop_rounds=args.early_stop, cv_folds=args.folds)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(model.to_json() + "\n", encoding="utf-8")
    if args.predictions or args.metrics:
        scores = ensemble.oof_predictions(data, model.params, seed=args.seed, k=args.folds)
    if args.predictions:
        records = [replace(m, score=float(s)) for m, s in zip(meta, scores)]
        pipeline.write_prediction_csv(args.predictions, records)
    if args.metrics:
        labels = data.y.astype(int)
        cv_auc = ensemble.auc(scores, labels, data.weights)
        rates = evaluation.equal_error_rate(scores, labels)
        accepted = scores >= rates.threshold
        correct = np.where(labels == 1, accepted, ~accepted)
        accuracy = float(np.sum(correct * data.weights) / np.sum(data.weights))
        model_id = (f"{model.kind}-n{model.params.n_trees}-d{model.params.max_depth}"
                    f"-lr{model.params.learning_rate}-s{args.seed}")
        write_table(args.metrics, METRICS_COLUMNS,
                    [(model_id, cv_auc, rates.eer, accuracy)])
    print(f"trained {model.kind} model (cv_auc={model.cv_auc:.4f}) -> {args.out}")
    return 0


def _cmd_ml_predict(args) -> int:
    data, meta = _ml_dataset(args)
    model = ensemble.TrainedModel.from_json(args.model.read_bytes(), path=str(args.model))
    scores = model.predict(data.X)
    records = [replace(m, score=float(s)) for m, s in zip(meta, scores)]
    pipeline.write_prediction_csv(args.out, records)
    print(f"wrote {len(records)} predictions to {args.out}")
    return 0


# command -> (handler, help, flags); "ml train" is subcommand train of ml.
COMMANDS: dict[str, tuple[Callable | None, str, tuple[Flag, ...]]] = {
    "datagen": (_cmd_datagen, "generate a synthetic scenario", (
        Flag("out", Path, required=True), Flag("seed", int, 0, low=0),
        Flag("duration-s", int, 600, low=1, high=datagen.MAX_DURATION_S),
        Flag("groups", _group_sizes, "3,3", help="comma-separated group sizes"),
        Flag("leakage", float, 0.1, low=0, high=1, high_open=True),
        Flag("event-rate", float, 30.0, low=0, high=datagen.MAX_EVENT_RATE_PER_MIN),
        Flag("event-band", _event_band, "300,3500"),
        Flag("noise-floor-db", float, 45.0, high=datagen.MAX_NOISE_FLOOR_DB),
        Flag("beacon-population", int, 12, low=0),
        Flag("beacon-dropout", float, 0.1, low=0, high=1))),
    "align": (_cmd_align, "report pairwise audio lags", (
        Flag("dataset", Path, required=True), Flag("out", Path, required=True),
        Flag("probe-s", float, 60.0, low=0, high=MAX_T),
        Flag("maxlag-s", float, 3.0, low=0, high=MAX_T))),
    "features": (_cmd_features, "compute per-scheme context features", (
        Flag("scheme", choices=SCHEMES, required=True), Flag("dataset", Path, required=True),
        Flag("out", Path, required=True), Flag("t", int, 10, low=1, high=MAX_T),
        Flag("maxlag-s", float, 1.0, low=0), Flag("power-db", float, karapanos.DEFAULT_POWER_DB),
        Flag("theta", float, truong.THETA_DEFAULT, low=-RSSI_LIMIT_DBM, high=RSSI_LIMIT_DBM),
        Flag("bits", int, 16, low=1),
        Flag("source", default="noise", choices=("noise", "luminosity")),
        Flag("delta-rel", float, 0.1), Flag("delta-abs", float, 10.0),
        Flag("measurement-window-s", float, 1.0, low=0.001, high=MAX_T))),
    "fingerprint-randomness": (_cmd_fingerprint_randomness, "random-walk and bit statistics", (
        Flag("features", Path, required=True), Flag("out", Path, required=True),
        Flag("sub-len", int, 0, low=0, help="also analyze sub-fingerprints of this length"))),
    "evaluate": (_cmd_evaluate, "EER / FAR-FRR evaluation of features or scores", (
        Flag("scheme", choices=EVALUATED, required=True), Flag("features", Path),
        Flag("scores", Path, help="prediction CSV for ML schemes"),
        Flag("dataset", Path, help="dataset dir for ground-truth labels"),
        Flag("out", Path, required=True), Flag("scenario", _utf8_text, "scenario"),
        Flag("far-targets", _far_targets, "0.001,0.005,0.01,0.05"),
        Flag("surprisal-threshold", float))),
    "robustness": (_cmd_robustness, "apply scenario A thresholds to scenario B scores", (
        Flag("results", Path, required=True, help="results.csv of scenario A"),
        Flag("scheme", choices=EVALUATED, required=True), Flag("features", Path),
        Flag("scores", Path), Flag("dataset", Path), Flag("out", Path, required=True),
        Flag("surprisal-threshold", float))),
    "ml": (None, "train or apply a colocation classifier", ()),
    "ml train": (_cmd_ml_train, "train a model with a cross-validated search", (
        Flag("features", Path, required=True), Flag("scheme", choices=ML_SCHEMES, required=True),
        Flag("kind", default="auto", choices=("auto", "forest", "boosting")),
        Flag("grid", default="full", choices=("full", "small")),
        Flag("seed", int, ensemble.DEFAULT_SEED, low=0),
        Flag("early-stop", int, ensemble.DEFAULT_EARLY_STOP_ROUNDS, low=0),
        Flag("folds", int, 10, low=2, unit="folds"), Flag("out", Path, required=True),
        Flag("predictions", Path), Flag("metrics", Path))),
    "ml predict": (_cmd_ml_predict, "score a feature table with a trained model", (
        Flag("model", Path, required=True), Flag("features", Path, required=True),
        Flag("scheme", choices=ML_SCHEMES, required=True), Flag("out", Path, required=True))),
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, registry = build_parser()
    try:
        _apply_config(argv, registry)
        args = parser.parse_args(argv)
        return args.handler(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ZisError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

"""Command-line entry point: datagen, align, features, evaluate, ml, robustness.

Exit codes: 0 success, 1 usage error, 2 data error. An optional JSON config
file supplies flag defaults; explicit flags win.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from ziskit import datagen, dsp, evaluation, pipeline, randomness
from ziskit.core.io import load_dataset
from ziskit.core.types import EvaluationRecord, GroundTruth
from ziskit.core.windowing import filter_subscenario
from ziskit.errors import DegenerateLabels, ParseError, ZisError
from ziskit.ml import ensemble
from ziskit.schemes import karapanos, miettinen, shrestha, truong
from ziskit.table import Column, flag, read_table, real, write_table

SCHEMES = ("karapanos", "schurmann", "miettinen", "truong", "shrestha")

RESULTS_COLUMNS = (Column("scheme"), Column("scenario"), Column("subscenario"),
                   Column("t", int), real("eer"), flag("starred"), real("threshold"),
                   real("availability"))
CURVE_COLUMNS = (real("far_target"), real("frr"))
ROBUSTNESS_COLUMNS = (Column("scheme"), Column("subscenario"), Column("t", int),
                      real("threshold"), real("far"), real("frr"), real("delta_far"),
                      real("delta_frr"))
METRICS_COLUMNS = (Column("model_id"), real("auc"), real("eer"), real("accuracy"))

DEFAULT_FAR_TARGETS = "0.001,0.005,0.01,0.05"


class _UsageError(Exception):
    pass


def _int_list(value: str) -> list[int]:
    return [int(v) for v in value.split(",") if v]


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


def _at_least(kind: type, low: float, what: str = ""):
    """argparse type: a finite `kind` number no smaller than `low`."""
    need = f"at least {low} {what}".rstrip() if low > -math.inf else "a finite number"

    def parse(value: str):
        number = kind(value)
        if not (math.isfinite(number) and low <= number):
            raise argparse.ArgumentTypeError(f"need {need}, got {value}")
        return number

    parse.__name__ = kind.__name__  # argparse names the type in "invalid int value"
    return parse


_fold_count = _at_least(int, 2, "folds")
_positive_int = _at_least(int, 1)
_non_negative_int = _at_least(int, 0)
_finite = _at_least(float, -math.inf)
_non_negative = _at_least(float, 0)
# Flag types that also take JSON numbers from a config file.
NUMERIC_TYPES = (int, float, _fold_count, _positive_int, _non_negative_int, _finite,
                 _non_negative)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    parser = _Parser(prog="ziskit", description=__doc__)
    subs = parser.add_subparsers(dest="command")
    registry: dict[str, _Parser] = {}

    def sub(name: str, handler, group=subs, prefix: str = "", **kwargs) -> _Parser:
        sp = group.add_parser(name, **kwargs)
        sp.set_defaults(handler=handler)
        sp.add_argument("--config", type=Path, help="JSON file with flag defaults")
        registry[prefix + name] = sp
        return sp

    p = sub("datagen", _cmd_datagen, help="generate a synthetic scenario")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--duration-s", type=_positive_int, default=600)
    p.add_argument("--groups", type=_int_list, default="3,3",
                   help="comma-separated group sizes")
    p.add_argument("--leakage", type=float, default=0.1)
    p.add_argument("--event-rate", type=_non_negative, default=30.0)
    p.add_argument("--event-band", type=_event_band, default="300,3500")
    p.add_argument("--noise-floor-db", type=_finite, default=45.0)
    p.add_argument("--beacon-population", type=_non_negative_int, default=12)
    p.add_argument("--beacon-dropout", type=_finite, default=0.1)

    p = sub("align", _cmd_align, help="report pairwise audio lags")
    p.add_argument("--dataset", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--probe-s", type=_non_negative, default=60.0)
    p.add_argument("--maxlag-s", type=_non_negative, default=3.0)

    p = sub("features", _cmd_features, help="compute per-scheme context features")
    p.add_argument("--scheme", choices=SCHEMES, required=True)
    p.add_argument("--dataset", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--t", type=_positive_int, default=10)
    p.add_argument("--maxlag-s", type=_non_negative, default=1.0)
    p.add_argument("--power-db", type=_finite, default=karapanos.DEFAULT_POWER_DB)
    p.add_argument("--theta", type=_finite, default=truong.THETA_DEFAULT)
    p.add_argument("--bits", type=_positive_int, default=16)
    p.add_argument("--source", choices=("noise", "luminosity"), default="noise")
    p.add_argument("--delta-rel", type=_finite, default=0.1)
    p.add_argument("--delta-abs", type=_finite, default=10.0)
    p.add_argument("--measurement-window-s", type=float, default=1.0)
    p.add_argument("--with-surprisal", action="store_true",
                   help="fit a surprisal model on the corpus and emit the column")

    p = sub("fingerprint-randomness", _cmd_fingerprint_randomness,
            help="random-walk and bit statistics")
    p.add_argument("--features", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--sub-len", type=int, default=0,
                   help="also analyze contiguous sub-fingerprints of this length")

    p = sub("evaluate", _cmd_evaluate, help="EER / FAR-FRR evaluation of features or scores")
    p.add_argument("--scheme", choices=SCHEMES + ("scores",), required=True)
    p.add_argument("--features", type=Path)
    p.add_argument("--scores", type=Path, help="prediction CSV for ML schemes")
    p.add_argument("--dataset", type=Path, help="dataset dir for ground-truth labels")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--scenario", default="scenario")
    p.add_argument("--far-targets", type=_far_targets, default=DEFAULT_FAR_TARGETS)
    p.add_argument("--surprisal-threshold", type=_finite, default=None)

    p = sub("robustness", _cmd_robustness,
            help="apply scenario A thresholds to scenario B scores")
    p.add_argument("--results", type=Path, required=True, help="results.csv of scenario A")
    p.add_argument("--scheme", choices=SCHEMES + ("scores",), required=True)
    p.add_argument("--features", type=Path)
    p.add_argument("--scores", type=Path)
    p.add_argument("--dataset", type=Path)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--surprisal-threshold", type=_finite, default=None)

    p = sub("ml", None, help="train or apply a colocation classifier")
    ml_subs = p.add_subparsers()
    pt = sub("train", _cmd_ml_train, ml_subs, "ml ")
    pt.add_argument("--features", type=Path, required=True)
    pt.add_argument("--scheme", choices=("truong", "shrestha"), required=True)
    pt.add_argument("--kind", choices=("auto", "forest", "boosting"), default="auto")
    pt.add_argument("--grid", choices=("full", "small"), default="full")
    pt.add_argument("--seed", type=_non_negative_int, default=ensemble.DEFAULT_SEED)
    pt.add_argument("--early-stop", type=int, default=ensemble.DEFAULT_EARLY_STOP_ROUNDS)
    pt.add_argument("--folds", type=_fold_count, default=10)
    pt.add_argument("--out", type=Path, required=True)
    pt.add_argument("--predictions", type=Path)
    pt.add_argument("--metrics", type=Path)
    pp = sub("predict", _cmd_ml_predict, ml_subs, "ml ")
    pp.add_argument("--model", type=Path, required=True)
    pp.add_argument("--features", type=Path, required=True)
    pp.add_argument("--scheme", choices=("truong", "shrestha"), required=True)
    pp.add_argument("--out", type=Path, required=True)

    return parser, registry


def _apply_config(argv: list[str], registry: dict[str, _Parser]) -> None:
    """Config file values become flag defaults; explicit flags still win."""
    if "--config" not in argv:
        return
    index = argv.index("--config") + 1
    if index == len(argv):
        raise _UsageError("argument --config: expected one argument")
    path = Path(argv[index])
    try:
        defaults = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # bad JSON or undecodable bytes
        raise ParseError(f"bad config file: {exc}", path=str(path)) from exc
    if not isinstance(defaults, dict):
        raise ParseError("config file must hold a JSON object", path=str(path))
    parser = registry.get(" ".join(argv[:2])) or registry.get(argv[0])
    if parser is None:
        return
    flags = {action.dest: action for action in parser._actions if action.option_strings}
    for key, value in defaults.items():
        action = flags.get(key.replace("-", "_"))
        switch = action is not None and action.nargs == 0
        # Values parse like flag strings; numeric flags also take JSON numbers.
        if action is None or isinstance(value, bool) != switch or not (
                switch or isinstance(value, str) or action.type in NUMERIC_TYPES):
            raise _UsageError(f"config {key}={value!r} is not a value for {parser.prog}")
        try:
            action.default = value if switch else parser._get_values(action, [str(value)])
        except argparse.ArgumentError as exc:
            raise _UsageError(f"config {key}: {exc}") from exc
        # a config-supplied value satisfies required flags
        action.required = False


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_datagen(args) -> int:
    # The upper bound is checked here: each type in NUMERIC_TYPES takes every
    # number above its lower bound.
    if not 0 <= args.beacon_dropout <= 1:
        raise _UsageError(f"argument --beacon-dropout: need a number in [0, 1], "
                          f"got {args.beacon_dropout}")
    profile = datagen.AmbientProfile(
        event_rate_per_min=args.event_rate,
        event_band_hz=args.event_band,
        noise_floor_db=args.noise_floor_db,
        beacon_population=args.beacon_population,
        beacon_dropout=args.beacon_dropout,
        leakage=args.leakage,
    )
    cfg = datagen.ScenarioConfig(
        seed=args.seed, duration_s=args.duration_s,
        groups=tuple(datagen.GroupSpec(size, profile) for size in args.groups))
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
        surprisals = None
        if args.with_surprisal and fingerprints:
            model = miettinen.SurprisalModel.fit(fingerprints)
            surprisals = [miettinen.surprisal(fp, model) for fp in fingerprints]
        pipeline.write_fingerprint_csv(args.out, fingerprints,
                                       args.bits * args.t, surprisals=surprisals)
    elif args.scheme == "truong":
        rows = pipeline.truong_rows(dataset, args.t, theta=args.theta)
        pipeline.write_truong_csv(args.out, rows)
    else:
        rows = shrestha.compress_instances(shrestha.build_dataset(dataset))
        pipeline.write_shrestha_csv(args.out, rows)
    print(f"wrote {args.scheme} features to {args.out}")
    return 0


def _cmd_fingerprint_randomness(args) -> int:
    fingerprints, _, _ = pipeline.read_fingerprint_csv(args.features)
    if not fingerprints:
        raise ZisError("no records in fingerprint file")
    walk = randomness.random_walk(fingerprints)
    markov = randomness.markov_stats(fingerprints)
    report = {"random_walk": walk.to_dict(), "markov": markov.to_dict()}
    if args.sub_len:
        chunks_by_pos: dict[int, list] = {}
        for fp in fingerprints:
            for pos, chunk in enumerate(randomness.split_subfingerprints(fp, args.sub_len)):
                chunks_by_pos.setdefault(pos, []).append(chunk)
        report["subfingerprints"] = [
            {"position": pos, **randomness.random_walk(chunks).to_dict()}
            for pos, chunks in sorted(chunks_by_pos.items())
        ]
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
    print(f"wrote randomness report to {args.out}")
    return 0


def _load_records(args, ground_truth: GroundTruth | None) -> list[EvaluationRecord]:
    """The scheme's records; feature files are labelled with `ground_truth`."""
    if args.scheme in ("truong", "shrestha", "scores"):
        if not args.scores:
            raise _UsageError(f"--scores is required for scheme {args.scheme}")
        records = pipeline.read_prediction_csv(args.scores)
    elif not args.features or ground_truth is None:
        raise _UsageError("--features and --dataset are required for this scheme")
    elif args.scheme == "karapanos":
        records = pipeline.read_score_csv(args.features, ground_truth)
    else:
        fingerprints, surprisals, spans = pipeline.read_fingerprint_csv(args.features)
        records = pipeline.fingerprint_records(
            fingerprints, spans, ground_truth,
            surprisals=surprisals, surprisal_threshold=args.surprisal_threshold)
    if not records:
        raise ZisError("no records to evaluate")
    return records


def _cmd_evaluate(args) -> int:
    ground_truth = load_dataset(args.dataset).ground_truth if args.dataset else None
    records = _load_records(args, ground_truth)
    sub_names = [s.name for s in ground_truth.subscenarios] if ground_truth else []
    out_rows = []
    t_values = sorted({r.interval_len_s for r in records})
    for t in t_values:
        at_t = [r for r in records if r.interval_len_s == t]
        for sub in [None] + sub_names:
            subset = at_t if sub is None else filter_subscenario(at_t, ground_truth, sub)
            scores, labels = evaluation.usable_scores(subset)
            avail = evaluation.availability(subset)
            try:
                rates = evaluation.equal_error_rate(scores, labels)
            except (DegenerateLabels, ValueError):
                continue
            sub_name = sub or "full"
            out_rows.append((args.scheme, args.scenario, sub_name, t, rates.eer,
                             rates.starred, rates.threshold, avail))
            curve = evaluation.frr_at_far(scores, labels, far_targets=args.far_targets)
            write_table(args.out / "curves" / f"{args.scheme}_{sub_name}_t{t}.csv",
                        CURVE_COLUMNS, curve)
    if not out_rows:
        raise ZisError("no records with both classes present")
    write_table(args.out / "results.csv", RESULTS_COLUMNS, out_rows)
    print(f"wrote {len(out_rows)} result rows to {args.out / 'results.csv'}")
    return 0


def _cmd_robustness(args) -> int:
    records = _load_records(args, load_dataset(args.dataset).ground_truth
                            if args.dataset else None)
    out_rows = []
    results = read_table(args.results, RESULTS_COLUMNS)
    for scheme, _, subscenario, t, _, _, threshold, _ in results:
        at_t = [r for r in records if r.interval_len_s == t]
        scores, labels = evaluation.usable_scores(at_t)
        if scores.size == 0:
            continue
        try:
            result = evaluation.cross_apply(threshold, evaluation.ACCEPT_IF_GEQ,
                                            scores, labels)
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


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, registry = build_parser()
    try:
        _apply_config(argv, registry)
        args = parser.parse_args(argv)
        if not args.command:
            parser.print_usage(sys.stderr)
            return 1
        if args.handler is None:
            raise _UsageError("ml requires a subcommand: train or predict")
        return args.handler(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ZisError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

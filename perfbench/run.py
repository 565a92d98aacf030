"""Benchmark of the ziskit CLI: end-to-end and per-layer metrics per workload.

    python3 perfbench/run.py --workload acoustic_e2e --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; ziskit is imported from ``src/``.
Each workload is a fixed sequence of CLI commands over a scenario that
``datagen`` generates from ``--seed``. The loop is closed: this process
starts one command at a time as its own child process and waits for it.
Whole sequences repeat until ``--seconds`` would be exceeded (at least
one runs), and each timing is the median over the sequences.

``--trace 0`` reports the end-to-end metrics: wall_s and cpu_s of one
sequence, the largest peak_rss_mb of any command in it, and setup_s, the
median of SETUP_REPEATS scenario generations (plus generated input files).
``--trace 1`` runs untraced and traced sequences in pairs; the traced
commands run under perfbench/spans.py, which wraps ziskit's public
functions from outside. It reports the per-layer metrics, including the
tracing overhead (traced minus untraced sequence wall time).

Outputs are checked after every sequence; a command that exits non-zero
or whose output fails a check counts as failed. The last line of standard
output is the JSON result; the metric names and units are those listed in
BENCHMARK.json. Scratch files go under .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

sys.path.insert(0, str(Path(__file__).resolve().parent))
import spans as sp  # noqa: E402

ROOT = Path.cwd()
SPANS_PY = Path(__file__).resolve().parent / "spans.py"
WORK = ROOT / ".perfbench"

# The program's numerics depend on the BLAS thread count (Truong's
# audio_tf_distance differs in the last bits between 1 and 2 threads), so
# output digests are only comparable under one pinned setting.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
MAX_ZIS_THREADS = 2
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
DEADLINE_S = 170.0


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    groups: tuple[int, ...]
    duration_s: int
    t: int = 10
    n_scores: int = 0          # rows of the generated prediction file, 0 = none
    ml_rows: int = 0           # rows of the generated Shrestha table, 0 = none
    miettinen_bits: int = 4

    @property
    def devices(self) -> list[str]:
        return [f"g{g}d{i}" for g, size in enumerate(self.groups) for i in range(size)]

    @property
    def intervals(self) -> int:
        return self.duration_s // self.t

    @property
    def pair_intervals(self) -> int:
        n = len(self.devices)
        return n * (n - 1) // 2 * self.intervals

    @property
    def device_intervals(self) -> int:
        return len(self.devices) * self.intervals

    @property
    def miettinen_fingerprints(self) -> int:
        # Noise levels are 1 s means; a tile of `bits` snapshots of t seconds
        # needs the series span (last - first timestamp + 1 ms) to exceed it.
        span_ms = (self.duration_s - 1) * 1000 + 1
        tile_ms = self.miettinen_bits * self.t * 1000
        return len(self.devices) * sum(1 for k in range(1, self.duration_s)
                                       if k * tile_ms < span_ms)

    @property
    def sensor_rows(self) -> int:
        # One Shrestha row per pair per sensor reading (every 500 ms).
        n = len(self.devices)
        return n * (n - 1) // 2 * self.duration_s * 2


WORKLOADS = {
    w.name: w for w in (
        Workload("acoustic_e2e", groups=(3, 3), duration_s=40, miettinen_bits=3),
        Workload("crowded_room", groups=(8, 8), duration_s=20),
        Workload("sensor_ml", groups=(3, 3), duration_s=30, n_scores=12_000, ml_rows=100),
    )
}


@dataclass(frozen=True)
class Command:
    key: str                           # metric-name form, e.g. features_karapanos
    argv: list[str]
    check: Callable[[], list[str]]


@dataclass(frozen=True)
class Layout:
    scen: Path
    out: Path
    scores: Path                       # generated prediction file
    table: Path                        # generated Shrestha feature table


def commands(w: Workload, lay: Layout) -> list[Command]:
    """The workload's CLI sequence with the check of each command's output."""
    s, o = str(lay.scen), lay.out
    t = str(w.t)

    def features(scheme: str, out: str, *extra: str) -> list[str]:
        return ["features", "--scheme", scheme, "--dataset", s, "--out", str(o / out),
                "--t", t, *extra]

    def evaluate(scheme: str, src_flag: str, src: str, out: str, *extra: str) -> list[str]:
        return ["evaluate", "--scheme", scheme, src_flag, str(o / src), *extra,
                "--out", str(o / out)]

    if w.name == "acoustic_e2e":
        return [
            Command("features_karapanos", features("karapanos", "kara.csv"),
                    lambda: check_score_csv(o / "kara.csv", w)),
            Command("features_schurmann", features("schurmann", "schur.csv"),
                    lambda: check_fingerprint_csv(o / "schur.csv", w, w.device_intervals, 496)),
            Command("features_truong", features("truong", "truong.csv"),
                    lambda: check_truong_csv(o / "truong.csv", w)),
            Command("features_miettinen",
                    features("miettinen", "miet.csv", "--bits", str(w.miettinen_bits)),
                    lambda: check_fingerprint_csv(o / "miet.csv", w, w.miettinen_fingerprints,
                                                  w.miettinen_bits)),
            Command("ml_train_truong",
                    ["ml", "train", "--features", str(o / "truong.csv"), "--scheme", "truong",
                     "--grid", "small", "--folds", "10", "--out", str(o / "truong_model.json"),
                     "--predictions", str(o / "truong_pred.csv"),
                     "--metrics", str(o / "truong_metrics.csv")],
                    lambda: check_model(o / "truong_model.json")
                    + check_prediction_csv(o / "truong_pred.csv", w.pair_intervals, w)),
            Command("evaluate_karapanos",
                    evaluate("karapanos", "--features", "kara.csv", "eval_kara",
                             "--dataset", s),
                    lambda: check_results(o / "eval_kara" / "results.csv", max_eer=0.05)),
            Command("evaluate_schurmann",
                    evaluate("schurmann", "--features", "schur.csv", "eval_schur",
                             "--dataset", s),
                    lambda: check_results(o / "eval_schur" / "results.csv", max_eer=0.05)),
            Command("evaluate_truong",
                    evaluate("truong", "--scores", "truong_pred.csv", "eval_truong",
                             "--dataset", s),
                    lambda: check_results(o / "eval_truong" / "results.csv", max_eer=0.05)),
            Command("fingerprint_randomness",
                    ["fingerprint-randomness", "--features", str(o / "schur.csv"),
                     "--out", str(o / "randomness.json"), "--sub-len", "31"],
                    lambda: check_randomness(o / "randomness.json", w.device_intervals,
                                             496 // 31)),
        ]
    if w.name == "crowded_room":
        return [
            Command("features_karapanos", features("karapanos", "kara.csv"),
                    lambda: check_score_csv(o / "kara.csv", w)),
            Command("features_truong", features("truong", "truong.csv"),
                    lambda: check_truong_csv(o / "truong.csv", w)),
            Command("evaluate_karapanos",
                    evaluate("karapanos", "--features", "kara.csv", "eval_kara",
                             "--dataset", s),
                    lambda: check_results(o / "eval_kara" / "results.csv")),
        ]
    if w.name == "sensor_ml":
        # The scenario's own Shrestha rows are nearly separable per pair, so
        # tree sizes, and training time, vary 3x between seeds; the model is
        # trained on a generated table of fixed size and class overlap.
        table = str(lay.table)
        return [
            Command("features_shrestha",
                    ["features", "--scheme", "shrestha", "--dataset", s,
                     "--out", str(o / "shr.csv")],
                    lambda: check_shrestha_csv(o / "shr.csv", w)),
            Command("ml_train_shrestha",
                    ["ml", "train", "--features", table, "--scheme", "shrestha",
                     "--grid", "small", "--folds", "10", "--out", str(o / "shr_model.json"),
                     "--predictions", str(o / "shr_oof.csv")],
                    lambda: check_model(o / "shr_model.json")
                    + check_prediction_csv(o / "shr_oof.csv", w.ml_rows, w)),
            Command("ml_predict_shrestha",
                    ["ml", "predict", "--model", str(o / "shr_model.json"),
                     "--features", table, "--scheme", "shrestha",
                     "--out", str(o / "shr_pred.csv")],
                    lambda: check_prediction_csv(o / "shr_pred.csv", w.ml_rows, w)),
            Command("evaluate_shrestha",
                    evaluate("shrestha", "--scores", "shr_oof.csv", "eval_shr",
                             "--dataset", s),
                    lambda: check_results(o / "eval_shr" / "results.csv")),
            Command("robustness_shrestha",
                    ["robustness", "--results", str(o / "eval_shr" / "results.csv"),
                     "--scheme", "shrestha", "--scores", str(o / "shr_oof.csv"),
                     "--out", str(o / "robustness_shr.csv")],
                    lambda: check_robustness(o / "robustness_shr.csv")),
            Command("evaluate_scores",
                    ["evaluate", "--scheme", "scores", "--scores", str(lay.scores),
                     "--out", str(o / "eval_scores")],
                    lambda: check_results(o / "eval_scores" / "results.csv")
                    + check_sweep(o / "eval_scores" / "results.csv", lay.scores)),
            Command("robustness_scores",
                    ["robustness", "--results", str(o / "eval_scores" / "results.csv"),
                     "--scheme", "scores", "--scores", str(lay.scores),
                     "--out", str(o / "robustness_scores.csv")],
                    lambda: check_robustness(o / "robustness_scores.csv")),
        ]
    raise KeyError(w.name)


# Every command key of every workload, in a fixed order for the cli.* metrics.
COMMAND_KEYS = tuple(dict.fromkeys(
    c.key for w in WORKLOADS.values()
    for c in commands(w, Layout(Path("s"), Path("o"), Path("p"), Path("f")))))


END_TO_END = ("wall_s", "cpu_s", "peak_rss_mb", "setup_s")
# Per-layer metrics of a traced run that do not come from spans.
TRACE_RUN_METRICS = ("cli.import_s", "trace.wall_s", "trace.overhead_s",
                     *(f"cli.{key}.{m}" for key in COMMAND_KEYS
                       for m in ("wall_s", "peak_rss_mb")))


def datagen_argv(w: Workload, seed: int, out: Path) -> list[str]:
    return ["datagen", "--out", str(out), "--seed", str(seed),
            "--duration-s", str(w.duration_s),
            "--groups", ",".join(str(g) for g in w.groups), "--leakage", "0.1"]


# ---------------------------------------------------------------------------
# Generated inputs
# ---------------------------------------------------------------------------

PREDICTION_HEADER = ["pair_id", "interval_start_ms", "t", "score", "label"]


def write_scores(path: Path, seed: int, n: int) -> None:
    """Prediction-format CSV of n distinct continuous scores in (0, 1).

    About a third of the rows are colocated. Scores are logistic
    transforms of class-shifted normals, so the classes overlap and the
    EER is neither 0 nor 0.5. The same seed gives the same bytes.
    """
    import numpy as np

    rng = np.random.Generator(np.random.PCG64(seed))
    labels = rng.random(n) < 1.0 / 3.0
    labels[:2] = (True, False)                 # both classes, whatever the seed
    z = rng.normal(np.where(labels, 1.5, -1.5), 1.0)
    scores = 1.0 / (1.0 + np.exp(-z))
    if np.unique(scores).size != n:
        raise ValueError("generated scores are not distinct")
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(PREDICTION_HEADER)
        for i, (score, colocated) in enumerate(zip(scores.tolist(), labels.tolist())):
            writer.writerow([f"s{i:05d}a|s{i:05d}b", 1_600_000_000_000 + 10_000 * i, 10,
                             repr(score), "colocated" if colocated else "non_colocated"])


SHRESTHA_HEADER = ["pair_id", "timestamp_ms", "d_temp", "d_hum", "d_alt", "label", "weight"]


def write_shrestha_table(path: Path, w: Workload, seed: int) -> None:
    """Shrestha feature table of w.ml_rows weighted rows over w's device pairs.

    Each difference is |N(0, 1)| for colocated pairs and |N(1, 1)| otherwise,
    scaled per sensor and rounded like compressed instances. The classes
    overlap, so trees grow until their rows run out, whatever the seed.
    """
    import numpy as np

    rng = np.random.Generator(np.random.PCG64([seed, 1]))
    pairs = [(a, b) for i, a in enumerate(w.devices) for b in w.devices[i + 1:]]
    scale = np.array([0.5, 1.2, 2.0])
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(SHRESTHA_HEADER)
        for k in range(w.ml_rows):
            a, b = pairs[k % len(pairs)]
            label = _label_of(w, f"{a}|{b}")
            diffs = np.abs(rng.normal(0.0 if label == "colocated" else 1.0, 1.0, 3)) * scale
            ts = 1_600_000_000_000 + 500 * (k * w.duration_s * 2 // w.ml_rows)
            writer.writerow([f"{a}|{b}", ts, *(repr(round(float(d), 4)) for d in diffs),
                             label, int(rng.integers(1, 4))])


# ---------------------------------------------------------------------------
# Output checks: each returns a list of problems, empty when the output holds
# ---------------------------------------------------------------------------

def _read_csv(path: Path, header: list[str] | None = None
              ) -> tuple[list[dict], list[str]]:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
            fields = reader.fieldnames or []
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        return [], [f"{path.name}: unreadable ({exc})"]
    if header is not None and fields[:len(header)] != header:
        return [], [f"{path.name}: header {fields} is not {header}"]
    if any(None in row or None in row.values() for row in rows):
        return [], [f"{path.name}: ragged rows"]
    return rows, []


def _unit_float(text: str) -> float | None:
    """The value when it parses as a finite float in [0, 1], else None."""
    try:
        value = float(text)
    except ValueError:
        return None
    return value if math.isfinite(value) and 0.0 <= value <= 1.0 else None


def _label_of(w: Workload, pair_id: str) -> str | None:
    """Ground-truth label of a scenario pair: groups are static in datagen."""
    parts = pair_id.split("|")
    if len(parts) != 2 or parts[0] >= parts[1] or not set(parts) <= set(w.devices):
        return None
    same = parts[0].split("d")[0] == parts[1].split("d")[0]
    return "colocated" if same else "non_colocated"


def _pair_interval_problems(name: str, rows: list[dict], w: Workload) -> list[str]:
    problems = []
    if len(rows) != w.pair_intervals:
        problems.append(f"{name}: {len(rows)} rows, expected {w.pair_intervals} pair-intervals")
    keys = {(r["pair_id"], r["interval_start_ms"]) for r in rows}
    if len(keys) != len(rows):
        problems.append(f"{name}: duplicate pair-intervals")
    if any(_label_of(w, r["pair_id"]) is None for r in rows):
        problems.append(f"{name}: unknown pair ids")
    if any(r["t"] != str(w.t) for r in rows):
        problems.append(f"{name}: wrong interval length")
    return problems


def check_score_csv(path: Path, w: Workload) -> list[str]:
    rows, problems = _read_csv(path, ["pair_id", "interval_start_ms", "t", "score", "gated"])
    if problems:
        return problems
    problems += _pair_interval_problems(path.name, rows, w)
    for r in rows:
        gated = r["gated"] == "1"
        if r["gated"] not in ("0", "1") or (r["score"] == "") != gated or \
                (not gated and _unit_float(r["score"]) is None):
            problems.append(f"{path.name}: bad score row {r}")
            break
    return problems


def check_fingerprint_csv(path: Path, w: Workload, expected: int, bits: int) -> list[str]:
    rows, problems = _read_csv(path, ["device_id", "interval_start_ms", "t", "hex_bits"])
    if problems:
        return problems
    if len(rows) != expected:
        problems.append(f"{path.name}: {len(rows)} fingerprints, expected {expected}")
    width = -(-bits // 8) * 2            # whole bytes, MSB first
    for r in rows:
        try:
            int(r["hex_bits"], 16)
        except ValueError:
            problems.append(f"{path.name}: bad hex {r['hex_bits']!r}")
            break
        if len(r["hex_bits"]) != width or r["device_id"] not in w.devices:
            problems.append(f"{path.name}: bad fingerprint row {r}")
            break
    return problems


def check_truong_csv(path: Path, w: Workload) -> list[str]:
    rows, problems = _read_csv(path, ["pair_id", "interval_start_ms", "t"])
    if problems:
        return problems
    problems += _pair_interval_problems(path.name, rows, w)
    for r in rows:
        if r.get("label") != _label_of(w, r["pair_id"]) or (
                r.get("audio_max_xcorr", "") != ""
                and _unit_float(r["audio_max_xcorr"]) is None):
            problems.append(f"{path.name}: bad feature row {r}")
            break
    return problems


def check_shrestha_csv(path: Path, w: Workload) -> list[str]:
    """Rows are compressed readings: their weights sum to the readings."""
    rows, problems = _read_csv(path, SHRESTHA_HEADER)
    if problems:
        return problems
    try:
        total = sum(int(r["weight"]) for r in rows)
    except ValueError:
        return [f"{path.name}: bad weight"]
    if total != w.sensor_rows:
        problems.append(f"{path.name}: weights sum to {total}, expected {w.sensor_rows}")
    if any(r["label"] != _label_of(w, r["pair_id"]) for r in rows):
        problems.append(f"{path.name}: wrong labels")
    return problems


def check_prediction_csv(path: Path, expected: int, w: Workload) -> list[str]:
    rows, problems = _read_csv(path, PREDICTION_HEADER)
    if problems:
        return problems
    if len(rows) != expected:
        problems.append(f"{path.name}: {len(rows)} predictions, expected {expected}")
    for r in rows:
        if _unit_float(r["score"]) is None or r["label"] != _label_of(w, r["pair_id"]):
            problems.append(f"{path.name}: bad prediction row {r}")
            break
    return problems


def check_model(path: Path) -> list[str]:
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"{path.name}: unreadable ({exc})"]
    if doc.get("kind") not in ("forest", "boosting") or not doc.get("trees"):
        return [f"{path.name}: not a trained model"]
    return []


def _full_row(path: Path, header: list[str]) -> tuple[dict | None, list[str]]:
    rows, problems = _read_csv(path, header)
    if problems:
        return None, problems
    full = [r for r in rows if r["subscenario"] == "full"]
    if len(full) != 1:
        return None, [f"{path.name}: {len(full)} full-timeline rows"]
    return full[0], []


RESULTS_HEADER = ["scheme", "scenario", "subscenario", "t", "eer", "starred",
                  "threshold", "availability"]


def check_results(path: Path, max_eer: float | None = None) -> list[str]:
    row, problems = _full_row(path, RESULTS_HEADER)
    if problems:
        return problems
    eer = _unit_float(row["eer"])
    if eer is None or _unit_float(row["availability"]) is None:
        return [f"{path.name}: bad results row {row}"]
    if max_eer is not None and eer > max_eer:
        return [f"{path.name}: full-timeline EER {eer} exceeds {max_eer}"]
    return []


def check_robustness(path: Path) -> list[str]:
    """Self-application reproduces the stored full-timeline EER point."""
    row, problems = _full_row(path, ["scheme", "subscenario", "t", "threshold", "far",
                                     "frr", "delta_far", "delta_frr"])
    if problems:
        return problems
    if float(row["delta_far"]) != 0.0 or float(row["delta_frr"]) != 0.0:
        return [f"{path.name}: self-application deltas {row}"]
    return []


def reference_eer(scores: list[float], colocated: list[bool]) -> tuple[float, float]:
    """(eer, threshold) by one sort and a cumulative count sweep.

    Same operating point as ziskit's exhaustive search: thresholds are the
    midpoints of distinct scores plus +-inf, a score is accepted when >= the
    threshold, and ties of |FAR - FRR| prefer lower FAR, then lower FRR.
    """
    order = sorted(range(len(scores)), key=scores.__getitem__)
    n_pos = sum(colocated)
    n_neg = len(scores) - n_pos
    values = [scores[i] for i in order]
    # Everything accepted at -inf: FAR = 1, FRR = 0.
    neg_acc, pos_rej = n_neg, 0
    best = ((1.0, 1.0, 0.0), -math.inf)
    i = 0
    while i < len(values):
        j = i
        while j < len(values) and values[j] == values[i]:
            if colocated[order[j]]:
                pos_rej += 1
            else:
                neg_acc -= 1
            j += 1
        threshold = (values[i] + values[j]) / 2.0 if j < len(values) else math.inf
        far, frr = neg_acc / n_neg, pos_rej / n_pos
        key = (abs(far - frr), far, frr)
        if key < best[0]:
            best = (key, threshold)
        i = j
    (_, far, frr), threshold = best
    return (far + frr) / 2.0, threshold


def check_sweep(results: Path, scores_csv: Path) -> list[str]:
    """The full-timeline EER and threshold equal an independent sweep's."""
    row, problems = _full_row(results, RESULTS_HEADER)
    rows, more = _read_csv(scores_csv, PREDICTION_HEADER)
    if problems or more:
        return problems + more
    eer, threshold = reference_eer([float(r["score"]) for r in rows],
                                   [r["label"] == "colocated" for r in rows])
    if float(row["eer"]) != eer or float(row["threshold"]) != threshold:
        return [f"{results.name}: EER {row['eer']} at {row['threshold']}, "
                f"reference {eer!r} at {threshold!r}"]
    return []


def check_randomness(path: Path, n_fingerprints: int, positions: int) -> list[str]:
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
        n = doc["random_walk"]["n_fingerprints"]
        subs = doc["subfingerprints"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"{path.name}: unreadable ({exc})"]
    if n != n_fingerprints or len(subs) != positions:
        return [f"{path.name}: {n} fingerprints / {len(subs)} positions, "
                f"expected {n_fingerprints} / {positions}"]
    return []


# ---------------------------------------------------------------------------
# Running commands
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    key: str
    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.returncode != 0 or bool(self.problems)


class Runner:
    """Starts one child process at a time and reads its own resource usage."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env.update(PINNED_ENV)
        self.env["ZIS_THREADS"] = str(min(MAX_ZIS_THREADS, os.cpu_count() or 1))
        paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        self.env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
        self.attempted = 0
        self.failed = 0

    def python(self, key: str, args: list[str], log: Path) -> Outcome:
        """Run `python3 <args>`; wall, CPU and peak RSS are this child's alone."""
        limit = self.deadline - time.monotonic()
        log.parent.mkdir(parents=True, exist_ok=True)
        with open(log, "wb") as fh:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], stdout=fh,
                                    stderr=subprocess.STDOUT, env=self.env, cwd=ROOT)
            killer = threading.Timer(max(limit, 0.0), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Outcome(key, proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                       usage.ru_maxrss / 1024.0)

    def settle(self, outcome: Outcome, check: Callable[[], list[str]] | None) -> None:
        """Check a finished command's output and count it as attempted/failed."""
        if outcome.returncode != 0:
            outcome.problems.append(f"{outcome.key}: exit code {outcome.returncode}")
        elif check is not None:
            outcome.problems.extend(check())
        self.attempted += 1
        self.failed += outcome.failed
        for problem in outcome.problems:
            print(f"FAILED {problem}", file=sys.stderr)


def cli_args(argv: list[str], spans_out: Path | None = None, run_id: str = "") -> list[str]:
    """Interpreter arguments of one CLI command, traced when `spans_out` is set."""
    if spans_out is None:
        return ["-m", "ziskit.cli", *argv]
    return [str(SPANS_PY), str(spans_out), run_id, "--", *argv]


def digest_tree(path: Path) -> dict[str, str]:
    """SHA-256 of every file under `path`, keyed by relative path."""
    out = {}
    for file in sorted(p for p in path.rglob("*") if p.is_file()):
        out[file.relative_to(path).as_posix()] = hashlib.sha256(file.read_bytes()).hexdigest()
    return out


@dataclass
class Sequence:
    outcomes: list[Outcome]
    digests: dict[str, str]
    spans: list[dict] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(o.wall_s for o in self.outcomes)

    @property
    def cpu_s(self) -> float:
        return sum(o.cpu_s for o in self.outcomes)

    @property
    def peak_rss_mb(self) -> float:
        return max(o.peak_rss_mb for o in self.outcomes)


def run_sequence(runner: Runner, w: Workload, lay: Layout, tag: str,
                 traced: bool = False) -> Sequence:
    """All commands of the workload, in order; outputs are checked afterwards."""
    shutil.rmtree(lay.out, ignore_errors=True)
    lay.out.mkdir(parents=True)
    logs = lay.out.parent / f"{lay.out.name}_logs"
    outcomes, span_files = [], []
    cmds = commands(w, lay)
    for i, cmd in enumerate(cmds):
        spans_out = logs / f"{i:02d}_{cmd.key}.spans.jsonl" if traced else None
        outcomes.append(runner.python(cmd.key, cli_args(cmd.argv, spans_out, f"{tag}:{i}"),
                                      logs / f"{i:02d}_{cmd.key}.log"))
        if spans_out is not None:
            span_files.append(spans_out)
    # Checks run after the timed sequence so they do not add to its wall time.
    for cmd, outcome in zip(cmds, outcomes):
        runner.settle(outcome, cmd.check)
    spans = [s for f in span_files if f.exists() for s in sp.read_spans(f)]
    return Sequence(outcomes, digest_tree(lay.out), spans)


# ---------------------------------------------------------------------------
# Per-layer metrics from spans
# ---------------------------------------------------------------------------

GRID_POINTS = 2   # points of ziskit's small grid, which every workload trains on
# Counts besides the *.calls ones; they must repeat exactly between sequences.
COUNT_METRICS = ("core.pair_intervals", "pipeline.rows_written", "pipeline.rows_read",
                 "ml.tree_nodes", "evaluation.n_scores", "evaluation.n_thresholds",
                 "trace.spans")


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer figures of one traced sequence (times in s, per-call in ms)."""
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def busy(name: str) -> float:
        return sp.busy_ns(spans, name) / 1e9

    def calls(name: str) -> int:
        return len(by_name.get(name, []))

    def total(name: str, key: str) -> int:
        return sum(s.get(key, 0) for s in by_name.get(name, []))

    m: dict[str, float] = {}
    timed = ("core.load_dataset", "core.window_pairs", "dsp.bandpass_bank",
             "dsp.max_xcorr_norm_two_sided", "dsp.fft_mag_hamming",
             "karapanos.band_decompose", "karapanos.similarity_banded",
             "schurmann.audio_fingerprint", "miettinen.iter_fingerprints",
             "truong.audio_features", "truong.beacon_features",
             "shrestha.build_dataset", "shrestha.compress_instances",
             "pipeline.write", "pipeline.read", "pipeline.fingerprint_records",
             "ml.train", "ml.oof_predictions", "ml.tree_fit", "ml.auc", "ml.predict",
             "evaluation.equal_error_rate", "evaluation.frr_at_far",
             "evaluation.cross_apply", "randomness", "datagen.generate")
    for name in timed:
        m[f"{name}.s"] = busy(name)
        m[f"{name}.calls"] = calls(name)
    for name in ("truong.build_dataset", "pipeline.karapanos_records", "cli.main"):
        m[f"{name}.self_s"] = sp.self_ns(spans, name) / 1e9
    for name in ("karapanos.similarity_banded", "truong.audio_features"):
        per_call = [(s["end"] - s["start"]) / 1e6 for s in by_name.get(name, [])]
        m[f"{name}.p50_ms"], m[f"{name}.tail_ms"], m[f"{name}.tail_pct"] = \
            sp.percentiles(per_call)
    m["core.pair_intervals"] = max((s["pairs"] for s in by_name.get("core.window_pairs", [])),
                                   default=0)
    records = total("pipeline.karapanos_records", "records")
    m["karapanos.scored_frac"] = total("pipeline.karapanos_records", "scored") / records \
        if records else 0.0
    rows_out = total("shrestha.compress_instances", "rows_out")
    m["shrestha.compression_ratio"] = \
        total("shrestha.compress_instances", "rows_in") / rows_out if rows_out else 0.0
    m["pipeline.rows_written"] = total("pipeline.write", "rows")
    m["pipeline.rows_read"] = total("pipeline.read", "rows")
    m["ml.tree_nodes"] = total("ml.tree_fit", "nodes")
    m["evaluation.n_scores"] = total("evaluation.equal_error_rate", "scores")
    m["evaluation.n_thresholds"] = total("evaluation.equal_error_rate", "thresholds")
    # Grid points are the out-of-fold runs made inside ml.train, in grid order.
    train_ids = {(s["run"], s["id"]) for s in by_name.get("ml.train", [])}
    points: dict[int, float] = {}
    per_train: dict[tuple, int] = {}
    for s in sorted(by_name.get("ml.oof_predictions", []), key=lambda s: s["start"]):
        parent = (s["run"], s["parent"])
        if parent in train_ids:
            k = per_train.get(parent, 0)
            per_train[parent] = k + 1
            points[k] = points.get(k, 0.0) + (s["end"] - s["start"]) / 1e9
    for k in range(GRID_POINTS):
        m[f"ml.grid_point.{k}.s"] = points.get(k, 0.0)
    m["trace.spans"] = len(spans)
    return m


# ---------------------------------------------------------------------------
# One benchmark run
# ---------------------------------------------------------------------------

def environment() -> dict:
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "ZIS_THREADS": str(min(MAX_ZIS_THREADS, os.cpu_count() or 1)), **PINNED_ENV}


def set_up(runner: Runner, w: Workload, seed: int, inputs: Path) -> float:
    """Generate the scenario and any generated inputs under `inputs`; seconds taken."""
    shutil.rmtree(inputs, ignore_errors=True)
    start = time.perf_counter()
    outcome = runner.python("datagen", cli_args(datagen_argv(w, seed, inputs / "scenario")),
                            inputs.parent / f"{inputs.name}_datagen.log")
    if w.n_scores:
        write_scores(inputs / "scores.csv", seed, w.n_scores)
    if w.ml_rows:
        write_shrestha_table(inputs / "table.csv", w, seed)
    elapsed = time.perf_counter() - start
    runner.settle(outcome, None)
    return elapsed


def layout(inputs: Path, out: Path) -> Layout:
    return Layout(inputs / "scenario", out, inputs / "scores.csv", inputs / "table.csv")


def median(values) -> float:
    return float(statistics.median(values))


def run(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    started = time.monotonic()
    runner = Runner(deadline=started + DEADLINE_S)
    base = WORK / w.name
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    problems: list[str] = []

    # A fresh import also compiles bytecode caches, so no timed step pays for it.
    imports = [runner.python("import", ["-c", "import ziskit.cli"], base / "import.log")
               for _ in range(IMPORT_REPEATS if trace else 1)]
    problems += [f"import ziskit.cli: exit code {o.returncode}"
                 for o in imports if o.returncode]

    inputs = base / "inputs"
    setup_times = [set_up(runner, w, seed, inputs)]
    input_digests = digest_tree(inputs)
    for _ in range(SETUP_REPEATS - 1 if not trace else 0):
        setup_times.append(set_up(runner, w, seed, base / "inputs_again"))
        if digest_tree(base / "inputs_again") != input_digests:
            problems.append("the same seed generated different inputs")
    shutil.rmtree(base / "inputs_again", ignore_errors=True)

    plain_lay = layout(inputs, base / "out")
    traced_lay = layout(inputs, base / "out_traced")
    plain: list[Sequence] = []
    traced: list[Sequence] = []
    datagen_spans: list[dict] = []
    if trace:
        spans_out = base / "datagen.spans.jsonl"
        scen_traced = base / "scenario_traced"
        runner.settle(runner.python(
            "datagen", cli_args(datagen_argv(w, seed, scen_traced), spans_out, "datagen"),
            base / "datagen_traced.log"), None)
        if digest_tree(scen_traced) != digest_tree(plain_lay.scen):
            problems.append("tracing changed the datagen output")
        shutil.rmtree(scen_traced, ignore_errors=True)
        datagen_spans = sp.read_spans(spans_out) if spans_out.exists() else []

    measure_start = time.perf_counter()
    while True:
        tag = f"{w.name}:{seed}:{len(plain)}"
        plain.append(run_sequence(runner, w, plain_lay, tag))
        step = plain[-1].wall_s
        if trace:
            traced.append(run_sequence(runner, w, traced_lay, tag, traced=True))
            step += traced[-1].wall_s
            if traced[-1].digests != plain[-1].digests:
                problems.append("tracing changed the command outputs")
        if plain[-1].digests != plain[0].digests:
            problems.append("a repeated sequence gave different outputs")
        elapsed = time.perf_counter() - measure_start
        if elapsed + step > seconds or \
                time.monotonic() + 2 * step > started + DEADLINE_S:
            break

    if not trace:
        metrics = {
            "wall_s": median(s.wall_s for s in plain),
            "cpu_s": median(s.cpu_s for s in plain),
            "peak_rss_mb": median(s.peak_rss_mb for s in plain),
            "setup_s": median(setup_times),
        }
    else:
        per_seq = [layer_metrics(s.spans + datagen_spans) for s in traced]
        metrics = {name: median(m[name] for m in per_seq) for name in per_seq[0]}
        unsteady = [n for n in per_seq[0] if (n.endswith(".calls") or n in COUNT_METRICS)
                    and any(m[n] != per_seq[0][n] for m in per_seq)]
        if unsteady:
            problems.append(f"counts differ between traced sequences: {unsteady}")
        metrics["cli.import_s"] = median(o.wall_s for o in imports)
        for key in COMMAND_KEYS:
            walls = [o.wall_s for s in plain for o in s.outcomes if o.key == key]
            rss = [o.peak_rss_mb for s in plain for o in s.outcomes if o.key == key]
            metrics[f"cli.{key}.wall_s"] = median(walls) if walls else 0.0
            metrics[f"cli.{key}.peak_rss_mb"] = median(rss) if rss else 0.0
        metrics["trace.wall_s"] = median(s.wall_s for s in traced)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - median(s.wall_s for s in plain)

    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    record = {"workload": w.name, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": environment(), "sequences": len(plain),
              "input_sha256": input_digests, "output_sha256": plain[0].digests}
    print(json.dumps(record, sort_keys=True))
    record["commands"] = [[o.__dict__ for o in seq.outcomes] for seq in plain + traced]
    record["problems"] = problems
    (base / "record.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                                      encoding="utf-8")
    return {"correct": runner.failed == 0 and not problems,
            "attempted": runner.attempted, "failed": runner.failed,
            "metrics": metrics}


def select(result: dict, trace: bool) -> dict:
    """Keep and label exactly the metrics BENCHMARK.json lists for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    result["metrics"] = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
                         for m in wanted}
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ziskit" / "cli.py").is_file():
        print(f"no ziskit source under {ROOT / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(select(result, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())

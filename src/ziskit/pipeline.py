"""Feature pipelines and their on-disk CSV formats.

Connects the scheme modules to datasets: windows pairs, computes per-scheme
records, and reads/writes the CSV formats consumed by `evaluate`, `ml` and
`fingerprint-randomness`. Interval-level work runs through a thread map
capped by the ZIS_THREADS environment variable; its worker threads may be the
first to use a scipy kernel, which `dsp` then loads.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import numpy as np

from ziskit.core.types import (
    Dataset,
    EvaluationRecord,
    Fingerprint,
    GroundTruth,
    Label,
    SensorKind,
)
from ziskit.core.windowing import interval_runs, interval_starts, pmap, window_pairs
from ziskit.errors import InsufficientSamples, InvalidBand, ZisError
from ziskit.ml.ensemble import MLDataset
from ziskit.schemes import karapanos, miettinen, schurmann, shrestha, truong
from ziskit.table import Column, choice, flag, read_table, real, write_table


# ---------------------------------------------------------------------------
# Karapanos: per-pair similarity scores
# ---------------------------------------------------------------------------

def karapanos_records(dataset: Dataset, t: int,
                      cfg: karapanos.KarapanosConfig) -> list[EvaluationRecord]:
    """Similarity score per pair-interval; intervals go through `pmap`.

    Each interval is scored by `karapanos.interval_similarities`, one band at
    a time. A pair is gated when either device's audio is missing or short,
    recorded at a rate too low for the bands or unlike its partner's, or too
    quiet.
    """
    def score_run(run: list[EvaluationRecord]) -> list[EvaluationRecord]:
        start = run[0].interval_start
        devices = dict.fromkeys(d for p in run for d in (p.device_a, p.device_b))
        snippets = {d: dataset.audio_in(d, start, start + t * 1000) for d in devices}
        scores = karapanos.interval_similarities(
            snippets, [(p.device_a, p.device_b) for p in run], cfg)
        return [replace(p, score=s.value) for p, s in zip(run, scores, strict=True)]

    return [r for rows in pmap(score_run, interval_runs(window_pairs(dataset, t)))
            for r in rows]


def _split_pair(cell: str) -> tuple[str, str]:
    dev_a, dev_b = cell.split("|")
    if dev_a == dev_b:
        raise ValueError("pair must consist of two distinct devices")
    return dev_a, dev_b


# Columns shared by the pair-interval tables; a pair is written `devA|devB`.
PAIR_ID = Column("pair_id", _split_pair, "|".join)
INTERVAL_START = Column("interval_start_ms", int)
INTERVAL_LEN = Column("t", int)
LABEL = choice("label", Label)

# Scores feed the FAR/FRR sweeps, which need an order: nan and inf are rejected.
SCORE = real("score", nullable=True, finite=True)
SCORE_COLUMNS = (PAIR_ID, INTERVAL_START, INTERVAL_LEN, SCORE, flag("gated"))


def write_score_csv(path: Path, records: list[EvaluationRecord]) -> None:
    write_table(path, SCORE_COLUMNS,
                (((r.device_a, r.device_b), r.interval_start, r.interval_len_s,
                  r.score, r.gated) for r in records))


def read_score_csv(path: Path, ground_truth: GroundTruth) -> list[EvaluationRecord]:
    """Score rows whose pair-interval has a ground-truth label; `gated` must be 1
    exactly when the score cell is empty."""
    def record(pair, start, t, score, gated):
        if gated != (score is None):
            raise ValueError(f"gated={int(gated)} disagrees with score {score!r}")
        label = ground_truth.label_for(*pair, start, start + t * 1000)
        return None if label is None else EvaluationRecord(*pair, start, t, label, score)

    return [r for r in read_table(path, SCORE_COLUMNS, record) if r is not None]


# ---------------------------------------------------------------------------
# Fingerprint schemes: per-device fingerprints, compared pairwise
# ---------------------------------------------------------------------------

def schurmann_fingerprints(dataset: Dataset, t: int) -> list[Fingerprint]:
    starts = interval_starts(dataset, t)
    jobs = [(device, start) for device in sorted(dataset.audio) for start in starts]

    def one(job: tuple[str, int]) -> Fingerprint | None:
        device, start = job
        chunk = dataset.audio[device].slice_ms(start, start + t * 1000)
        try:
            return schurmann.audio_fingerprint(chunk, t)
        except (InsufficientSamples, InvalidBand):  # short audio, or bands above Nyquist
            return None

    return [fp for fp in pmap(one, jobs) if fp is not None]


def miettinen_fingerprints(dataset: Dataset, cfg: miettinen.MiettinenConfig,
                           source: str = "noise") -> list[Fingerprint]:
    """Noise-level pipeline windows audio; luminosity uses raw readings."""
    out: list[Fingerprint] = []
    if source == "noise":
        for device in sorted(dataset.audio):
            try:
                series = miettinen.noise_levels(dataset.audio[device],
                                                cfg.measurement_window_s)
            except InsufficientSamples:  # shorter than one measurement window
                continue
            out.extend(miettinen.iter_fingerprints(series, cfg))
    elif source == "luminosity":
        for device in sorted(dataset.sensors):
            series = dataset.sensors[device].get(SensorKind.LUMINOSITY)
            if series is not None and len(series):
                out.extend(miettinen.iter_fingerprints(series, cfg))
    else:
        raise ValueError(f"unknown fingerprint source {source!r}")
    return out


FINGERPRINT_COLUMNS = (Column("device_id"), INTERVAL_START, INTERVAL_LEN,
                       Column("hex_bits"), Column("n_bits", int))


def write_fingerprint_csv(path: Path, fingerprints: list[Fingerprint], t: int) -> None:
    write_table(path, FINGERPRINT_COLUMNS,
                ((fp.device_id, fp.interval_start, t, fp.to_hex(), len(fp))
                 for fp in fingerprints))


def read_fingerprint_csv(path: Path) -> tuple[list[Fingerprint], list[int]]:
    """Fingerprints of `n_bits` bits each, and each row's interval length."""
    rows = list(read_table(path, FINGERPRINT_COLUMNS, lambda device, start, t, hex_bits, n:
                           (Fingerprint.from_hex(hex_bits, n, device, start), t)))
    return [fp for fp, _ in rows], [t for _, t in rows]


def fingerprint_records(fingerprints: list[Fingerprint], spans: list[int],
                        ground_truth: GroundTruth, surprisal_threshold: float | None = None
                        ) -> list[EvaluationRecord]:
    """Pairwise Hamming similarity of co-timed fingerprints, labeled.

    With a threshold, a `miettinen.SurprisalModel` is fit on these fingerprints,
    and a pair is gated when either fingerprint's surprisal under it is at or
    below the threshold.
    """
    gate = [False] * len(fingerprints)
    if surprisal_threshold is not None and fingerprints:
        model = miettinen.SurprisalModel.fit(fingerprints)
        gate = [miettinen.surprisal(fp, model) <= surprisal_threshold for fp in fingerprints]
    by_start: dict[tuple[int, int], list[int]] = {}
    for i, fp in enumerate(fingerprints):
        by_start.setdefault((fp.interval_start, spans[i]), []).append(i)
    records = []
    for (start, span), idxs in sorted(by_start.items()):
        for pos, i in enumerate(idxs):
            for j in idxs[pos + 1:]:
                a, b = fingerprints[i], fingerprints[j]
                if a.device_id == b.device_id:
                    continue
                dev_a, dev_b = sorted((a.device_id, b.device_id))
                label = ground_truth.label_for(dev_a, dev_b, start, start + span * 1000)
                if label is None:
                    continue
                score = None if gate[i] or gate[j] else schurmann.fingerprint_similarity(a, b)
                records.append(EvaluationRecord(dev_a, dev_b, start, span, label, score))
    return records


# ---------------------------------------------------------------------------
# Truong / Shrestha feature tables
# ---------------------------------------------------------------------------

TRUONG_COLUMNS = (PAIR_ID, INTERVAL_START, INTERVAL_LEN,
                  *(real(name, nullable=True) for name in truong.ALL_FEATURES), LABEL)


def truong_rows(dataset: Dataset, t: int, theta: float = truong.THETA_DEFAULT
                ) -> list[truong.TruongFeatureVector]:
    return truong.build_dataset(window_pairs(dataset, t), dataset, t, theta=theta)


def write_truong_csv(path: Path, rows: list[truong.TruongFeatureVector]) -> None:
    write_table(path, TRUONG_COLUMNS,
                (((r.device_a, r.device_b), r.interval_start, r.interval_len_s,
                  *r.values(), r.label) for r in rows))


def read_truong_csv(path: Path) -> list[truong.TruongFeatureVector]:
    # After pair_id the columns are the vector's fields, in order.
    return list(read_table(path, TRUONG_COLUMNS, lambda pair, *fields:
                           truong.TruongFeatureVector(*pair, *fields)))


SHRESTHA_COLUMNS = (PAIR_ID, Column("timestamp_ms", int), real("d_temp", nullable=True),
                    real("d_hum", nullable=True), real("d_alt", nullable=True), LABEL,
                    Column("weight", int))


def write_shrestha_csv(path: Path, rows: list[shrestha.ShresthaFeatureVector]) -> None:
    write_table(path, SHRESTHA_COLUMNS,
                (((r.device_a, r.device_b), r.timestamp_ms, *r.values(), r.label, r.weight)
                 for r in rows))


def read_shrestha_csv(path: Path) -> list[shrestha.ShresthaFeatureVector]:
    # After pair_id the columns are the vector's fields, in order.
    return list(read_table(path, SHRESTHA_COLUMNS, lambda pair, *fields:
                           shrestha.ShresthaFeatureVector(*pair, *fields)))


def ml_table(rows: list[truong.TruongFeatureVector] | list[shrestha.ShresthaFeatureVector]
             ) -> tuple[MLDataset, list[EvaluationRecord]]:
    """A feature table as ML arrays, plus each row's unscored record.

    A missing feature becomes NaN and a colocated label 1; the records are
    what the prediction CSV writes once scored.
    """
    if not rows:
        raise ZisError("no records in feature file")
    X = np.array([[np.nan if v is None else v for v in r.values()] for r in rows])
    y = np.array([1 if r.label is Label.COLOCATED else 0 for r in rows], dtype=np.uint8)
    w = np.array([r.weight for r in rows], dtype=np.float64)
    return MLDataset(X, y, w, rows[0].FEATURES), [r.record() for r in rows]


# ---------------------------------------------------------------------------
# Generic score files (ML predictions)
# ---------------------------------------------------------------------------

PREDICTION_COLUMNS = (PAIR_ID, INTERVAL_START, INTERVAL_LEN, SCORE, LABEL)


def write_prediction_csv(path: Path, records: list[EvaluationRecord]) -> None:
    write_table(path, PREDICTION_COLUMNS,
                (((r.device_a, r.device_b), r.interval_start, r.interval_len_s,
                  r.score, r.label) for r in records))


def read_prediction_csv(path: Path) -> list[EvaluationRecord]:
    return list(read_table(path, PREDICTION_COLUMNS, lambda pair, start, t, score, label:
                           EvaluationRecord(*pair, start, t, label, score)))

"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import csv
import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import spans as sp  # noqa: E402


def _span(id_, name, start, end, parent=None, thread=1, run_id="r"):
    return {"id": id_, "name": name, "start": start, "end": end, "parent": parent,
            "thread": thread, "run": run_id}


def test_self_and_busy_time_count_overlap_across_threads_once():
    spans = [
        _span(0, "pool", 0, 100, thread=1),
        _span(1, "work", 10, 40, parent=0, thread=2),
        _span(2, "work", 40, 70, parent=0, thread=2),
        _span(3, "work", 20, 60, parent=0, thread=3),
        _span(4, "work", 80, 90, parent=0, thread=3),
        _span(5, "inner", 25, 35, parent=1, thread=2),
    ]
    # Children cover [10, 70] and [80, 90] of the pool span.
    assert sp.self_ns(spans, "pool") == 100 - 70
    assert sp.busy_ns(spans, "work") == 70
    assert sp.self_ns(spans, "work") == (30 - 10) + 30 + 40 + 10
    # The same intervals in another run (another command) add, not merge.
    other = [dict(s, run="r2") for s in spans]
    assert sp.busy_ns(spans + other, "work") == 140


def test_recorder_parents_worker_spans_to_the_pool_caller():
    recorder = sp.Recorder("r")
    work = recorder.wrap("work", lambda x: x * 2)

    def pool(items):
        with ThreadPoolExecutor(max_workers=2) as ex:
            return list(ex.map(work, items))

    assert recorder.wrap("pool", pool)(range(6)) == [0, 2, 4, 6, 8, 10]
    (parent,) = [s for s in recorder.spans if s["name"] == "pool"]
    children = [s for s in recorder.spans if s["name"] == "work"]
    assert len(children) == 6
    assert {s["parent"] for s in children} == {parent["id"]}
    assert all(s["thread"] != threading.get_ident() for s in children)
    assert all(parent["start"] <= s["start"] <= s["end"] <= parent["end"] for s in children)


def test_percentiles_pick_the_highest_with_ten_samples_beyond():
    assert sp.percentiles(list(range(1, 101))) == (50, 90, 90.0)
    assert sp.percentiles(list(range(1, 1001))) == (500, 990, 99.0)
    assert sp.percentiles(list(range(1, 20))) == (10, 10, 50.0)


SMALL = run.Workload("small", groups=(2, 2), duration_s=20)


def _score_rows():
    rows = []
    for start in (1_600_000_000_000, 1_600_000_010_000):
        for i, a in enumerate(SMALL.devices):
            for b in SMALL.devices[i + 1:]:
                rows.append([f"{a}|{b}", start, 10, "0.5", 0])
    return rows


def _write(path: Path, header, rows) -> Path:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


HEADER = ["pair_id", "interval_start_ms", "t", "score", "gated"]


def test_score_checker_accepts_a_valid_file(tmp_path):
    rows = _score_rows()
    rows[0][3:] = ["", 1]
    assert run.check_score_csv(_write(tmp_path / "k.csv", HEADER, rows), SMALL) == []


@pytest.mark.parametrize("corrupt", [
    lambda rows: rows[:-1],                                     # missing pair-interval
    lambda rows: rows + rows[:1],                               # duplicate
    lambda rows: [r[:3] + ["1.5", 0] if i == 2 else r for i, r in enumerate(rows)],
    lambda rows: [r[:3] + ["nan", 0] if i == 2 else r for i, r in enumerate(rows)],
    lambda rows: [r[:3] + ["", 0] if i == 2 else r for i, r in enumerate(rows)],
    lambda rows: [["g0d1|g0d0"] + r[1:] if i == 0 else r for i, r in enumerate(rows)],
    lambda rows: [r[:4] if i == 3 else r for i, r in enumerate(rows)],  # ragged
])
def test_score_checker_rejects_a_corrupted_file(tmp_path, corrupt):
    path = _write(tmp_path / "k.csv", HEADER, corrupt(_score_rows()))
    assert run.check_score_csv(path, SMALL) != []


def test_checkers_reject_missing_or_garbled_files(tmp_path):
    assert run.check_score_csv(tmp_path / "absent.csv", SMALL) != []
    garbled = tmp_path / "g.csv"
    garbled.write_bytes(b"\xff\xfe\x00garbage")
    assert run.check_results(garbled) != []
    assert run.check_model(garbled) != []


def test_generated_scores_repeat_byte_for_byte(tmp_path):
    a, b, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
    run.write_scores(a, 7, 2000)
    run.write_scores(b, 7, 2000)
    run.write_scores(c, 8, 2000)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()
    rows, problems = run._read_csv(a, run.PREDICTION_HEADER)
    assert problems == [] and len(rows) == 2000
    scores = [float(r["score"]) for r in rows]
    assert len(set(scores)) == 2000 and all(0.0 < s < 1.0 for s in scores)
    assert {r["label"] for r in rows} == {"colocated", "non_colocated"}


def test_reference_sweep_matches_ziskit_equal_error_rate():
    from ziskit.evaluation import equal_error_rate

    rng = np.random.default_rng(3)
    for n, levels in ((50, 7), (300, 40), (400, 0)):
        labels = rng.random(n) < 0.4
        labels[:2] = (True, False)
        raw = rng.normal(labels * 1.0, 1.0)
        scores = np.round(raw * levels) / levels if levels else raw  # ties when rounded
        rates = equal_error_rate(scores, labels.astype(int))
        eer, threshold = run.reference_eer(scores.tolist(), labels.tolist())
        assert (eer, threshold) == (rates.eer, rates.threshold)


def test_benchmark_spec_lists_only_measured_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    produced = set(run.layer_metrics([])) | set(run.TRACE_RUN_METRICS)
    assert {m["name"] for m in spec["per_layer"]} <= produced
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_every_layer_metric_has_a_documented_effect():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    layers = json.loads((HERE / "layers.json").read_text(encoding="utf-8"))["layers"]
    documented = {name.replace("<command>", key)
                  for layer in layers.values() for name in layer["metrics"]
                  for key in run.COMMAND_KEYS}
    assert {m["name"] for m in spec["per_layer"]} == documented

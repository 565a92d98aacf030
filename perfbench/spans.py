"""Span recording around ziskit's public functions, and span arithmetic.

Run as a script, this module is the traced form of one CLI command:

    python3 perfbench/spans.py <spans.jsonl> <run-id> -- <ziskit arguments>

It wraps the public functions listed in WRAPPED where their callers look
them up, calls ``ziskit.cli.main`` with the arguments, and writes one JSON
line per span when the command ends. Spans are kept in memory until then.

Imported, it gives the arithmetic that turns spans into per-layer figures:
busy time (the union of a layer's spans over all threads), self time (a
span minus the union of its children, whichever thread they ran on), and
per-call percentiles.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from pathlib import Path


class Recorder:
    """In-memory span recorder shared by the threads of one process.

    A span opened on a thread with no open span of its own (a worker of a
    thread pool) takes as parent the innermost open span of the main
    thread, which is the call that started the pool.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_thread = threading.main_thread()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, count=None):
        """`fn` wrapped in a span; `count(args, result)` adds counts to it."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                main = self._main_stack
                parent = main[-1] if main and stack is not main else None
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                span = {"id": span_id, "name": name, "start": start, "end": end,
                        "parent": parent, "thread": threading.get_ident(),
                        "run": self.run_id}
                self.spans.append(span)
            if count is not None:
                span.update(count(args, result))
            return result

        return wrapper

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s["id"]):
                fh.write(json.dumps(span, sort_keys=True) + "\n")


def _rows(args, result):
    return {"rows": len(result[0] if isinstance(result, tuple) else result)}


def _rows_arg(args, result):
    return {"rows": len(args[1])}


# (module, attribute, span name, counts). Each name is patched where its
# caller looks it up, so `from x import f` call sites need their own entry.
WRAPPED = (
    ("ziskit.cli", "load_dataset", "core.load_dataset", None),
    ("ziskit.pipeline", "window_pairs", "core.window_pairs",
     lambda a, r: {"pairs": len(r)}),
    ("ziskit.dsp", "bandpass_bank", "dsp.bandpass_bank", None),
    ("ziskit.dsp", "max_xcorr_norm_two_sided", "dsp.max_xcorr_norm_two_sided", None),
    ("ziskit.dsp", "fft_mag_hamming", "dsp.fft_mag_hamming", None),
    ("ziskit.schemes.karapanos", "band_decompose", "karapanos.band_decompose", None),
    ("ziskit.schemes.karapanos", "similarity_banded", "karapanos.similarity_banded", None),
    ("ziskit.schemes.schurmann", "audio_fingerprint", "schurmann.audio_fingerprint", None),
    ("ziskit.schemes.miettinen", "iter_fingerprints", "miettinen.iter_fingerprints", None),
    ("ziskit.schemes.truong", "audio_features", "truong.audio_features", None),
    ("ziskit.schemes.truong", "beacon_features", "truong.beacon_features", None),
    ("ziskit.schemes.truong", "build_dataset", "truong.build_dataset", None),
    ("ziskit.schemes.shrestha", "build_dataset", "shrestha.build_dataset", None),
    ("ziskit.schemes.shrestha", "compress_instances", "shrestha.compress_instances",
     lambda a, r: {"rows_in": len(a[0]), "rows_out": len(r)}),
    ("ziskit.pipeline", "karapanos_records", "pipeline.karapanos_records",
     lambda a, r: {"records": len(r),
                   "scored": sum(1 for rec in r if not rec.gated)}),
    ("ziskit.pipeline", "fingerprint_records", "pipeline.fingerprint_records", None),
    *(("ziskit.pipeline", f"write_{kind}_csv", "pipeline.write", _rows_arg)
      for kind in ("score", "fingerprint", "truong", "shrestha", "prediction")),
    *(("ziskit.pipeline", f"read_{kind}_csv", "pipeline.read", _rows)
      for kind in ("score", "fingerprint", "truong", "shrestha", "prediction")),
    ("ziskit.ml.ensemble", "train", "ml.train", None),
    ("ziskit.ml.ensemble", "oof_predictions", "ml.oof_predictions", None),
    ("ziskit.ml.ensemble", "auc", "ml.auc", None),
    ("ziskit.ml.ensemble", "TrainedModel.predict", "ml.predict", None),
    ("ziskit.ml.tree", "Tree.fit", "ml.tree_fit",
     lambda a, r: {"nodes": len(r.feature)}),
    ("ziskit.evaluation", "equal_error_rate", "evaluation.equal_error_rate",
     lambda a, r: _sweep_counts(a[0])),
    ("ziskit.evaluation", "frr_at_far", "evaluation.frr_at_far", None),
    ("ziskit.evaluation", "cross_apply", "evaluation.cross_apply", None),
    *(("ziskit.randomness", fn, "randomness", None)
      for fn in ("random_walk", "markov_stats", "split_subfingerprints")),
    ("ziskit.datagen", "generate", "datagen.generate", None),
)


def _sweep_counts(scores) -> dict:
    import numpy as np

    scores = np.asarray(scores, dtype=np.float64)
    # One FAR/FRR evaluation per distinct-score midpoint plus two sentinels.
    return {"scores": int(scores.size), "thresholds": int(np.unique(scores).size) + 1}


def install(recorder: Recorder) -> None:
    """Replace every WRAPPED attribute by a span-recording wrapper."""
    for module_name, attr, name, count in WRAPPED:
        owner = importlib.import_module(module_name)
        *outer, leaf = attr.split(".")
        for part in outer:
            owner = getattr(owner, part)
        raw = inspect.getattr_static(owner, leaf)
        if isinstance(raw, classmethod):
            setattr(owner, leaf, classmethod(recorder.wrap(name, raw.__func__, count)))
        else:
            setattr(owner, leaf, recorder.wrap(name, raw, count))


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------

def union_length(intervals) -> int:
    """Total length covered by (start, end) intervals, overlaps counted once."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def busy_ns(spans: list[dict], name: str) -> int:
    """Wall time during which at least one `name` span was open, per run."""
    by_run: dict[str, list] = {}
    for s in spans:
        if s["name"] == name:
            by_run.setdefault(s["run"], []).append((s["start"], s["end"]))
    return sum(union_length(iv) for iv in by_run.values())


def self_ns(spans: list[dict], name: str) -> int:
    """Sum over `name` spans of their length minus the union of their children."""
    children: dict[tuple[str, int], list] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault((s["run"], s["parent"]), []).append(s)
    total = 0
    for s in spans:
        if s["name"] != name:
            continue
        kids = [(max(c["start"], s["start"]), min(c["end"], s["end"]))
                for c in children.get((s["run"], s["id"]), [])]
        total += (s["end"] - s["start"]) - union_length(k for k in kids if k[0] < k[1])
    return total


# Candidate tail percentiles in per mille, highest first.
TAIL_PER_MILLE = (999, 990, 950, 900, 750, 500)


def percentiles(values: list[float]) -> tuple[float, float, float]:
    """Median, and the highest candidate percentile with >= 10 samples beyond it.

    Returns (median, tail value, tail percentile), nearest-rank. With fewer
    than 20 samples no candidate qualifies and the tail is the median.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0, 0.0

    def rank(per_mille: int) -> float:
        return ordered[max(1, -(-per_mille * n // 1000)) - 1]

    tail = next((p for p in TAIL_PER_MILLE if n * (1000 - p) >= 10_000), 500)
    return rank(500), rank(tail), tail / 10.0


def read_spans(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: spans.py <spans.jsonl> <run-id> -- <ziskit arguments>",
              file=sys.stderr)
        return 1
    out, run_id, cli_args = Path(argv[0]), argv[1], argv[3:]
    import ziskit.cli

    recorder = Recorder(run_id)
    install(recorder)
    entry = recorder.wrap("cli.main", ziskit.cli.main)
    try:
        return entry(cli_args)
    finally:
        recorder.write(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Interval windowing of device pairs, per-interval pair work, subscenario filtering."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from itertools import combinations, groupby
from typing import Callable, Iterable, Sequence

from ziskit.core.types import Dataset, EvaluationRecord, GroundTruth


def dataset_epoch(dataset: Dataset) -> tuple[int, int] | None:
    """Earliest common timestamp and latest common end across devices with data."""
    spans = [dataset.device_span(d) for d in dataset.device_ids()]
    spans = [s for s in spans if s is not None]
    if not spans:
        return None
    start = max(s for s, _ in spans)
    end = min(e for _, e in spans)
    if start >= end:
        return None
    return start, end


def interval_starts(dataset: Dataset, t: int) -> range:
    """Start times of the aligned intervals of length t seconds.

    The grid is anchored at the dataset's earliest common timestamp, and
    every interval ends by its latest common end.
    """
    if t <= 0:
        raise ValueError("interval length must be a positive integer")
    span = dataset_epoch(dataset)
    if span is None:
        return range(0)
    epoch, end = span
    step = t * 1000
    return range(epoch, end - step + 1, step)


def window_pairs(dataset: Dataset, t: int) -> list[EvaluationRecord]:
    """One unscored record per unordered device pair per interval of `interval_starts`.

    Pairs whose colocation state changes mid-interval are dropped.
    """
    devices = [d for d in dataset.device_ids() if dataset.device_span(d) is not None]
    gt = dataset.ground_truth
    return [EvaluationRecord(a, b, start, t, label)
            for start in interval_starts(dataset, t)
            for a, b in combinations(devices, 2)
            if (label := gt.label_for(a, b, start, start + t * 1000)) is not None]


def thread_count() -> int:
    raw = os.environ.get("ZIS_THREADS", "")
    try:
        return max(1, int(raw))
    except ValueError:
        return max(1, os.cpu_count() or 1)


def pmap(fn: Callable, items: Sequence) -> list:
    """Order-preserving parallel map honoring ZIS_THREADS."""
    workers = thread_count()
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def process_map(fn: Callable, items: Sequence) -> list:
    """Order-preserving map over worker processes honoring ZIS_THREADS.

    For pure-Python numpy work, which holds the interpreter lock and so
    gains nothing from threads. `fn` must be a module-level function, and
    it, every item and every result must pickle. Starts
    min(ZIS_THREADS, len(items)) workers, and no pool at all when that is 1.
    Workers fork rather than spawn, because a spawned worker imports numpy
    and the program again before its first task; the callers' tasks take no
    lock that another thread of this process could hold.
    """
    workers = min(thread_count(), len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    # Imported here: every command imports this module, few start a pool.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers,
                             mp_context=multiprocessing.get_context("fork")) as pool:
        return list(pool.map(fn, items))


def interval_runs(pairs: Iterable[EvaluationRecord]) -> list[list[EvaluationRecord]]:
    """Runs of consecutive pairs with one interval start; window_pairs gives
    one run per interval."""
    return [list(run) for _, run in groupby(pairs, key=lambda p: p.interval_start)]


def filter_subscenario(records: Iterable[EvaluationRecord], ground_truth: GroundTruth,
                       name: str) -> list[EvaluationRecord]:
    """Records whose interval lies fully inside any range of the subscenario."""
    sub = ground_truth.subscenario(name)
    kept = []
    for rec in records:
        start = rec.interval_start
        stop = start + rec.interval_len_s * 1000
        if any(s <= start and stop <= e for s, e in sub.ranges):
            kept.append(rec)
    return kept

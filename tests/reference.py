"""Reference implementations that only tests use: each is the oracle that a
test compares the production path against, and no command runs it."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ziskit import dsp
from ziskit.core.types import AudioSnippet
from ziskit.ml.tree import _MIN_HESSIAN, Tree, TreeParams, _best_splits
from ziskit.schemes.miettinen import SurprisalModel
from ziskit.schemes.shrestha import ShresthaFeatureVector


def apply_alignment(x: AudioSnippet, y: AudioSnippet,
                    result: dsp.AlignmentResult) -> tuple[AudioSnippet, AudioSnippet]:
    """Shift-and-trim both snippets to the aligned common length."""
    x2, y2 = dsp._coarse_align(x, y)
    lag, n = result.lag_samples, result.trimmed_len
    xs, ys = x2.samples, y2.samples
    if lag >= 0:
        xa, ya = xs[:n], ys[lag:lag + n]
        y_start = y2.start_time + int(round(lag * 1000 / y2.rate_hz))
        return (
            AudioSnippet(xa, x2.rate_hz, x2.start_time, x2.device_id),
            AudioSnippet(ya, y2.rate_hz, y_start, y2.device_id),
        )
    xa, ya = xs[-lag:-lag + n], ys[:n]
    x_start = x2.start_time + int(round(-lag * 1000 / x2.rate_hz))
    return (
        AudioSnippet(xa, x2.rate_hz, x_start, x2.device_id),
        AudioSnippet(ya, y2.rate_hz, y2.start_time, y2.device_id),
    )


def expand_instances(rows: list[ShresthaFeatureVector]) -> list[ShresthaFeatureVector]:
    """Inverse of compression: repeat each row `weight` times with weight 1."""
    out = []
    for row in rows:
        out.extend([replace(row, weight=1)] * row.weight)
    return out


def uniform_surprisal_model(n_bits: int) -> SurprisalModel:
    """P = 0.5 everywhere; covers every hour and partition."""
    table = {(part, hour): np.full(n_bits, 0.5)
             for part in ("weekday", "weekend") for hour in range(24)}
    return SurprisalModel(n_bits=n_bits, table=table)


def fit_tree_per_node(X: np.ndarray, g: np.ndarray, h: np.ndarray, params: TreeParams,
                      rng: np.random.Generator) -> Tree:
    """Grow depth-first from an explicit stack, nodes numbered in preorder.

    One `_best_splits` call per node. A forest's feature candidates are drawn
    per node in that same order. Only depth stops a node before the split
    search: row-count shortcuts would consume the RNG differently for
    weighted data and its expanded-duplicate equivalent.
    """
    n_feat = X.shape[1]
    sample = params.mtry is not None and params.mtry < n_feat
    nodes = []   # (feature, threshold, missing_left, value) per node
    left, right = [], []
    gains = np.zeros(n_feat)
    stack = [(np.arange(X.shape[0]), 0, -1, True)]
    while stack:
        rows, depth, parent, is_left = stack.pop()
        node = len(nodes)
        if parent >= 0:
            (left if is_left else right)[parent] = node
        left.append(-1)
        right.append(-1)
        best = None
        if depth < params.max_depth:
            candidates = (np.sort(rng.choice(n_feat, size=params.mtry, replace=False))
                          if sample else np.arange(n_feat))
            gain, cut, miss_left = _best_splits(X[rows][:, candidates], g[rows], h[rows])
            # The first maximum: candidates are scored in ascending order.
            i = int(gain.argmax())
            if gain[i] > -np.inf:
                best = (float(gain[i]), float(cut[i]), bool(miss_left[i]),
                        int(candidates[i]))
        if best is None:
            h_sum = max(float(h[rows].sum()), _MIN_HESSIAN)
            nodes.append((-1, 0.0, True, float(g[rows].sum()) / h_sum))
            continue
        gain, cut, miss_left, f = best
        gains[f] += gain
        nodes.append((f, cut, miss_left, 0.0))
        col = X[rows, f]
        go_left = np.where(np.isnan(col), miss_left, col < cut)
        # Right is pushed first so the left subtree is numbered next.
        stack.append((rows[~go_left], depth + 1, node, False))
        stack.append((rows[go_left], depth + 1, node, True))
    feature, threshold, missing_left, value = zip(*nodes)
    return Tree(
        feature=np.asarray(feature, dtype=np.int32),
        threshold=np.asarray(threshold),
        missing_left=np.asarray(missing_left, dtype=bool),
        left=np.asarray(left, dtype=np.int32),
        right=np.asarray(right, dtype=np.int32),
        value=np.asarray(value),
        root=0,
        feature_gains=gains,
    )

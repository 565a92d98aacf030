"""Weighted regression tree on gradient/hessian targets.

One tree implementation serves both ensembles: random forests fit it with
gradient = weight * label and hessian = weight (leaf = weighted class mean,
split gain equivalent to weighted Gini for binary labels), gradient boosting
fits it with logistic-loss gradients and hessians (leaf = Newton step).

Missing feature values (NaN) never produce split thresholds; at each split
they are routed to the child that received the larger share of training
weight, and the same side is used at prediction time.

Split search costs numpy calls more than arithmetic, so each node scores
all of its candidate columns in one sorted 2-D pass (`_best_splits`): NaN
sorts last, so a column's observed values are a prefix of its running sums,
and only a node whose rows hold NaN pays for the missing-value terms. The
node splits on the first column of highest gain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MIN_GAIN = 1e-12
_MIN_HESSIAN = 1e-12


@dataclass
class TreeParams:
    max_depth: int = 8
    # Number of feature candidates per split; None tries every feature.
    mtry: int | None = None


def _best_splits(block: np.ndarray, g: np.ndarray, h: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best split of every column of an (n, c) block in one sorted pass.

    Returns per-column arrays (gain, threshold, missing_left); gain is -inf
    where a column has no cut between two distinct observed values that
    gains more than `_MIN_GAIN`. A stable sort puts NaN last in row order,
    so each column's observed rows are a prefix of its running sums.
    """
    n, c = block.shape
    if n < 2:
        return np.full(c, -np.inf), np.zeros(c), np.ones(c, dtype=bool)
    cols = np.arange(c)
    order = np.argsort(block, axis=0, kind="stable")
    vs = block[order, cols]
    cg = np.cumsum(g[order], axis=0)
    ch = np.cumsum(h[order], axis=0)
    g_tot, h_tot = cg[-1], ch[-1]
    gl, hl = cg[:-1], ch[:-1]
    nan_cols = np.isnan(vs[-1]).nonzero()[0]
    if nan_cols.size:
        last = n - 1 - np.isnan(vs).sum(axis=0)
        g_tot, h_tot = cg[last, cols], ch[last, cols]
    gr, hr = g_tot - gl, h_tot - hl
    to_left = hl >= hr
    if nan_cols.size:
        # Missing rows join the heavier child (ties go left). Their mass is
        # summed one column at a time, in row order, as a 1-D masked sum is;
        # adding the zero mass of a NaN-free column changes no gain.
        g_miss, h_miss = np.zeros(c), np.zeros(c)
        for j in nan_cols.tolist():
            tail = order[last[j] + 1:, j]
            g_miss[j], h_miss[j] = g[tail].sum(), h[tail].sum()
        gl = gl + np.where(to_left, g_miss, 0.0)
        hl = hl + np.where(to_left, h_miss, 0.0)
        gr = gr + np.where(to_left, 0.0, g_miss)
        hr = hr + np.where(to_left, 0.0, h_miss)
        g_tot, h_tot = g_tot + g_miss, h_tot + h_miss
    parent = g_tot * g_tot / np.maximum(h_tot, _MIN_HESSIAN)
    with np.errstate(divide="ignore", invalid="ignore"):
        gain = (gl * gl / np.maximum(hl, _MIN_HESSIAN)
                + gr * gr / np.maximum(hr, _MIN_HESSIAN) - parent)
    # Only cuts between distinct observed values (NaN compares false) with
    # weight on both sides count.
    gain[~(vs[:-1] < vs[1:]) | (hl <= 0) | (hr <= 0)] = -np.inf
    best = gain.argmax(axis=0)
    top = gain[best, cols]
    found = np.isfinite(top) & (top > _MIN_GAIN)
    threshold = 0.5 * (vs[best, cols] + vs[best + 1, cols])
    return np.where(found, top, -np.inf), threshold, to_left[best, cols]


@dataclass
class Tree:
    """Fitted tree as flat node arrays in depth-first preorder.

    Children are node indices (-1 on a leaf, where `feature` is -1 too).
    `feature_gains` holds per-feature split-gain totals of a fitted tree and
    is None on a tree read back from JSON.
    """

    feature: np.ndarray
    threshold: np.ndarray
    missing_left: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    root: int
    feature_gains: np.ndarray | None = None

    @classmethod
    def fit(cls, X: np.ndarray, g: np.ndarray, h: np.ndarray, params: TreeParams,
            rng: np.random.Generator) -> "Tree":
        """Grow depth-first from an explicit stack, nodes numbered in preorder.

        A forest's feature candidates are drawn per node in that same order.
        Only depth stops a node before the split search: row-count shortcuts
        would consume the RNG differently for weighted data and its
        expanded-duplicate equivalent.
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
        return cls(
            feature=np.asarray(feature, dtype=np.int32),
            threshold=np.asarray(threshold),
            missing_left=np.asarray(missing_left, dtype=bool),
            left=np.asarray(left, dtype=np.int32),
            right=np.asarray(right, dtype=np.int32),
            value=np.asarray(value),
            root=0,
            feature_gains=gains,
        )

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Leaf value per row; every row still on a split moves down one level per pass."""
        X = np.ascontiguousarray(X)
        flat, d = X.ravel(), X.shape[1]
        node = np.full(X.shape[0], self.root)
        active = np.nonzero(self.feature[node] >= 0)[0]
        while active.size:
            at = node[active]
            col = np.take(flat, active * d + self.feature[at])
            go_left = np.where(np.isnan(col), self.missing_left[at], col < self.threshold[at])
            node[active] = np.where(go_left, self.left[at], self.right[at])
            active = active[self.feature[node[active]] >= 0]
        return self.value[node]

    def to_dict(self) -> dict:
        return {
            "feature": self.feature.tolist(),
            "threshold": self.threshold.tolist(),
            "missing_left": self.missing_left.astype(int).tolist(),
            "left": self.left.tolist(),
            "right": self.right.tolist(),
            "value": self.value.tolist(),
            "root": self.root,
        }

    @classmethod
    def from_dict(cls, doc: dict, n_features: int) -> "Tree":
        """Rebuild a tree; ValueError unless every split's feature is in range
        and its children come after it, which also keeps `predict` finite, and
        every threshold and value is finite."""
        tree = cls(
            feature=np.asarray(doc["feature"], dtype=np.int32),
            threshold=np.asarray(doc["threshold"], dtype=np.float64),
            missing_left=np.asarray(doc["missing_left"], dtype=bool),
            left=np.asarray(doc["left"], dtype=np.int32),
            right=np.asarray(doc["right"], dtype=np.int32),
            value=np.asarray(doc["value"], dtype=np.float64),
            root=int(doc["root"]),
        )
        n = tree.feature.size
        split = np.nonzero(tree.feature >= 0)[0]
        children = np.concatenate([tree.left[split], tree.right[split]])
        if (any(a.shape != (n,) for a in (tree.threshold, tree.missing_left, tree.left,
                                          tree.right, tree.value))
                or not 0 <= tree.root < n or np.any(tree.feature >= n_features)
                or np.any(children <= np.tile(split, 2)) or np.any(children >= n)):
            raise ValueError("tree arrays are inconsistent")
        # float64 conversion also parses quoted numbers such as "inf".
        if not (np.isfinite(tree.threshold).all() and np.isfinite(tree.value).all()):
            raise ValueError("tree thresholds and values must be finite")
        return tree

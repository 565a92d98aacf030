"""Weighted regression tree on gradient/hessian targets.

One tree implementation serves both ensembles: random forests fit it with
gradient = weight * label and hessian = weight (leaf = weighted class mean,
split gain equivalent to weighted Gini for binary labels), gradient boosting
fits it with logistic-loss gradients and hessians (leaf = Newton step).

Missing feature values (NaN) never produce split thresholds; at each split
they are routed to the child that received the larger share of training
weight, and the same side is used at prediction time.

Split search costs numpy calls more than arithmetic, so `grow_trees` grows
many trees on the same targets at once and scores the open nodes of all of
them in one sorted 2-D pass (`_best_splits`) per step, each node's candidate
columns side by side in a block padded below its rows. A node splits on the
first column of highest gain. A tree that draws feature candidates (a forest
with mtry below the feature count) draws them once per node in preorder, so
it takes one node per step from its own stack and the trees of a forest
advance in lockstep. A tree that draws nothing (boosting) takes every open
node per step, so it grows level by level. Either way the nodes are numbered
in preorder at the end, and each tree's per-feature gains are summed in that
order, so the model bytes do not depend on how the trees were batched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MIN_GAIN = 1e-12
_MIN_HESSIAN = 1e-12

# A node as it is made: (feature, threshold, missing_left, value, gain).
_Node = tuple[int, float, bool, float, float]


@dataclass
class TreeParams:
    max_depth: int = 8
    # Number of feature candidates per split; None tries every feature.
    mtry: int | None = None


def _best_splits(block: np.ndarray, g: np.ndarray, h: np.ndarray,
                 n_rows: np.ndarray | None = None
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best split of every column of an (m, c) block in one sorted pass.

    Column j holds the first `n_rows[j]` rows of its node (every row when
    `n_rows` is None); rows below them are padding, with value NaN and
    g = h = 0. `g` and `h` are (m,) when all columns share their rows, else
    (m, c). Returns per-column arrays (gain, threshold, missing_left); gain
    is -inf where a column has no cut between two distinct observed values
    that gains more than `_MIN_GAIN`.

    A stable sort puts NaN last in row order, so each column's observed rows
    are a prefix of its running sums, and its node's NaN rows come before its
    padding. Every other step works column by column or element by element,
    so a column scores as it would in a block of its node alone.
    """
    m, c = block.shape
    if m < 2:
        return np.full(c, -np.inf), np.zeros(c), np.ones(c, dtype=bool)
    if n_rows is None:
        n_rows = np.full(c, m)
    cols = np.arange(c)
    order = np.argsort(block, axis=0, kind="stable")
    flat = order * c + cols   # the sorted cells' indices in the flattened block
    vs = np.take(block, flat)
    gs, hs = (a[order] if a.ndim == 1 else np.take(a, flat) for a in (g, h))
    cg, ch = np.cumsum(gs, axis=0), np.cumsum(hs, axis=0)
    last = m - 1 - np.isnan(vs).sum(axis=0)   # last observed row
    g_tot, h_tot = cg[last, cols], ch[last, cols]
    gl, hl = cg[:-1], ch[:-1]
    gr, hr = g_tot - gl, h_tot - hl
    to_left = hl >= hr
    nan_cols = np.flatnonzero(last + 1 < n_rows)
    if nan_cols.size:
        # Missing rows join the heavier child (ties go left). Their mass is
        # summed over the node's own NaN rows alone, in row order, as a 1-D
        # masked sum is: a pairwise sum changes with its number of terms.
        # Adding the zero mass of a column without missing rows can only
        # flip the sign of a zero, which the gain squares away.
        g_miss, h_miss = np.zeros(c), np.zeros(c)
        for j in nan_cols.tolist():
            g_miss[j] = gs[last[j] + 1:n_rows[j], j].sum()
            h_miss[j] = hs[last[j] + 1:n_rows[j], j].sum()
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


def _node_splits(Xp: np.ndarray, gp: np.ndarray, hp: np.ndarray,
                 rows: list[np.ndarray], candidates: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Best split of each of k nodes in one padded `_best_splits` call.

    `Xp`, `gp` and `hp` end in a pad row (NaN, 0, 0). Node i holds `rows[i]`
    and scores the ascending columns `candidates[i]` of the (k, w) array.
    Returns per node (gain, threshold, missing_left, feature) of its first
    column of highest gain; gain is -inf where the node has no split.
    """
    k, w = candidates.shape
    sizes = np.array([r.size for r in rows])
    at = np.full((sizes.max(), k), Xp.shape[0] - 1)
    for i, r in enumerate(rows):
        at[:r.size, i] = r
    at = np.repeat(at, w, axis=1)
    gain, cut, miss_left = _best_splits(Xp[at, candidates.ravel()], gp[at], hp[at],
                                        np.repeat(sizes, w))
    pick = np.arange(k) * w + gain.reshape(k, w).argmax(axis=1)
    return gain[pick], cut[pick], miss_left[pick], candidates.ravel()[pick]


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
        """One tree of `grow_trees`."""
        return grow_trees(X, g, h, params, [rng])[0]

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


class _Growth:
    """One tree while it grows: its open nodes, and its nodes in the order made."""

    def __init__(self, rng: np.random.Generator, n_rows: int):
        self.rng = rng
        self.stack = [(np.arange(n_rows), 0, -1, True)]   # (rows, depth, parent, is_left)
        self.nodes: list[_Node] = []
        self.left: list[int] = []
        self.right: list[int] = []

    def add(self, parent: int, is_left: bool, node: _Node) -> int:
        """Append `node` as a child of `parent` (-1 for the root); returns its
        number."""
        number = len(self.nodes)
        if parent >= 0:
            (self.left if is_left else self.right)[parent] = number
        self.nodes.append(node)
        self.left.append(-1)
        self.right.append(-1)
        return number

    def tree(self, n_features: int) -> Tree:
        """The tree with its nodes renumbered in preorder (a split, then its
        left subtree, then its right subtree), and its split gains summed per
        feature in that order."""
        order, stack = [], [0]
        while stack:
            node = stack.pop()
            order.append(node)
            if self.left[node] >= 0:
                stack += (self.right[node], self.left[node])
        feature, threshold, missing_left, value, gain = (
            np.asarray(column)[order] for column in zip(*self.nodes))
        gains = np.zeros(n_features)
        for f, f_gain in zip(feature.tolist(), gain.tolist()):
            if f >= 0:
                gains[f] += f_gain
        number = np.empty(len(order), dtype=np.int32)
        number[order] = np.arange(len(order))
        left, right = np.asarray(self.left)[order], np.asarray(self.right)[order]
        return Tree(
            feature=feature.astype(np.int32),
            threshold=threshold,
            missing_left=missing_left,
            left=np.where(left >= 0, number[left], -1).astype(np.int32),
            right=np.where(right >= 0, number[right], -1).astype(np.int32),
            value=value,
            root=0,
            feature_gains=gains,
        )


def grow_trees(X: np.ndarray, g: np.ndarray, h: np.ndarray, params: TreeParams,
               rngs: list[np.random.Generator]) -> list[Tree]:
    """Grow one tree per generator on the same targets, all at once.

    Each step takes open nodes from every tree and scores all of them in one
    `_node_splits` call. A tree that draws feature candidates takes one node
    from its own stack per step, so its `rng.choice` calls come in preorder;
    a tree that draws nothing takes every open node, level by level. Only
    depth stops a node before the split search: row-count shortcuts would
    consume the RNG differently for weighted data and its expanded-duplicate
    equivalent.
    """
    n, n_feat = X.shape
    draws = params.mtry is not None and params.mtry < n_feat
    every = np.arange(n_feat)
    Xp = np.vstack([X, np.full((1, n_feat), np.nan)])
    gp, hp = np.append(g, 0.0), np.append(h, 0.0)

    def leaf(rows: np.ndarray) -> _Node:
        value = float(g[rows].sum()) / max(float(h[rows].sum()), _MIN_HESSIAN)
        return -1, 0.0, True, value, 0.0

    trees = [_Growth(rng, n) for rng in rngs]
    while True:
        batch = []   # (tree, rows, depth, parent, is_left, candidates)
        for tree in trees:
            while tree.stack:
                rows, depth, parent, is_left = tree.stack.pop()
                if depth >= params.max_depth:
                    tree.add(parent, is_left, leaf(rows))
                    continue
                candidates = (np.sort(tree.rng.choice(n_feat, size=params.mtry, replace=False))
                              if draws else every)
                batch.append((tree, rows, depth, parent, is_left, candidates))
                if draws:
                    break
        if not batch:
            return [tree.tree(n_feat) for tree in trees]
        gain, cut, miss_left, feature = _node_splits(
            Xp, gp, hp, [b[1] for b in batch], np.array([b[5] for b in batch]))
        for (tree, rows, depth, parent, is_left, _), f_gain, f_cut, f_left, f in zip(
                batch, gain.tolist(), cut.tolist(), miss_left.tolist(), feature.tolist()):
            if f_gain == -np.inf:
                tree.add(parent, is_left, leaf(rows))
                continue
            node = tree.add(parent, is_left, (f, f_cut, f_left, 0.0, f_gain))
            col = X[rows, f]
            # NaN compares false, so missing rows go left exactly when f_left.
            go_left = ~(col >= f_cut) if f_left else col < f_cut
            # Right is pushed first so that a tree taking one node per step
            # opens the left subtree next.
            tree.stack.append((rows[~go_left], depth + 1, node, False))
            tree.stack.append((rows[go_left], depth + 1, node, True))

"""Random forest and gradient boosting with weights and missing values.

Forests draw their randomness from per-split feature subsampling and train
every tree on the full dataset (no bootstrap), which keeps integer-weighted
training exactly equivalent to training on expanded duplicate rows. Boosting
minimizes logistic loss with Newton leaf values and supports early stopping
against a validation split.

Model selection runs a grid search ranked by pooled out-of-fold AUC under
stratified k-fold cross-validation, after an initial stratified 80/20
train/validation split. The folds of one cross-validation are fitted in
worker processes (`core.windowing.process_map`, up to ZIS_THREADS of them);
each fold's fit draws only from its own seed and its predictions are
gathered in fold order, so the result is exact under any worker count.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from ziskit.core.windowing import process_map
from ziskit.errors import DegenerateLabels, IncompatibleRow, ParseError
from ziskit.evaluation import auc
from ziskit.ml.folds import stratified_folds
from ziskit.ml.tree import Tree, TreeParams, grow_trees

DEFAULT_SEED = 1619
DEFAULT_EARLY_STOP_ROUNDS = 5
# Share of each class held out of training; boosting stops early against it.
VALIDATION_FRACTION = 0.2
_PRIOR_CLIP = 1e-6


@dataclass(frozen=True)
class MLDataset:
    """Feature matrix with binary labels and positive instance weights.

    Missing feature slots are NaN.
    """

    X: np.ndarray
    y: np.ndarray
    weights: np.ndarray | None = None
    feature_names: tuple[str, ...] | None = None

    def __post_init__(self):
        X = np.asarray(self.X, dtype=np.float64)
        y = np.asarray(self.y).astype(np.uint8)
        if X.ndim != 2 or y.shape != (X.shape[0],):
            raise ValueError("X must be (n, d) and y must be (n,)")
        w = (np.ones(X.shape[0]) if self.weights is None
             else np.asarray(self.weights, dtype=np.float64))
        if w.shape != y.shape or np.any(w <= 0):
            raise ValueError("weights must be positive and one per row")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "weights", w)

    def require_both_classes(self) -> None:
        if np.unique(self.y).size < 2:
            raise DegenerateLabels("training data contains a single class")

    def subset(self, idx: np.ndarray) -> "MLDataset":
        return MLDataset(self.X[idx], self.y[idx], self.weights[idx], self.feature_names)


@dataclass(frozen=True)
class ModelParams:
    kind: str                     # "forest" | "boosting"
    n_trees: int = 100
    max_depth: int = 8
    learning_rate: float = 0.3    # boosting only


GRID_FULL: tuple[ModelParams, ...] = tuple(
    [ModelParams("forest", n, d) for n in (50, 100, 200) for d in (4, 8, 16)]
    + [ModelParams("boosting", n, d, lr)
       for n in (50, 100, 200) for d in (4, 8, 16) for lr in (0.1, 0.3)]
)

GRID_SMALL: tuple[ModelParams, ...] = (
    ModelParams("forest", 50, 8),
    ModelParams("boosting", 50, 8, 0.3),
)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -30.0, 30.0)))


@dataclass
class TrainedModel:
    params: ModelParams
    trees: list[Tree]
    n_features: int
    prior: float
    base_score: float       # logit units, used by boosting
    seed: int
    feature_importances: np.ndarray   # normalized split-gain totals; sums to 1
    cv_auc: float | None = None
    feature_names: tuple[str, ...] | None = None

    @property
    def kind(self) -> str:
        return self.params.kind

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Ensemble probability of the positive class per row."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.shape[1] != self.n_features:
            raise IncompatibleRow(
                f"model expects {self.n_features} features, got {X.shape[1]}")
        if self.kind == "forest":
            if not self.trees:
                proba = np.full(X.shape[0], self.prior)
            else:
                proba = np.mean([t.predict(X) for t in self.trees], axis=0)
                proba = np.clip(proba, 0.0, 1.0)
        else:
            margin = np.full(X.shape[0], self.base_score)
            for tree in self.trees:
                margin += self.params.learning_rate * tree.predict(X)
            proba = _sigmoid(margin)
        # Rows with every slot missing fall back to the training prior.
        all_missing = np.isnan(X).all(axis=1)
        proba[all_missing] = self.prior
        return proba

    def to_json(self) -> str:
        doc = {
            "kind": self.kind,
            "params": asdict(self.params),
            "n_features": self.n_features,
            "prior": self.prior,
            "base_score": self.base_score,
            "seed": self.seed,
            "cv_auc": self.cv_auc,
            "feature_names": list(self.feature_names) if self.feature_names else None,
            "feature_importances": self.feature_importances.tolist(),
            "trees": [t.to_dict() for t in self.trees],
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str | bytes, path: str | None = None) -> "TrainedModel":
        """Parse `to_json` output; ParseError (naming `path`) on a malformed model."""
        try:
            doc = json.loads(text, parse_float=_finite_float, parse_constant=_finite_float)
            params = ModelParams(**doc["params"])
            if params.kind not in ("forest", "boosting"):
                raise ValueError(f"unknown model kind {params.kind!r}")
            n_features = int(doc["n_features"])
            return cls(
                params=replace(params, learning_rate=_finite_float(params.learning_rate)),
                trees=[Tree.from_dict(t, n_features) for t in doc["trees"]],
                n_features=n_features,
                prior=_finite_float(doc["prior"]),
                base_score=_finite_float(doc["base_score"]),
                seed=int(doc["seed"]),
                feature_importances=np.asarray(doc["feature_importances"], dtype=np.float64),
                cv_auc=doc["cv_auc"],
                feature_names=tuple(doc["feature_names"]) if doc["feature_names"] else None,
            )
        except (ValueError, KeyError, TypeError, OverflowError) as exc:
            raise ParseError(f"bad model file: {exc!r}", path=path) from exc


def _finite_float(literal) -> float:
    """float(literal), refusing NaN and the infinities, which no model holds.

    It is the `json.loads` hook for number literals with a fraction or exponent
    (one that overflows, such as 1e999, would read as infinity) and for NaN,
    Infinity and -Infinity, and it converts a model's scalar parameters.
    """
    value = float(literal)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {literal}")
    return value


def _tree_params(params: ModelParams, n_features: int) -> TreeParams:
    if params.kind == "forest":
        mtry = max(1, int(round(np.sqrt(n_features))))
    else:
        mtry = None
    return TreeParams(max_depth=params.max_depth, mtry=mtry)


def _weighted_prior(data: MLDataset) -> float:
    return float(np.sum(data.weights * data.y) / np.sum(data.weights))


def _normalized_gains(trees: list[Tree], n_features: int) -> np.ndarray:
    gains = np.zeros(n_features)
    for tree in trees:
        gains += tree.feature_gains
    total = gains.sum()
    if total <= 0:
        return np.full(n_features, 1.0 / n_features)
    return gains / total


def fit_model(data: MLDataset, params: ModelParams, seed: int = DEFAULT_SEED,
              valid: MLDataset | None = None,
              early_stop_rounds: int = DEFAULT_EARLY_STOP_ROUNDS) -> TrainedModel:
    """Fit one model with fixed hyperparameters.

    Boosting stops early when the validation AUC has not improved for
    `early_stop_rounds` rounds (only when `valid` is given); forests always
    train the full tree count.
    """
    data.require_both_classes()
    n, d = data.X.shape
    rng = np.random.default_rng(seed)
    prior = _weighted_prior(data)
    tparams = _tree_params(params, d)
    if params.kind == "forest":
        g = data.weights * data.y.astype(np.float64)
        h = data.weights.copy()
        trees = grow_trees(data.X, g, h, tparams, rng.spawn(params.n_trees))
        return TrainedModel(params=params, trees=trees, n_features=d, prior=prior,
                            base_score=0.0, seed=seed,
                            feature_importances=_normalized_gains(trees, d),
                            feature_names=data.feature_names)
    if params.kind != "boosting":
        raise ValueError(f"unknown model kind {params.kind!r}")
    p0 = min(max(prior, _PRIOR_CLIP), 1.0 - _PRIOR_CLIP)
    base = float(np.log(p0 / (1.0 - p0)))
    margin = np.full(n, base)
    trees: list[Tree] = []
    best_auc, best_len, since_best = -np.inf, 0, 0
    child_rngs = rng.spawn(params.n_trees)
    val_margin = np.full(valid.X.shape[0], base) if valid is not None else None
    for m in range(params.n_trees):
        p = _sigmoid(margin)
        g = data.weights * (data.y - p)
        h = np.maximum(data.weights * p * (1.0 - p), 1e-12)
        tree = Tree.fit(data.X, g, h, tparams, child_rngs[m])
        trees.append(tree)
        margin += params.learning_rate * tree.predict(data.X)
        if valid is None:
            continue
        val_margin += params.learning_rate * tree.predict(valid.X)
        try:
            val_auc = auc(_sigmoid(val_margin), valid.y, valid.weights)
        except DegenerateLabels:
            continue
        if val_auc > best_auc + 1e-12:
            best_auc, best_len, since_best = val_auc, len(trees), 0
        else:
            since_best += 1
            if since_best >= early_stop_rounds:
                trees = trees[:best_len]
                break
    return TrainedModel(params=params, trees=trees, n_features=d, prior=prior,
                        base_score=base, seed=seed,
                        feature_importances=_normalized_gains(trees, d),
                        feature_names=data.feature_names)


def _fold_scores(task: tuple) -> np.ndarray:
    """Held-out predictions of one cross-validation fold."""
    data, params, seed, hold = task
    model = fit_model(data.subset(~hold), params, seed=seed)
    return model.predict(data.X[hold])


def oof_predictions(data: MLDataset, params: ModelParams, seed: int = DEFAULT_SEED,
                    k: int = 10) -> np.ndarray:
    """Out-of-fold predictions under stratified k-fold cross-validation.

    Each fold's fit is seeded alone, so the folds run through `process_map`
    and give the same bytes under any ZIS_THREADS.
    """
    folds = stratified_folds(data.y, k, seed)
    holds = [folds == fold for fold in range(k)]
    scores = np.empty(data.X.shape[0])
    fold_scores = process_map(_fold_scores, [(data, params, seed, hold) for hold in holds])
    for hold, held_out in zip(holds, fold_scores):
        scores[hold] = held_out
    return scores


def train_val_split(data: MLDataset, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Stratified row-index split; validation gets ~VALIDATION_FRACTION per class."""
    rng = np.random.default_rng(seed)
    val_mask = np.zeros(data.y.size, dtype=bool)
    for cls in np.unique(data.y):
        idx = np.nonzero(data.y == cls)[0]
        idx = idx[rng.permutation(idx.size)]
        n_val = int(np.floor(VALIDATION_FRACTION * idx.size))
        val_mask[idx[:n_val]] = True
    return np.nonzero(~val_mask)[0], np.nonzero(val_mask)[0]


def train(data: MLDataset, kind: str = "auto",
          grid: tuple[ModelParams, ...] | None = None, seed: int = DEFAULT_SEED,
          early_stop_rounds: int = DEFAULT_EARLY_STOP_ROUNDS, cv_folds: int = 10
          ) -> TrainedModel:
    """Grid search by cross-validated AUC, then a final early-stopped fit.

    The data is first split 80/20 into training and validation; each grid
    point is ranked by pooled out-of-fold AUC of stratified `cv_folds`-fold
    cross-validation on the training part. The winning configuration is
    refit on the training part (boosting stops early against the validation
    part) and carries its CV AUC.
    """
    data.require_both_classes()
    if grid is None:
        grid = GRID_FULL
    if kind != "auto":
        grid = tuple(p for p in grid if p.kind == kind)
        if not grid:
            raise ValueError(f"grid contains no {kind!r} configurations")
    train_idx, val_idx = train_val_split(data, seed)
    train_part = data.subset(train_idx)
    valid_part = data.subset(val_idx) if val_idx.size else None
    train_part.require_both_classes()
    best: tuple[float, int, ModelParams] | None = None
    for order, params in enumerate(grid):
        scores = oof_predictions(train_part, params, seed=seed, k=cv_folds)
        cv_auc = auc(scores, train_part.y, train_part.weights)
        if best is None or cv_auc > best[0]:
            best = (cv_auc, order, params)
    cv_auc, _, params = best
    model = fit_model(train_part, params, seed=seed, valid=valid_part,
                      early_stop_rounds=early_stop_rounds)
    model.cv_auc = float(cv_auc)
    return model

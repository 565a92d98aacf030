import concurrent.futures
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import fit_tree_per_node
from ziskit.core import windowing
from ziskit.errors import DegenerateLabels, IncompatibleRow, InfeasibleStratification
from ziskit.evaluation import auc
from ziskit.ml import tree as tree_module
from ziskit.ml.ensemble import (
    GRID_SMALL,
    MLDataset,
    ModelParams,
    TrainedModel,
    fit_model,
    oof_predictions,
    train,
)
from ziskit.ml.folds import stratified_folds
from ziskit.ml.tree import _MIN_GAIN, _MIN_HESSIAN, Tree, TreeParams, _best_splits, grow_trees


def auc_pair_oracle(scores, labels, weights=None):
    """O(n^2) pairwise enumeration with ties counted half."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels).astype(int)
    weights = np.ones_like(scores) if weights is None else np.asarray(weights, float)
    total = w_sum = 0.0
    for i in np.nonzero(labels == 1)[0]:
        for j in np.nonzero(labels == 0)[0]:
            w = weights[i] * weights[j]
            w_sum += w
            if scores[i] > scores[j]:
                total += w
            elif scores[i] == scores[j]:
                total += 0.5 * w
    return total / w_sum


def reference_auc(scores, labels, weights=None):
    """The tie loop that `auc` replaced: one group of equal scores at a time."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels).astype(int)
    weights = np.ones_like(scores) if weights is None else np.asarray(weights, dtype=np.float64)
    w_pos = float(weights[labels == 1].sum())
    w_neg = float(weights[labels == 0].sum())
    order = np.argsort(scores, kind="stable")
    s = scores[order]
    w = weights[order]
    pos = (labels[order] == 1).astype(np.float64) * w
    neg = (labels[order] == 0).astype(np.float64) * w
    total = 0.0
    cum_neg = 0.0
    i = 0
    n = s.size
    while i < n:
        j = i
        while j < n and s[j] == s[i]:
            j += 1
        tie_pos = float(pos[i:j].sum())
        tie_neg = float(neg[i:j].sum())
        total += tie_pos * (cum_neg + 0.5 * tie_neg)
        cum_neg += tie_neg
        i = j
    return total / (w_pos * w_neg)


def tie_heavy_corpus(rng, n):
    """Scores on a coarse grid, both classes present, integer weights."""
    scores = rng.integers(0, rng.integers(1, 12), size=n) / 7.0
    labels = rng.integers(0, 2, size=n)
    labels[:2] = (0, 1)
    weights = rng.integers(1, 40, size=n).astype(float)
    return scores, labels, weights


class TestAucMatchesReference:
    def test_tie_heavy_integer_weights(self, rng):
        for _ in range(300):
            scores, labels, weights = tie_heavy_corpus(rng, int(rng.integers(2, 400)))
            assert auc(scores, labels) == reference_auc(scores, labels)
            assert auc(scores, labels, weights) == reference_auc(scores, labels, weights)

    def test_float_weights_within_rounding(self, rng):
        for _ in range(100):
            scores, labels, _ = tie_heavy_corpus(rng, int(rng.integers(2, 400)))
            weights = rng.uniform(0.1, 5.0, size=scores.size)
            assert auc(scores, labels, weights) == pytest.approx(
                reference_auc(scores, labels, weights), rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(data=st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False),
                                   st.integers(0, 1), st.integers(1, 1000)),
                         min_size=2, max_size=60))
    def test_hypothesis_inputs(self, data):
        scores, labels, weights = (np.array(col) for col in zip(*data))
        labels[:2] = (1, 0)
        assert auc(scores, labels, weights) == reference_auc(scores, labels, weights)


class TestAuc:
    def test_perfectly_ordered(self):
        assert auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_reversed(self):
        assert auc([0.9, 0.8, 0.1, 0.2], [0, 0, 1, 1]) == 0.0

    def test_hand_counted_example(self):
        # pairs: (0.35 vs 0.1 ok, 0.35 vs 0.4 no, 0.8 vs 0.1 ok, 0.8 vs 0.4 ok)
        assert auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == pytest.approx(0.75)

    def test_matches_pair_oracle_with_ties_and_weights(self, rng):
        for _ in range(20):
            scores = rng.integers(0, 6, size=30) / 5.0
            labels = rng.integers(0, 2, size=30)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            weights = rng.integers(1, 4, size=30).astype(float)
            assert auc(scores, labels, weights) == pytest.approx(
                auc_pair_oracle(scores, labels, weights))

    def test_monotone_transform_invariance(self, rng):
        scores = rng.normal(size=50)
        labels = rng.integers(0, 2, size=50)
        labels[0], labels[1] = 0, 1
        base = auc(scores, labels)
        assert auc(np.exp(scores), labels) == pytest.approx(base)
        assert auc(3 * scores + 7, labels) == pytest.approx(base)

    def test_single_class_raises(self):
        with pytest.raises(DegenerateLabels):
            auc([0.1, 0.2], [1, 1])


class TestStratifiedFolds:
    def test_balanced_classes_split_evenly(self):
        labels = np.array([0] * 50 + [1] * 50)
        folds = stratified_folds(labels, 10, seed=1)
        for k in range(10):
            mask = folds == k
            assert mask.sum() == 10
            assert labels[mask].sum() == 5

    def test_imbalanced_90_10(self):
        labels = np.array([0] * 90 + [1] * 10)
        folds = stratified_folds(labels, 10, seed=1)
        for k in range(10):
            mask = folds == k
            assert mask.sum() == 10
            assert labels[mask].sum() == 1

    def test_seed_reproducibility(self):
        labels = np.array([0, 1] * 30)
        a = stratified_folds(labels, 5, seed=42)
        b = stratified_folds(labels, 5, seed=42)
        np.testing.assert_array_equal(a, b)
        c = stratified_folds(labels, 5, seed=43)
        assert not np.array_equal(a, c)

    def test_class_too_small(self):
        labels = np.array([0] * 20 + [1] * 3)
        with pytest.raises(InfeasibleStratification):
            stratified_folds(labels, 5, seed=0)


def separable_dataset(n=60, rng=None):
    rng = rng or np.random.default_rng(0)
    X = rng.normal(size=(n, 2))
    y = (X[:, 0] > 0).astype(np.uint8)
    if y.min() == y.max():
        y[0] = 1 - y[0]
    return MLDataset(X, y)


class TestFitModel:
    def test_separable_forest_perfect_cv(self):
        data = separable_dataset(80)
        scores = oof_predictions(data, ModelParams("forest", 20, 6), k=5)
        assert auc(scores, data.y.astype(int)) == 1.0

    def test_separable_boosting_perfect_cv(self):
        data = separable_dataset(80)
        scores = oof_predictions(data, ModelParams("boosting", 30, 3, 0.3), k=5)
        assert auc(scores, data.y.astype(int)) == 1.0

    def test_pure_leaf_predictions_hit_bounds(self):
        X = np.array([[0.0], [0.0], [1.0], [1.0]])
        y = np.array([0, 0, 1, 1], dtype=np.uint8)
        model = fit_model(MLDataset(X, y), ModelParams("forest", 5, 3), seed=0)
        preds = model.predict(X)
        assert preds[0] == 0.0 and preds[-1] == 1.0

    def test_stump_matches_brute_force_rule(self):
        # depth-1 tree on a clean threshold at 0.5
        X = np.linspace(0, 1, 200).reshape(-1, 1)
        y = (X[:, 0] > 0.5).astype(np.uint8)
        model = fit_model(MLDataset(X, y), ModelParams("forest", 1, 1), seed=3)
        grid = np.linspace(-0.2, 1.2, 1000).reshape(-1, 1)
        got = model.predict(grid)
        expected = (grid[:, 0] > 0.5).astype(float)
        # threshold sits at the midpoint between the classes' border samples
        cut = model.trees[0].threshold[model.trees[0].root]
        assert cut == pytest.approx(0.5, abs=0.01)
        np.testing.assert_array_equal(got, (grid[:, 0] >= cut).astype(float))
        assert np.mean(got == expected) > 0.99

    def test_weighted_equals_expanded_forest(self, rng):
        X = rng.normal(size=(40, 3))
        y = rng.integers(0, 2, size=40).astype(np.uint8)
        y[:2] = [0, 1]
        weights = rng.integers(1, 5, size=40)
        weighted = MLDataset(X, y, weights.astype(float))
        X_exp = np.repeat(X, weights, axis=0)
        y_exp = np.repeat(y, weights)
        expanded = MLDataset(X_exp, y_exp)
        params = ModelParams("forest", 10, 5)
        m_w = fit_model(weighted, params, seed=11)
        m_e = fit_model(expanded, params, seed=11)
        probe = rng.normal(size=(50, 3))
        np.testing.assert_array_equal(m_w.predict(probe), m_e.predict(probe))

    def test_weighted_close_to_expanded_boosting(self, rng):
        # Boosting equivalence is mathematical, not bitwise: summing w
        # duplicates vs multiplying by w drifts margins by ~1 ulp per round,
        # which can flip near-tie splits on pure-noise data. A separable set
        # with few rounds stays structurally stable.
        X = rng.normal(size=(30, 2))
        y = (X[:, 0] > 0).astype(np.uint8)
        y[:2] = [0, 1]
        weights = rng.integers(1, 4, size=30)
        params = ModelParams("boosting", 5, 3, 0.3)
        m_w = fit_model(MLDataset(X, y, weights.astype(float)), params, seed=7)
        m_e = fit_model(MLDataset(np.repeat(X, weights, axis=0), np.repeat(y, weights)),
                        params, seed=7)
        probe = rng.normal(size=(20, 2))
        np.testing.assert_allclose(m_w.predict(probe), m_e.predict(probe), atol=1e-9)

    def test_all_missing_row_gets_prior(self, rng):
        data = separable_dataset(50, rng)
        model = fit_model(data, ModelParams("forest", 10, 4), seed=0)
        pred = model.predict(np.array([[np.nan, np.nan]]))
        assert pred[0] == pytest.approx(model.prior)

    def test_missing_values_routed_to_majority_child(self):
        # Tree-level check: the split sends NaN to the heavier child.
        from ziskit.ml.tree import Tree, TreeParams

        X = np.array([[0.0], [0.1], [1.0], [1.1], [1.2], [1.3]])
        y = np.array([0, 0, 1, 1, 1, 1], dtype=float)
        tree = Tree.fit(X, y, np.ones(6), TreeParams(max_depth=2, mtry=None),
                        np.random.default_rng(0))
        assert not tree.missing_left[tree.root]  # right side carries 4 of 6 rows
        assert tree.predict(np.array([[np.nan]]))[0] == 1.0
        # flip the balance: heavier side is now the label-0 left child
        y2 = np.array([0, 0, 0, 0, 1, 1], dtype=float)
        X2 = np.array([[0.0], [0.1], [0.2], [0.3], [1.2], [1.3]])
        tree2 = Tree.fit(X2, y2, np.ones(6), TreeParams(max_depth=2, mtry=None),
                         np.random.default_rng(0))
        assert tree2.missing_left[tree2.root]
        assert tree2.predict(np.array([[np.nan]]))[0] == 0.0

    def test_training_with_nan_features(self, rng):
        X = rng.normal(size=(60, 3))
        y = (X[:, 0] > 0).astype(np.uint8)
        X[rng.random(size=X.shape) < 0.2] = np.nan
        y[0], y[1] = 0, 1
        model = fit_model(MLDataset(X, y), ModelParams("forest", 10, 4), seed=0)
        preds = model.predict(X)
        assert np.all((preds >= 0) & (preds <= 1))

    def test_single_class_raises(self):
        X = np.zeros((10, 2))
        y = np.ones(10, dtype=np.uint8)
        with pytest.raises(DegenerateLabels):
            fit_model(MLDataset(X, y), ModelParams("forest"), seed=0)

    def test_arity_mismatch_raises(self):
        data = separable_dataset(30)
        model = fit_model(data, ModelParams("forest", 5, 3), seed=0)
        with pytest.raises(IncompatibleRow):
            model.predict(np.zeros((2, 5)))

    def test_feature_importances_normalized(self, rng):
        data = separable_dataset(60, rng)
        model = fit_model(data, ModelParams("forest", 10, 4), seed=0)
        imp = model.feature_importances
        assert imp.shape == (2,)
        assert np.all(imp >= 0)
        assert imp.sum() == pytest.approx(1.0, abs=1e-9)
        # feature 0 carries the signal
        assert imp[0] > imp[1]

    def test_row_permutation_invariance(self, rng):
        X = rng.normal(size=(50, 3))
        y = rng.integers(0, 2, size=50).astype(np.uint8)
        y[:2] = [0, 1]
        params = ModelParams("forest", 8, 4)
        base = fit_model(MLDataset(X, y), params, seed=5)
        perm = rng.permutation(50)
        permuted = fit_model(MLDataset(X[perm], y[perm]), params, seed=5)
        probe = rng.normal(size=(40, 3))
        np.testing.assert_array_equal(base.predict(probe), permuted.predict(probe))

    def test_feature_column_permutation_invariance(self, rng):
        # Boosting considers every feature, so swapping columns together with
        # the query columns cannot change the fitted function. Shallow trees
        # on enough rows keep split gains tie-free (tiny deep nodes can be
        # separated equally well by several features, where column order
        # breaks the tie).
        X = rng.normal(size=(200, 3))
        y = rng.integers(0, 2, size=200).astype(np.uint8)
        y[:2] = [0, 1]
        params = ModelParams("boosting", 8, 2, 0.3)
        base = fit_model(MLDataset(X, y), params, seed=5)
        order = [2, 0, 1]
        permuted = fit_model(MLDataset(X[:, order], y), params, seed=5)
        probe = rng.normal(size=(40, 3))
        np.testing.assert_allclose(base.predict(probe),
                                   permuted.predict(probe[:, order]), atol=1e-12)

    def test_early_stopping_truncates_boosting(self, rng):
        data = separable_dataset(100, rng)
        idx = np.arange(80)
        model = fit_model(data.subset(idx), ModelParams("boosting", 200, 3, 0.3),
                          seed=0, valid=data.subset(np.arange(80, 100)),
                          early_stop_rounds=3)
        assert len(model.trees) < 200


class TestTrain:
    def test_train_selects_and_reports_cv_auc(self):
        data = separable_dataset(120)
        model = train(data, grid=GRID_SMALL, cv_folds=5)
        assert model.cv_auc == 1.0

    def test_byte_identical_models_for_same_seed(self):
        data = separable_dataset(90)
        m1 = train(data, grid=GRID_SMALL, cv_folds=5, seed=1619)
        m2 = train(data, grid=GRID_SMALL, cv_folds=5, seed=1619)
        assert m1.to_json() == m2.to_json()

    def test_seed_changes_model(self):
        data = separable_dataset(90)
        m1 = train(data, grid=GRID_SMALL, cv_folds=5, seed=1619)
        m2 = train(data, grid=GRID_SMALL, cv_folds=5, seed=1620)
        assert m1.to_json() != m2.to_json()

    def test_label_permutation_null_auc(self, rng):
        # Features carry no signal: mean CV AUC over shuffles stays near 0.5.
        X = rng.normal(size=(100, 2))
        params = ModelParams("forest", 10, 3)
        aucs = []
        for _ in range(20):
            y = rng.permutation([0] * 50 + [1] * 50).astype(np.uint8)
            scores = oof_predictions(MLDataset(X, y), params, k=5)
            aucs.append(auc(scores, y.astype(int)))
        assert 0.4 <= float(np.mean(aucs)) <= 0.6

    def test_kind_filter(self):
        data = separable_dataset(90)
        model = train(data, kind="boosting", grid=GRID_SMALL, cv_folds=5)
        assert model.kind == "boosting"

    def test_serialization_round_trip(self, rng):
        data = separable_dataset(70, rng)
        model = train(data, grid=GRID_SMALL, cv_folds=5)
        restored = TrainedModel.from_json(model.to_json())
        probe = rng.normal(size=(30, 2))
        np.testing.assert_array_equal(model.predict(probe), restored.predict(probe))
        assert restored.to_json() == model.to_json()


def tie_weighted_dataset(with_nan: bool = True) -> MLDataset:
    """Coarse values (many ties), integer weights and, unless `with_nan` is
    false, ~15% NaN slots; both variants draw the same random stream."""
    rng = np.random.default_rng(2024)
    X = np.round(rng.normal(size=(150, 4)), 1)
    y = (X[:, 0] + 0.5 * X[:, 1] + rng.normal(scale=0.8, size=150) > 0).astype(np.uint8)
    missing = rng.random(size=X.shape) < 0.15
    if with_nan:
        X[missing] = np.nan
        X[:3] = np.nan
    weights = rng.integers(1, 5, size=150).astype(float)
    return MLDataset(X, y, weights)


class TestGoldenModels:
    # Digests recorded before tree growth became iterative; any change to
    # node order, split choice, NaN routing or per-node RNG draws moves them.
    # The early-stopped boosting model also pins importances of a truncated
    # ensemble. These models were recorded while NaN-bearing columns took a
    # per-feature split search; one sorted pass over all columns must match.
    @pytest.mark.parametrize("params, early_stop, model_sha, predict_sha", [
        (ModelParams("forest", 12, 6), False,
         "e266a553f7ed8a0afa3e174b3a9bb5dc87d4e681ea96bda9a6864d9df80e825f",
         "3995ccc7862759cdd8f6d480b28b90cad1821430396a73e21fa5ef5246f9b886"),
        (ModelParams("boosting", 12, 4, 0.3), False,
         "aa23c9ae598d6c59326ca6376ed6ffa495a824cb9fb44b247b4280ee2fe29e82",
         "6dd75a2a743a538d8f1ae20d6b393ca79b469f6b125947f8d4e8576d09683770"),
        (ModelParams("boosting", 60, 3, 0.3), True,
         "c7a2e971d7e0e478b3f2ffb8f49e6cc148c0ec414ea40849f844fe5720afb668",
         "8330a5cdf44a51bf56ad6a4dfd152fa51be1dd37bbc716bdcc6b28f441d50b3b"),
    ])
    def test_model_bytes_and_predictions(self, params, early_stop, model_sha, predict_sha):
        self.check_digests(tie_weighted_dataset(), params, early_stop, model_sha, predict_sha)

    # Recorded before splits were searched in one 2-D pass; every column of
    # this data is NaN-free.
    @pytest.mark.parametrize("params, model_sha, predict_sha", [
        (ModelParams("forest", 12, 6),
         "6da25068ec2f377458c98865950580d8874b5810f14a049688838efb05edbd4b",
         "e42c0ae571b79f073fe09512682c9fa91f5269df8d5e8839233c880c2055b4e4"),
        (ModelParams("boosting", 12, 4, 0.3),
         "94c954a80ebf1f9222e51c20004de614ca27550b0bd9d6c7bd30548fc477857c",
         "bad57b4e26c28f5e553f8861179a31c6cc81bc30478cd0b1779d308dad1e4d36"),
    ])
    def test_nan_free_model_bytes_and_predictions(self, params, model_sha, predict_sha):
        data = tie_weighted_dataset(with_nan=False)
        self.check_digests(data, params, False, model_sha, predict_sha)

    @staticmethod
    def check_digests(data, params, early_stop, model_sha, predict_sha):
        fit_rows = np.arange(110) if early_stop else np.arange(150)
        valid = data.subset(np.arange(110, 150)) if early_stop else None
        model = fit_model(data.subset(fit_rows), params, seed=77, valid=valid,
                          early_stop_rounds=3)
        if early_stop:
            assert len(model.trees) < params.n_trees
        probe = np.vstack([data.X, np.round(np.random.default_rng(5).normal(size=(40, 4)), 1)])
        probe[-1, 2] = np.nan
        preds = model.predict(probe)
        assert hashlib.sha256(model.to_json().encode()).hexdigest() == model_sha
        assert hashlib.sha256(preds.tobytes()).hexdigest() == predict_sha

    def test_predict_matches_row_by_row_walk(self):
        # Tree.predict gathers one flat index per active row; the walk below
        # follows one row at a time. A Fortran-ordered probe checks that the
        # gather does not depend on the layout of X.
        data = tie_weighted_dataset()
        model = fit_model(data, ModelParams("boosting", 12, 4, 0.3), seed=77)
        probe = np.asfortranarray(np.vstack([data.X, np.full((1, 4), np.nan)]))

        def walk(tree, row):
            node = tree.root
            while tree.feature[node] >= 0:
                value = row[tree.feature[node]]
                go_left = tree.missing_left[node] if np.isnan(value) \
                    else value < tree.threshold[node]
                node = tree.left[node] if go_left else tree.right[node]
            return tree.value[node]

        for tree in model.trees:
            expected = np.array([walk(tree, row) for row in probe])
            np.testing.assert_array_equal(tree.predict(probe), expected)


def _best_split_on_feature(col: np.ndarray, g: np.ndarray, h: np.ndarray
                           ) -> tuple[float, float, bool] | None:
    """Best (gain, threshold, missing_left) for one feature, or None."""
    miss = np.isnan(col)
    vals = col[~miss]
    if vals.size < 2:
        return None
    g_obs, h_obs = g[~miss], h[~miss]
    g_miss = float(g[miss].sum())
    h_miss = float(h[miss].sum())
    order = np.argsort(vals, kind="stable")
    vs = vals[order]
    cg = np.cumsum(g_obs[order])
    ch = np.cumsum(h_obs[order])
    cut = np.nonzero(vs[:-1] < vs[1:])[0]
    if cut.size == 0:
        return None
    g_tot = cg[-1] + g_miss
    h_tot = ch[-1] + h_miss
    gl, hl = cg[cut], ch[cut]
    gr, hr = cg[-1] - gl, ch[-1] - hl
    # Missing rows follow the heavier child (ties go left).
    to_left = hl >= hr
    gl_eff = gl + np.where(to_left, g_miss, 0.0)
    hl_eff = hl + np.where(to_left, h_miss, 0.0)
    gr_eff = gr + np.where(to_left, 0.0, g_miss)
    hr_eff = hr + np.where(to_left, 0.0, h_miss)
    parent = g_tot * g_tot / max(h_tot, _MIN_HESSIAN)
    with np.errstate(divide="ignore", invalid="ignore"):
        gain = (gl_eff * gl_eff / np.maximum(hl_eff, _MIN_HESSIAN)
                + gr_eff * gr_eff / np.maximum(hr_eff, _MIN_HESSIAN) - parent)
    gain = np.where((hl_eff <= 0) | (hr_eff <= 0), -np.inf, gain)
    best = int(np.argmax(gain))
    if not np.isfinite(gain[best]) or gain[best] <= _MIN_GAIN:
        return None
    threshold = 0.5 * (vs[cut[best]] + vs[cut[best] + 1])
    return float(gain[best]), float(threshold), bool(to_left[best])


def per_feature_splits(block, g, h, n_rows=None):
    """The per-feature search on each column alone, over its node's real rows,
    returned as `_best_splits` returns it."""
    m, c = block.shape
    n_rows = np.full(c, m) if n_rows is None else n_rows
    g, h = (np.broadcast_to(a.reshape(m, -1), block.shape) for a in (g, h))
    found = [_best_split_on_feature(block[:n, j], g[:n, j], h[:n, j]) or (-np.inf, 0.0, True)
             for j, n in enumerate(n_rows.tolist())]
    gain, threshold, missing_left = (np.array(a) for a in zip(*found))
    return gain, threshold, missing_left.astype(bool)


def with_nan(rng, block, frac):
    """A float copy of `block` with about `frac` of its cells NaN."""
    block = np.array(block, dtype=np.float64)
    block[rng.random(size=block.shape) < frac] = np.nan
    return block


class TestSplitSearch:
    """`_best_splits` equals `_best_split_on_feature` column by column, bit for bit."""

    @staticmethod
    def check(block, g, h):
        block, g, h = (np.asarray(a, dtype=np.float64) for a in (block, g, h))
        gain, threshold, missing_left = _best_splits(block, g, h)
        got = [(t, cut, left) if t > -np.inf else None for t, cut, left
               in zip(gain.tolist(), threshold.tolist(), missing_left.tolist())]
        assert got == [_best_split_on_feature(block[:, j], g, h)
                       for j in range(block.shape[1])]
        return got

    def test_tie_heavy_integer_columns(self, rng):
        found = 0
        for _ in range(300):
            n, c = int(rng.integers(2, 40)), int(rng.integers(1, 5))
            block = with_nan(rng, rng.integers(0, rng.integers(1, 6), size=(n, c)),
                             rng.choice([0.0, 0.2, 0.5]))
            w = rng.integers(1, 5, size=n).astype(float)
            y = rng.integers(0, 2, size=n)
            # Forest targets, then boosting gradients and hessians.
            found += sum(s is not None for s in self.check(block, w * y, w))
            p = rng.uniform(0.05, 0.95, size=n)
            self.check(block, w * (y - p), w * p * (1 - p))
        assert found > 100

    def test_float_weights_and_values(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 60))
            block = with_nan(rng, np.round(rng.normal(size=(n, 3)), int(rng.integers(0, 3))),
                             rng.choice([0.0, 0.3]))
            w = rng.uniform(0.1, 3.0, size=n)
            self.check(block, w * rng.integers(0, 2, size=n), w)

    def test_all_equal_columns_never_split(self, rng):
        block = np.column_stack([np.full(20, 1.5), rng.integers(0, 3, size=20),
                                 np.zeros(20)])
        y = (block[:, 1] > 0).astype(float)
        got = self.check(block, y, np.ones(20))
        assert got[0] is None and got[2] is None and got[1] is not None

    def test_all_nan_and_single_observed_columns_never_split(self):
        y = np.array([0, 0, 0, 1, 1, 1], dtype=float)
        one_seen = np.full(6, np.nan)
        one_seen[4] = 2.0
        block = np.column_stack([np.full(6, np.nan), one_seen, y])
        assert [s is None for s in self.check(block, y, np.ones(6))] == [True, True, False]

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_rows(self, n):
        assert self.check(np.zeros((n, 3)), np.ones(n), np.ones(n)) == [None] * 3
        assert self.check(np.full((n, 2), np.nan), np.ones(n), np.ones(n)) == [None] * 2

    def test_no_cut_reaches_min_gain(self, rng):
        block = rng.integers(0, 5, size=(30, 3))
        h = rng.integers(1, 4, size=30).astype(float)
        # A pure node (zero gradient) and one with a constant gradient share.
        assert self.check(block, np.zeros(30), h) == [None] * 3
        assert self.check(block, 0.5 * h, h) == [None] * 3
        assert self.check(with_nan(rng, block, 0.3), 0.5 * h, h) == [None] * 3

    def test_equal_hessian_cut_sends_missing_left(self):
        # The best cut leaves hl == hr, so missing rows would go left; the
        # second column's best cut has hl < hr.
        block = np.array([[0, 0], [1, 1], [2, 1], [3, 1], [4, 1], [5, 1]], dtype=float)
        y = np.array([0, 0, 0, 1, 1, 1], dtype=float)
        (gain, cut, left), (gain2, cut2, left2) = self.check(block, y, np.ones(6))
        assert (cut, left) == (2.5, True)
        assert (cut2, left2) == (0.5, False)

    def test_missing_rows_join_the_heavier_child(self):
        # Column 0: three observed rows on each side of the best cut, so the
        # two missing (negative) rows go left and the split stays pure.
        # Column 1's only cut leaves one observed row on the left, so the
        # missing rows go right.
        nan = np.nan
        block = np.array([[0, 0], [1, 1], [2, 1], [3, 1], [4, 1], [5, 1],
                          [nan, nan], [nan, nan]])
        y = np.array([0, 0, 0, 1, 1, 1, 0, 0], dtype=float)
        (_, cut, left), (_, cut2, left2) = self.check(block, y, np.ones(8))
        assert (cut, left) == (2.5, True)
        assert (cut2, left2) == (0.5, False)
        # Missing rows shift the gain: the same observed rows score differently.
        observed = self.check(block[:6], y[:6], np.ones(6))
        assert observed[0][0] != self.check(block, y, np.ones(8))[0][0]

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_hypothesis_blocks(self, data):
        n = data.draw(st.integers(0, 12))
        c = data.draw(st.integers(1, 4))
        cells = st.sampled_from([-2.0, -1.0, 0.0, 1.0, 2.0, np.nan])
        block = data.draw(st.lists(cells, min_size=n * c, max_size=n * c))
        g = data.draw(st.lists(st.floats(-4, 4), min_size=n, max_size=n))
        h = data.draw(st.lists(st.floats(0, 4), min_size=n, max_size=n))
        self.check(np.reshape(block, (n, c)), g, h)

    @pytest.mark.parametrize("nan_frac", [0.0, 0.3])
    def test_padded_block_scores_each_node_as_its_own_block(self, rng, nan_frac):
        # Nodes of 0, 1, 2 and 90 real rows (and some between), each with its
        # own rows and candidate columns, side by side in one block padded
        # below each node's rows with NaN and g = h = 0.
        values = rng.integers(0, 6, size=(90, 4))
        X = with_nan(rng, values, nan_frac)
        w = rng.integers(1, 5, size=90).astype(float)
        y = (values[:, 0] + values[:, 1] + rng.integers(0, 4, size=90) > 6).astype(float)
        p = rng.uniform(0.05, 0.95, size=90)
        found = 0
        for _ in range(20):
            nodes = [(np.sort(rng.choice(90, size=n, replace=False)),
                      np.sort(rng.choice(4, size=int(rng.integers(1, 5)), replace=False)))
                     for n in (0, 1, 2, 90, *rng.integers(3, 90, size=4))]
            for g, h in ((w * y, w), (w * (y - p), w * p * (1 - p))):
                block, g_block, h_block, n_rows, alone = [], [], [], [], []
                for rows, candidates in nodes:
                    pad = 90 - rows.size
                    for f in candidates:
                        block.append(np.append(X[rows, f], np.full(pad, np.nan)))
                        g_block.append(np.append(g[rows], np.zeros(pad)))
                        h_block.append(np.append(h[rows], np.zeros(pad)))
                        n_rows.append(rows.size)
                    alone.append(_best_splits(X[rows][:, candidates], g[rows], h[rows]))
                got = _best_splits(np.column_stack(block), np.column_stack(g_block),
                                   np.column_stack(h_block), np.array(n_rows))
                expected = [np.concatenate(parts) for parts in zip(*alone)]
                np.testing.assert_array_equal(got[0], expected[0])
                split = np.isfinite(expected[0])
                for a, b in zip(got[1:], expected[1:]):
                    assert a[split].tolist() == b[split].tolist()
                found += split.sum()
        assert found > 200

    @pytest.mark.parametrize("params", [ModelParams("forest", 8, 6),
                                        ModelParams("boosting", 8, 4, 0.3)])
    def test_fit_with_mixed_columns_matches_per_feature_search(self, params, monkeypatch):
        # Columns 1 and 3 hold NaN, 0 and 2 do not. Patching the per-feature
        # search in for the 2-D one must not move a byte of the model.
        data = tie_weighted_dataset(with_nan=False)
        X = data.X.copy()
        X[::7, 1] = np.nan
        X[::11, 3] = np.nan
        data = MLDataset(X, data.y, data.weights)
        fused = fit_model(data, params, seed=5).to_json()
        monkeypatch.setattr(tree_module, "_best_splits", per_feature_splits)
        assert fit_model(data, params, seed=5).to_json() == fused

    @pytest.mark.parametrize("max_depth", [0, 1, 3, 8])
    def test_one_search_per_node_above_max_depth(self, max_depth, monkeypatch):
        # Searches are batched, so count the nodes a search scores: the rows
        # and the candidate columns of each. A forest tree (mtry 2) grows
        # node by node, a tree that tries every column level by level.
        scored = []

        def counting(Xp, gp, hp, rows, candidates):
            scored.extend((tuple(r.tolist()), c.size) for r, c in zip(rows, candidates))
            return node_splits(Xp, gp, hp, rows, candidates)

        node_splits = tree_module._node_splits
        monkeypatch.setattr(tree_module, "_node_splits", counting)
        data = tie_weighted_dataset()
        y = data.y.astype(float)
        for mtry in (2, None):
            scored.clear()
            tree = Tree.fit(data.X, y * data.weights, data.weights,
                            TreeParams(max_depth, mtry), np.random.default_rng(1))
            # Each node's training rows and depth; preorder puts parents first.
            depth = np.zeros(tree.feature.size, dtype=int)
            reach = {tree.root: np.arange(data.X.shape[0])}
            for node in np.flatnonzero(tree.feature >= 0):
                rows = reach[node]
                col = data.X[rows, tree.feature[node]]
                go_left = np.where(np.isnan(col), tree.missing_left[node],
                                   col < tree.threshold[node])
                reach[tree.left[node]], reach[tree.right[node]] = rows[go_left], rows[~go_left]
                depth[[tree.left[node], tree.right[node]]] = depth[node] + 1
            width = 4 if mtry is None else mtry
            expected = [(tuple(reach[node].tolist()), width)
                        for node in np.flatnonzero(depth < max_depth)]
            assert sorted(scored) == sorted(expected)


class TestGrowTrees:
    """`grow_trees` grows every tree as the per-node depth-first reference
    does: the same draws, splits, node numbers and gain sums."""

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_matches_per_node_reference(self, data):
        n = data.draw(st.integers(1, 90))
        d = data.draw(st.integers(1, 4))
        # No NaN, about one cell in seven, or one in three.
        nan_share = data.draw(st.sampled_from([0, 1, 3]))
        values = [-1.0, 0.0, 0.5, 1.0, 2.0, 3.5] + [np.nan] * nan_share
        X = np.reshape(data.draw(st.lists(st.sampled_from(values), min_size=n * d,
                                          max_size=n * d)), (n, d))
        y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), float)
        w = np.array(data.draw(st.lists(st.floats(0.1, 4.0), min_size=n, max_size=n)))
        if data.draw(st.booleans()):   # boosting: logistic-loss gradients
            p = np.array(data.draw(st.lists(st.floats(0.01, 0.99), min_size=n, max_size=n)))
            g, h, mtry = w * (y - p), np.maximum(w * p * (1 - p), 1e-12), None
        else:
            g, h, mtry = w * y, w, data.draw(st.integers(1, d))
        params = TreeParams(data.draw(st.integers(0, 8)), mtry)
        seed, k = data.draw(st.integers(0, 2 ** 32 - 1)), data.draw(st.integers(1, 5))
        grown = grow_trees(X, g, h, params, np.random.default_rng(seed).spawn(k))
        assert len(grown) == k
        for tree, rng in zip(grown, np.random.default_rng(seed).spawn(k)):
            expected = fit_tree_per_node(X, g, h, params, rng)
            assert json.dumps(tree.to_dict()) == json.dumps(expected.to_dict())
            assert tree.feature_gains.tobytes() == expected.feature_gains.tobytes()


class TestModelJson:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_round_trip_is_identity(self, data):
        n = data.draw(st.integers(8, 40))
        d = data.draw(st.integers(1, 3))
        cells = st.sampled_from([-1.0, 0.0, 0.25, 1.0, 2.0, np.nan])
        X = np.reshape(data.draw(st.lists(cells, min_size=n * d, max_size=n * d)), (n, d))
        y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
        y[:2] = (0, 1)
        w = data.draw(st.lists(st.floats(0.05, 5.0), min_size=n, max_size=n))
        names = data.draw(st.none() | st.lists(st.text(max_size=4), min_size=d, max_size=d))
        dataset = MLDataset(X, y, w, tuple(names) if names else None)
        kind = data.draw(st.sampled_from(["forest", "boosting"]))
        params = ModelParams(kind, data.draw(st.integers(1, 8)), data.draw(st.integers(0, 8)),
                             data.draw(st.floats(0.01, 1.0)))
        valid = None
        if kind == "boosting" and data.draw(st.booleans()):   # early stopping
            valid = dataset.subset(np.arange(n - 6, n))
            dataset = dataset.subset(np.arange(n - 6))
            dataset.require_both_classes()
        model = fit_model(dataset, params, seed=data.draw(st.integers(0, 2 ** 32 - 1)),
                          valid=valid, early_stop_rounds=data.draw(st.integers(1, 3)))
        if data.draw(st.booleans()):
            model.cv_auc = data.draw(st.floats(0.0, 1.0))
        text = model.to_json()
        restored = TrainedModel.from_json(text)
        assert restored.to_json() == text
        probe = np.vstack([X, np.full((1, d), np.nan)])
        np.testing.assert_array_equal(restored.predict(probe), model.predict(probe))


class TestProcessParallelFolds:
    """Fold fits run through `process_map`; ZIS_THREADS never changes a byte."""

    @pytest.mark.parametrize("kind", ["forest", "boosting"])
    @pytest.mark.parametrize("with_nan", [True, False])
    def test_one_and_two_workers_agree(self, kind, with_nan, monkeypatch):
        pools = []

        class CountingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                pools.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        data = tie_weighted_dataset(with_nan)
        params = ModelParams(kind, 8, 4, 0.3)
        results = {}
        for threads in ("1", "2"):
            monkeypatch.setenv("ZIS_THREADS", threads)
            scores = oof_predictions(data, params, seed=3, k=5)
            model = train(data, grid=(params,), seed=3, cv_folds=5)
            results[threads] = (scores, model.to_json())
        assert pools == [2, 2]
        np.testing.assert_array_equal(results["1"][0], results["2"][0])
        assert results["1"][1] == results["2"][1]

    def test_serial_paths_build_no_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was built")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        monkeypatch.setenv("ZIS_THREADS", "1")
        oof_predictions(separable_dataset(40), ModelParams("forest", 3, 3), k=4)
        monkeypatch.setenv("ZIS_THREADS", "8")
        assert windowing.process_map(abs, [-3]) == [3]
        assert windowing.process_map(abs, []) == []

    def test_workers_capped_by_task_count(self, monkeypatch):
        # A stand-in executor records its size and maps in this process.
        sizes = []

        class InlinePool:
            def __init__(self, max_workers, mp_context):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setenv("ZIS_THREADS", "64")
        assert windowing.process_map(abs, [-1, 2, -3]) == [1, 2, 3]
        monkeypatch.delenv("ZIS_THREADS")
        windowing.process_map(abs, list(range(100)))
        assert sizes == [3, windowing.thread_count()]

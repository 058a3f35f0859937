import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eqgrow.regression import (
    LEARNING_RATE, MAX_DEPTH, _Node, _tree_predict, build_features, fit_gbm,
    kfold_cv, pooled_eval, transfer_eval,
)


def synthetic_rows(domains=("arith",), seeds=(0, 1, 2, 3, 4)):
    rows = []
    for dom, gen, filt, depth, bs, seed in itertools.product(
            domains, ("random", "compositional", "freq", "mdl_greedy"),
            ("any", "novelty"), (2, 3, 4), (40, 60, 80, 120, 160), seeds):
        rows.append(dict(domain=dom, generator=gen, filter=filt, depth=depth,
                         batch_size=bs, seed=seed))
    return rows


def additive_targets(rows, noise=0.0, seed=0, invert_filter=False):
    gen_effect = {"random": 0.2, "compositional": 0.5, "freq": 0.35,
                  "mdl_greedy": 0.6}
    rng = np.random.default_rng(seed)
    y = []
    for row in rows:
        value = gen_effect[row["generator"]]
        filt = 0.25 if row["filter"] == "novelty" else 0.0
        value += -filt if invert_filter else filt
        value += 0.05 * row["depth"] + 0.001 * row["batch_size"]
        y.append(value + noise * rng.standard_normal())
    return np.array(y)


def test_feature_vector_shape_and_onehots():
    rows = synthetic_rows()
    X = build_features(rows)
    assert X.shape == (len(rows), 8)
    assert np.all(X[:, :4].sum(axis=1) == 1.0)
    assert np.all(X[:, 4:6].sum(axis=1) == 1.0)
    X_dom = build_features(rows, include_domain=True, include_seed=True)
    assert X_dom.shape[1] == 12


def test_constant_targets_zero_trees():
    rows = synthetic_rows(seeds=(0,))
    X = build_features(rows)
    model = fit_gbm(X, np.full(len(rows), 0.5))
    assert model.trees == []
    assert np.allclose(model.predict(X), 0.5)


def test_boosting_drives_training_error_down():
    X = np.array([[0.0], [0.0], [1.0], [1.0], [0.0], [1.0],
                  [0.0], [1.0], [0.0], [1.0]])
    y = X[:, 0].copy()
    model = fit_gbm(X, y)
    assert np.mean((model.predict(X) - y) ** 2) < 1e-9


def test_training_loss_monotone():
    rows = synthetic_rows()
    X = build_features(rows)
    y = additive_targets(rows, noise=0.02)
    model = fit_gbm(X, y)
    current = np.full(len(y), model.initial_prediction)
    path = [float(np.mean((y - current) ** 2))]
    for tree in model.trees:  # the training MSE after each stage
        current = current + LEARNING_RATE * _tree_predict(tree, X)
        path.append(float(np.mean((y - current) ** 2)))
    assert len(path) > 2
    assert all(a >= b - 1e-12 for a, b in zip(path, path[1:]))


def test_additive_structure_high_heldout_r2():
    rows = synthetic_rows()
    X = build_features(rows)
    y = additive_targets(rows, noise=0.01)
    report = kfold_cv(X, y, folds=5, shuffle_seed=0)
    assert report.r2_mean > 0.95


def test_gbm_determinism():
    rows = synthetic_rows()
    X = build_features(rows)
    y = additive_targets(rows, noise=0.05)
    a = fit_gbm(X, y).predict(X)
    b = fit_gbm(X, y).predict(X)
    assert np.array_equal(a, b)
    r1 = kfold_cv(X, y, shuffle_seed=0)
    r2 = kfold_cv(X, y, shuffle_seed=0)
    assert np.array_equal(r1.predictions, r2.predictions)
    assert r1.r2_mean == r2.r2_mean


def test_prediction_within_loose_bounds():
    rows = synthetic_rows()
    X = build_features(rows)
    y = additive_targets(rows, noise=0.05)
    pred = fit_gbm(X, y).predict(X)
    margin = 0.1 * np.ptp(y) + 1e-6
    assert pred.min() >= y.min() - margin
    assert pred.max() <= y.max() + margin


def test_kfold_partition_exact():
    rows = synthetic_rows(seeds=(0, 1))
    X = build_features(rows)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(0)))
    order = rng.permutation(len(rows))
    parts = np.array_split(order, 5)
    seen = np.concatenate(parts)
    assert sorted(seen.tolist()) == list(range(len(rows)))


def test_pure_noise_negative_r2_on_average():
    rows = synthetic_rows()
    X = build_features(rows)
    means = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        y = rng.standard_normal(len(rows))
        means.append(kfold_cv(X, y, folds=5, shuffle_seed=0).r2_mean)
    assert np.mean(means) <= 0.0


def test_transfer_identity_population_matches_training_quality():
    rows = synthetic_rows()
    X = build_features(rows)
    y = additive_targets(rows, noise=0.01)
    report = transfer_eval(X, y, X, y)
    assert report.r2_mean > 0.95


def test_transfer_inverted_effect_negative_r2():
    rows_a = synthetic_rows()
    rows_b = synthetic_rows()
    X_a, X_b = build_features(rows_a), build_features(rows_b)
    y_a = additive_targets(rows_a, noise=0.01)
    y_b = additive_targets(rows_b, noise=0.01, invert_filter=True)
    report = transfer_eval(X_a, y_a, X_b, y_b)
    assert report.r2_mean < 0.0


def test_transfer_r2_zero_when_predicting_test_mean():
    rows = synthetic_rows(seeds=(0, 1))
    X = build_features(rows)
    y_test = additive_targets(rows, noise=0.02)
    y_train = np.full(len(rows), float(np.mean(y_test)))
    report = transfer_eval(X, y_train, X, y_test)
    assert report.r2_mean == pytest.approx(0.0, abs=1e-9)


def test_pooled_domain_feature_explains_shift():
    rows = synthetic_rows(domains=("arith", "bool", "list"), seeds=(0, 1))
    shift = {"arith": 0.0, "bool": 0.1, "list": -0.4}
    y = additive_targets(rows, noise=0.005)
    y = y + np.array([shift[r["domain"]] for r in rows])
    pooled = pooled_eval(rows, y, folds=5)
    assert pooled.r2_mean > 0.9
    ablated = pooled_eval(rows, y, folds=5, include_domain=False)
    assert pooled.r2_mean > ablated.r2_mean


# ---------------------------------------------------------------------------
# presorted split search against a per-node, per-feature sort
# ---------------------------------------------------------------------------

def _reference_best_split(X, y):
    """Sort the node's rows by each feature in turn and scan its boundaries."""
    n = len(y)
    if n < 2:
        return None
    total = float(np.sum(y))
    total_sq = float(np.sum(y * y))
    parent_sse = total_sq - total * total / n
    best = None
    for f in range(X.shape[1]):
        order = np.argsort(X[:, f], kind="stable")
        xs = X[order, f]
        ys = y[order]
        csum = np.cumsum(ys)
        csq = np.cumsum(ys * ys)
        boundary = np.nonzero(xs[:-1] < xs[1:])[0]
        if len(boundary) == 0:
            continue
        k = boundary + 1
        left_sse = csq[boundary] - csum[boundary] ** 2 / k
        rs = total - csum[boundary]
        rq = total_sq - csq[boundary]
        right_sse = rq - rs ** 2 / (n - k)
        gains = parent_sse - (left_sse + right_sse)
        i = int(np.argmax(gains))
        gain = float(gains[i])
        if gain > 1e-12 and (best is None or gain > best[2] + 1e-12):
            threshold = 0.5 * (xs[boundary[i]] + xs[boundary[i] + 1])
            best = (f, float(threshold), gain)
    return best


def _reference_grow_tree(X, residual, depth):
    node = _Node(value=float(np.mean(residual)))
    if depth >= MAX_DEPTH:
        return node
    split = _reference_best_split(X, residual)
    if split is None:
        return node
    f, threshold, _ = split
    mask = X[:, f] <= threshold
    node.feature = f
    node.threshold = threshold
    node.left = _reference_grow_tree(X[mask], residual[mask], depth + 1)
    node.right = _reference_grow_tree(X[~mask], residual[~mask], depth + 1)
    return node


def _reference_fit_trees(X, y, n_stages):
    current = np.full(len(y), float(np.mean(y)))
    trees = []
    for _ in range(n_stages):
        residual = y - current
        if np.max(np.abs(residual)) < 1e-12:
            break
        tree = _reference_grow_tree(X, residual, 0)
        if tree.is_leaf and abs(tree.value) < 1e-15:
            break
        current = current + LEARNING_RATE * _tree_predict(tree, X)
        trees.append(tree)
    return trees, current


def _tree_bits(node):
    """(feature, threshold, value) of every node in preorder, as exact bits."""
    out = [(node.feature, np.float64(node.threshold).tobytes(),
            np.float64(node.value).tobytes())]
    if not node.is_leaf:
        out += _tree_bits(node.left) + _tree_bits(node.right)
    return out


@st.composite
def boosting_problems(draw):
    """X with few distinct values per column (ties), some constant and
    duplicated columns, and noise on some; y continuous or on a few levels."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n, f = draw(st.integers(10, 120)), draw(st.integers(1, 11))
    X = rng.integers(0, draw(st.integers(1, 6)), size=(n, f)).astype(float)
    X += rng.standard_normal((n, f)) * (rng.random(f) < 0.3)
    if f > 1 and draw(st.booleans()):
        X[:, -1] = X[:, 0]
    if draw(st.booleans()):
        X[:, rng.integers(f)] = 2.5
    if draw(st.booleans()):
        y = rng.standard_normal(n)
    else:
        y = rng.integers(0, 3, n).astype(float)
    return X, y, draw(st.integers(1, 25))


@settings(max_examples=60, deadline=None)
@given(problem=boosting_problems())
def test_presorted_split_search_is_bitwise_the_per_node_sort(problem):
    X, y, n_stages = problem
    model = fit_gbm(X, y, n_stages=n_stages)
    trees, fitted = _reference_fit_trees(X, y, n_stages)
    assert [_tree_bits(t) for t in model.trees] == [_tree_bits(t) for t in trees]
    assert np.array_equal(model.predict(X), fitted)


def test_presorted_split_search_on_the_synthetic_grid():
    rows = synthetic_rows(domains=("arith", "list"), seeds=(0, 1))
    X = build_features(rows, include_domain=True)
    y = additive_targets(rows, noise=0.05)
    model = fit_gbm(X, y)
    trees, fitted = _reference_fit_trees(X, y, 200)
    assert [_tree_bits(t) for t in model.trees] == [_tree_bits(t) for t in trees]
    assert np.array_equal(model.predict(X), fitted)

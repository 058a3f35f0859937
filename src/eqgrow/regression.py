"""Gradient-boosted regression of architecture features onto growth exponents.

Least-squares boosting with exact greedy regression trees: 200 stages of
depth-3 trees fit to residuals, shrinkage 0.1, no subsampling.  Splits
maximize variance reduction over every distinct threshold; ties break on the
lowest feature index, then the lowest threshold, so a fit is a deterministic
function of its inputs.

X never changes within a fit, so ``fit_gbm`` sorts each column once: a
stable argsort per feature and the sorted values.  A tree node is a boolean
row mask; filtering a column's stable order by the mask gives exactly the
stable argsort of the node's own rows, so the split search runs its
cumulative sums in the same order as a per-node sort would and is
bit-identical to it.  The search scores every boundary of every feature in
one (features, rows) pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .engine import DOMAINS, FILTERS, GENERATORS

N_STAGES = 200
MAX_DEPTH = 3
LEARNING_RATE = 0.1


def build_features(rows, include_domain: bool = False,
                   include_seed: bool = False) -> np.ndarray:
    """Feature matrix from trajectory metadata dicts.

    One-hot generator (4) and filter (2) in the engine's order, numeric
    depth and batch size, optional one-hot domain and numeric seed.
    """
    out = []
    for row in rows:
        vec = [1.0 if row["generator"] == g else 0.0 for g in GENERATORS]
        vec += [1.0 if row["filter"] == f else 0.0 for f in FILTERS]
        vec += [float(row["depth"]), float(row["batch_size"])]
        if include_domain:
            vec += [1.0 if row["domain"] == d else 0.0 for d in DOMAINS]
        if include_seed:
            vec += [float(row["seed"])]
        out.append(vec)
    return np.array(out, dtype=float)


# ---------------------------------------------------------------------------
# Regression trees
# ---------------------------------------------------------------------------

@dataclass
class _Node:
    feature: int = -1
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None
    value: float = 0.0

    @property
    def is_leaf(self):
        return self.left is None


def _best_split(order: np.ndarray, xs: np.ndarray, y: np.ndarray,
                total: float, total_sq: float):
    """Exact greedy split of one node: (feature, threshold, gain) or None.

    ``order`` holds the node's rows sorted by each feature, stably, and
    ``xs`` their feature values; ``total`` and ``total_sq`` sum the node's
    targets and their squares.  Gain is the reduction in total squared
    error.  Candidate thresholds are midpoints between consecutive distinct
    feature values.
    """
    n = order.shape[1]
    if n < 2:
        return None
    parent_sse = total_sq - total * total / n
    ys = y[order]
    csum = np.cumsum(ys, axis=1)[:, :-1]
    csq = np.cumsum(ys * ys, axis=1)[:, :-1]
    k = np.arange(1, n)  # left child sizes
    left_sse = csq - csum ** 2 / k
    rs = total - csum
    rq = total_sq - csq
    right_sse = rq - rs ** 2 / (n - k)
    gains = parent_sse - (left_sse + right_sse)
    gains[~(xs[:, :-1] < xs[:, 1:])] = -np.inf
    at = np.argmax(gains, axis=1)
    best = None
    for f, (i, gain) in enumerate(zip(at.tolist(),
                                      gains[np.arange(len(at)), at].tolist())):
        if gain > 1e-12 and (best is None or gain > best[2] + 1e-12):
            threshold = 0.5 * (xs[f, i] + xs[f, i + 1])
            best = (f, float(threshold), gain)
    return best


def _grow_tree(X: np.ndarray, residual: np.ndarray, rows: np.ndarray,
               order: np.ndarray, xs: np.ndarray, depth: int,
               fitted: np.ndarray) -> _Node:
    """The tree over the rows in the mask ``rows``; ``order`` and ``xs`` are
    the presorted columns restricted to them.  Writes each leaf's value into
    ``fitted`` at its rows."""
    node_y = residual[rows]
    total = float(np.sum(node_y))
    node = _Node(value=total / len(node_y))  # np.mean, bit for bit
    split = (_best_split(order, xs, residual, total,
                         float(np.sum(node_y * node_y)))
             if depth < MAX_DEPTH else None)
    if split is None:
        fitted[rows] = node.value
        return node
    f, threshold, _ = split
    node.feature = f
    node.threshold = threshold

    def child(mask):
        keep = mask[order]  # the same number of rows in every feature's row
        return _grow_tree(X, residual, rows & mask,
                          order[keep].reshape(len(order), -1),
                          xs[keep].reshape(len(order), -1), depth + 1, fitted)

    goes_left = X[:, f] <= threshold
    node.left, node.right = child(goes_left), child(~goes_left)
    return node


def _tree_predict(node: _Node, X: np.ndarray) -> np.ndarray:
    out = np.empty(len(X))
    idx = np.arange(len(X))
    stack = [(node, idx)]
    while stack:
        nd, rows = stack.pop()
        if nd.is_leaf:
            out[rows] = nd.value
            continue
        mask = X[rows, nd.feature] <= nd.threshold
        stack.append((nd.left, rows[mask]))
        stack.append((nd.right, rows[~mask]))
    return out


@dataclass
class GbmModel:
    initial_prediction: float
    trees: list[_Node] = field(default_factory=list)

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        pred = np.full(len(X), self.initial_prediction)
        for tree in self.trees:
            pred += LEARNING_RATE * _tree_predict(tree, X)
        return pred


def fit_gbm(X, y, n_stages: int = N_STAGES) -> GbmModel:
    """Least-squares gradient boosting; constant targets yield zero trees."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(y) < 10:
        raise ValueError("fit_gbm needs at least 10 samples")
    if not np.all(np.isfinite(y)):
        raise ValueError("targets must be finite")
    model = GbmModel(initial_prediction=float(np.mean(y)))
    current = np.full(len(y), model.initial_prediction)
    # each column's stable argsort and sorted values, as (features, rows)
    order = np.argsort(X, axis=0, kind="stable").T
    xs = np.take_along_axis(X.T, order, axis=1)
    every_row = np.ones(len(y), dtype=bool)
    fitted = np.empty(len(y))
    for _ in range(n_stages):
        residual = y - current
        if np.max(np.abs(residual)) < 1e-12:
            break
        tree = _grow_tree(X, residual, every_row, order, xs, 0, fitted)
        if tree.is_leaf and abs(tree.value) < 1e-15:
            break
        current = current + LEARNING_RATE * fitted
        model.trees.append(tree)
    return model


# ---------------------------------------------------------------------------
# Evaluation protocols
# ---------------------------------------------------------------------------

@dataclass
class EvalReport:
    r2_mean: float
    r2_std: float
    mae_mean: float
    mean_pred: float | None = None
    mean_actual: float | None = None
    predictions: np.ndarray | None = None  # held-out, aligned to input order


def _r2(actual: np.ndarray, predicted: np.ndarray) -> float:
    ss_res = float(np.sum((actual - predicted) ** 2))
    ss_tot = float(np.sum((actual - np.mean(actual)) ** 2))
    if ss_tot == 0:
        return 1.0 if ss_res < 1e-12 else 0.0
    return 1.0 - ss_res / ss_tot


def kfold_cv(X, y, folds: int = 5, shuffle_seed: int = 0) -> EvalReport:
    """Shuffled K-fold CV; held-out R2 uses each fold's own mean.  folds
    below 2 raises ValueError."""
    if folds < 2:
        raise ValueError(f"folds must be >= 2, got {folds}")
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(y) < folds:
        raise ValueError("fewer samples than folds")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(shuffle_seed)))
    order = rng.permutation(len(y))
    parts = np.array_split(order, folds)
    r2s, maes = [], []
    heldout = np.empty(len(y))
    for i in range(folds):
        test_idx = parts[i]
        train_idx = np.concatenate([parts[j] for j in range(folds) if j != i])
        model = fit_gbm(X[train_idx], y[train_idx])
        pred = model.predict(X[test_idx])
        heldout[test_idx] = pred
        r2s.append(_r2(y[test_idx], pred))
        maes.append(float(np.mean(np.abs(y[test_idx] - pred))))
    return EvalReport(r2_mean=float(np.mean(r2s)), r2_std=float(np.std(r2s)),
                      mae_mean=float(np.mean(maes)), predictions=heldout)


def transfer_eval(X_train, y_train, X_test, y_test) -> EvalReport:
    """Fit on one population, score on another; R2 against the test mean."""
    model = fit_gbm(X_train, y_train)
    pred = model.predict(np.asarray(X_test, dtype=float))
    y_test = np.asarray(y_test, dtype=float)
    r2 = _r2(y_test, pred)
    mae = float(np.mean(np.abs(y_test - pred)))
    return EvalReport(r2_mean=r2, r2_std=0.0, mae_mean=mae,
                      mean_pred=float(np.mean(pred)),
                      mean_actual=float(np.mean(y_test)),
                      predictions=pred)


def pooled_eval(rows, y, folds: int = 5, shuffle_seed: int = 0,
                include_domain: bool = True) -> EvalReport:
    """K-fold CV over the pooled dataset with the domain one-hot appended."""
    X = build_features(rows, include_domain=include_domain)
    return kfold_cv(X, np.asarray(y, dtype=float), folds=folds,
                    shuffle_seed=shuffle_seed)

"""Gradient boosting for binomial log-loss, built on the shared tree grower.

The raw score starts at the prior log-odds.  Each round fits a
depth-limited variance-split regression tree to the negative gradient
``y - p`` and replaces every leaf with one Newton step
``sum(residual) / sum(p * (1 - p))``, then the raw score advances by
``learning_rate`` times the leaf values.  ``n_estimators=0`` is legal and
reduces the model to the prior.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..rng import derive_seed, generator
from .base import check_predict_dense, check_X_y
from .tree import TreeBuilder, TreeEnsemble

_PROB_EPS = 1e-12
_HESSIAN_EPS = 1e-16
_MAX_LEAF_VALUE = 16.0


def sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def log_loss(y: np.ndarray, p: np.ndarray) -> float:
    p = np.clip(p, _PROB_EPS, 1.0 - _PROB_EPS)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


class GradientBoostingClassifier(TreeEnsemble):
    def __init__(
        self,
        n_estimators: int = 100,
        learning_rate: float = 0.1,
        max_depth: Optional[int] = 3,
        seed: int = 0,
    ):
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.seed = seed

    def fit(self, X, y) -> "GradientBoostingClassifier":
        if self.n_estimators < 0:
            raise ValueError("n_estimators must be >= 0")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError("max_depth must be >= 1 or None")
        Xr, labels = check_X_y(X, y)
        Xd = Xr.toarray()
        n, d = Xd.shape
        prior = float(np.clip(labels.mean(), _PROB_EPS, 1.0 - _PROB_EPS))
        self.base_score_ = float(np.log(prior / (1.0 - prior)))
        rows = np.arange(n, dtype=np.int64)
        raw = np.full(n, self.base_score_)
        importances = np.zeros(d)
        trees = []
        losses = [log_loss(labels, sigmoid(raw))]
        for m in range(self.n_estimators):
            p = sigmoid(raw)
            residual = labels - p
            hessian = p * (1.0 - p)

            def newton_leaf(sel: np.ndarray) -> float:
                step = residual[sel].sum() / (hessian[sel].sum() + _HESSIAN_EPS)
                return float(np.clip(step, -_MAX_LEAF_VALUE, _MAX_LEAF_VALUE))

            builder = TreeBuilder(
                "variance",
                self.max_depth,
                None,
                generator(derive_seed(self.seed, "round", m)),
            )
            tree, leaf_of = builder.build(Xd, rows, residual, newton_leaf, importances)
            raw = raw + self.learning_rate * tree.value[leaf_of]
            trees.append(tree)
            losses.append(log_loss(labels, sigmoid(raw)))
        self.trees_ = trees
        self.train_losses_ = np.asarray(losses)
        total = importances.sum()
        self.feature_importances_ = importances / total if total > 0 else importances
        self.n_features_ = d
        return self

    def decision_function(self, X) -> np.ndarray:
        """Raw additive score before the sigmoid."""
        X = check_predict_dense(self, X)
        return self.nodes_.sum_leaves(X, self.base_score_, self.learning_rate)

    def predict_proba(self, X) -> np.ndarray:
        return sigmoid(self.decision_function(X))

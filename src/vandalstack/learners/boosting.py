"""Gradient boosting for binomial log-loss, built on the shared tree grower.

The raw score starts at the prior log-odds.  Each round fits a
depth-limited variance-split regression tree to the negative gradient
``y - p`` and replaces every leaf with one Newton step
``sum(residual) / sum(p * (1 - p))``, then the raw score advances by
``learning_rate`` times the leaf values.  ``n_estimators=0`` is legal and
reduces the model to the prior.  Every split is the exact best over all
features, so nothing is drawn at random; ``seed`` exists only for
interface uniformity with the other families.
"""

from __future__ import annotations

from typing import Annotated, Optional

import numpy as np

from .base import BaseModel, check_predict_input, check_X_y
from .tree import range_sums

_PROB_EPS = 1e-12
_HESSIAN_EPS = 1e-16
_MAX_LEAF_VALUE = 16.0
# rounds whose trees are numbered together: a round's grown tree waits, so
# that the fixed cost of numbering is shared, but only this many at a time
_ROUNDS_NUMBERED_AT_ONCE = 32


def sigmoid(z: np.ndarray) -> np.ndarray:
    """The logistic function; ``exp`` sees only ``-|z|``, so it cannot overflow."""
    e = np.exp(-np.abs(z))
    denom = 1.0 + e
    return np.where(z >= 0, 1.0 / denom, e / denom)


def log_loss(y: np.ndarray, p: np.ndarray) -> float:
    p = np.clip(p, _PROB_EPS, 1.0 - _PROB_EPS)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


class GradientBoostingClassifier(BaseModel):
    def __init__(
        self,
        n_estimators: Annotated[int, ">= 0"] = 100,
        learning_rate: Annotated[float, "> 0"] = 0.1,
        max_depth: Optional[Annotated[int, ">= 1"]] = 3,
        seed: int = 0,
    ):
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.seed = seed

    def fit(self, X, y) -> "GradientBoostingClassifier":
        # only a fit grows trees: scoring never compiles the grower
        from .grower import Presort, TreeBuilder, TreeJob, node_table, number_trees

        self._check_params()
        Xd, labels = check_X_y(X, y)
        n, d = Xd.shape
        prior = float(np.clip(labels.mean(), _PROB_EPS, 1.0 - _PROB_EPS))
        self.base_score_ = float(np.log(prior / (1.0 - prior)))
        rows = np.arange(n, dtype=np.int64)
        # every round grows on all rows: one presort serves them all
        presort = Presort.of(Xd, rows)
        builder = TreeBuilder("variance", self.max_depth, None)
        raw = np.full(n, self.base_score_)
        importances = np.zeros(d)
        blocks, rounds = [], []
        # one sigmoid per round: round r's loss and round r + 1's residual share it
        p = sigmoid(raw)
        losses = [log_loss(labels, p)]
        for _ in range(self.n_estimators):
            residual = labels - p
            hessian = p * (1.0 - p)

            def newton_leaf(sel: np.ndarray) -> float:
                # np.add.reduce is ndarray.sum's pairwise sum, without its wrapper
                step = np.add.reduce(residual.take(sel)) / (np.add.reduce(hessian.take(sel)) + _HESSIAN_EPS)
                # clamped, NaN passing through as np.clip lets it
                return float(min(max(step, -_MAX_LEAF_VALUE), _MAX_LEAF_VALUE))

            grown, leaf = builder.grow(Xd, [TreeJob(rows, residual, newton_leaf, None, presort)])
            raw = raw + self.learning_rate * grown.values[leaf]
            rounds.append(grown)
            if len(rounds) == _ROUNDS_NUMBERED_AT_ONCE:
                blocks.append(number_trees(rounds, importances)[0])
                rounds = []
            p = sigmoid(raw)
            losses.append(log_loss(labels, p))
        blocks.append(number_trees(rounds, importances)[0])
        self.nodes_ = node_table(blocks)
        self.train_losses_ = np.asarray(losses)
        total = importances.sum()
        self.feature_importances_ = importances / total if total > 0 else importances
        self.n_features_ = d
        return self

    def decision_function(self, X) -> np.ndarray:
        """Raw additive score before the sigmoid."""
        X = check_predict_input(self, X)
        return range_sums(self.nodes_, X, [self.nodes_.n_trees], [self.leaf_rule()])[0]

    def predict_proba(self, X) -> np.ndarray:
        return self.proba_from_sums(self.decision_function(X), self.nodes_.n_trees)

    def leaf_rule(self) -> tuple[float, float]:
        """``(start, weight)`` of the leaf sums that :meth:`proba_from_sums` finishes."""
        return self.base_score_, self.learning_rate

    @staticmethod
    def proba_from_sums(sums: np.ndarray, n_trees) -> np.ndarray:
        """P(positive) from the raw scores (leaf sums) of ``n_trees`` trees, element by element."""
        return sigmoid(sums)

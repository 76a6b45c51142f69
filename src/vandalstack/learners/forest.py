"""Random forest and extremely-randomised trees.

Both are bags of Gini classification trees whose leaves store the positive
fraction of the samples they saw; the ensemble prediction is the plain
mean of the per-tree leaf values.  The forest bootstraps rows and scans
sqrt(d) candidate features exactly; the extra-trees variant keeps the full
sample and draws one uniform threshold per candidate feature.
"""

from __future__ import annotations

import math
from typing import Optional, Union

import numpy as np

from ..rng import derive_seed, generator
from .base import check_predict_dense, check_X_y
from .tree import TreeBuilder, TreeEnsemble


class _BaseForest(TreeEnsemble):
    random_threshold = False

    n_estimators: int
    max_depth: Optional[int]
    max_features: Union[str, int, None]
    bootstrap: bool
    seed: int

    def fit(self, X, y) -> "_BaseForest":
        if self.n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError("max_depth must be >= 1 or None")
        Xr, labels = check_X_y(X, y)
        Xd = Xr.toarray()
        n, d = Xd.shape
        m = self._resolve_max_features(d)
        trees = []
        importances = np.zeros(d)
        for t in range(self.n_estimators):
            rng = generator(derive_seed(self.seed, "tree", t))
            if self.bootstrap:
                rows = np.sort(rng.integers(0, n, size=n))
            else:
                rows = np.arange(n, dtype=np.int64)
            target = labels[rows]
            builder = TreeBuilder(
                "gini", self.max_depth, m, rng, random_threshold=self.random_threshold
            )
            tree, _ = builder.build(
                Xd,
                rows,
                target,
                # the mean, bit for bit, without np.mean's per-call overhead
                leaf_value=lambda sel, tgt=target: tgt[sel].sum() / sel.size,
                importances=importances,
            )
            trees.append(tree)
        self.trees_ = trees
        total = importances.sum()
        self.feature_importances_ = importances / total if total > 0 else importances
        self.n_features_ = d
        return self

    def _resolve_max_features(self, d: int) -> Optional[int]:
        if self.max_features is None:
            return None
        if self.max_features == "sqrt":
            return max(1, int(round(math.sqrt(d))))
        m = int(self.max_features)
        if m < 1:
            raise ValueError("max_features must be >= 1, 'sqrt', or None")
        return min(m, d)

    def predict_proba(self, X) -> np.ndarray:
        """P(positive) per row: the mean of the per-tree leaf fractions."""
        X = check_predict_dense(self, X)
        return self.nodes_.sum_leaves(X, 0.0, 1.0) / self.nodes_.n_trees


class RandomForestClassifier(_BaseForest):
    """Bootstrap bagging + exact Gini splits over sqrt(d) candidates."""

    def __init__(
        self,
        n_estimators: int = 100,
        max_depth: Optional[int] = None,
        max_features: Union[str, int, None] = "sqrt",
        bootstrap: bool = True,
        seed: int = 0,
    ):
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.seed = seed


class ExtraTreesClassifier(_BaseForest):
    """No bootstrap; one uniform-random threshold per candidate feature."""

    random_threshold = True

    def __init__(
        self,
        n_estimators: int = 100,
        max_depth: Optional[int] = None,
        max_features: Union[str, int, None] = "sqrt",
        bootstrap: bool = False,
        seed: int = 0,
    ):
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.seed = seed

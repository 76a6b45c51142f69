"""Random forest and extremely-randomised trees.

Both are bags of Gini classification trees whose leaves store the positive
fraction of the samples they saw; the ensemble prediction is the plain
mean of the per-tree leaf values.  The forest bootstraps rows and scans
sqrt(d) candidate features exactly; the extra-trees variant keeps the full
sample and draws one uniform threshold per candidate feature.
"""

from __future__ import annotations

import math
from typing import Annotated, Literal, Optional, Union

import numpy as np

from ..rng import derive_seed, generator
from .base import BaseModel, check_predict_input, check_X_y
from .tree import range_sums


class _BaseForest(BaseModel):
    random_threshold = False

    def fit(self, X, y) -> "_BaseForest":
        # only a fit grows trees: scoring never compiles the grower
        from .grower import TreeBuilder, TreeJob

        self._check_params()
        Xd, labels = check_X_y(X, y)
        n, d = Xd.shape
        m = self._resolve_max_features(d)
        every_row = np.arange(n, dtype=np.int64)
        # each tree's bootstrap draw is made as its group comes up; no leaf
        # rule: each leaf holds its mean label, summed exactly as 0/1
        draws = (self._draw(t, labels, every_row) for t in range(self.n_estimators))
        jobs = (TreeJob(rows, target, None, key) for rows, target, key in draws)
        builder = TreeBuilder("gini", self.max_depth, m, random_threshold=self.random_threshold)
        importances = np.zeros(d)
        self.nodes_ = builder.build_many(Xd, jobs, importances)
        total = importances.sum()
        self.feature_importances_ = importances / total if total > 0 else importances
        self.n_features_ = d
        return self

    def _draw(self, t: int, labels: np.ndarray, every_row: np.ndarray) -> tuple:
        """Tree ``t``'s rows (a bootstrap draw, if any), their labels and its key."""
        key = derive_seed(self.seed, "tree", t)
        if not self.bootstrap:
            return every_row, labels, key
        rows = np.sort(generator(key).integers(0, labels.size, size=labels.size))
        return rows, labels[rows], key

    def _resolve_max_features(self, d: int) -> Optional[int]:
        if self.max_features == "sqrt":
            return max(1, int(round(math.sqrt(d))))
        return None if self.max_features is None else min(self.max_features, d)

    def predict_proba(self, X) -> np.ndarray:
        """P(positive) per row: the mean of the per-tree leaf fractions."""
        X = check_predict_input(self, X)
        sums = range_sums(self.nodes_, X, [self.nodes_.n_trees], [self.leaf_rule()])[0]
        return self.proba_from_sums(sums, self.nodes_.n_trees)

    def leaf_rule(self) -> tuple[float, float]:
        """``(start, weight)`` of the leaf sums that :meth:`proba_from_sums` finishes."""
        return 0.0, 1.0

    @staticmethod
    def proba_from_sums(sums: np.ndarray, n_trees) -> np.ndarray:
        """P(positive) from the leaf sums of ``n_trees`` trees, element by element: their mean."""
        return sums / n_trees


class RandomForestClassifier(_BaseForest):
    """Bootstrap bagging + exact Gini splits over sqrt(d) candidates."""

    def __init__(
        self,
        n_estimators: Annotated[int, ">= 1"] = 100,
        max_depth: Optional[Annotated[int, ">= 1"]] = None,
        max_features: Union[Literal["sqrt"], Annotated[int, ">= 1"], None] = "sqrt",
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
        n_estimators: Annotated[int, ">= 1"] = 100,
        max_depth: Optional[Annotated[int, ">= 1"]] = None,
        max_features: Union[Literal["sqrt"], Annotated[int, ">= 1"], None] = "sqrt",
        bootstrap: bool = False,
        seed: int = 0,
    ):
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.seed = seed

"""Importance-threshold feature selection and column projection.

The selection model is a default gradient boosting classifier with seed 0.
Its importances are one plain float64 vector, the normalised
impurity-decrease importances every tree ensemble keeps as
``feature_importances_``: finite, non-negative, and summing to 1, or to 0
when no tree splits.  Columns whose importance is >= the threshold
(default 1e-5) survive.  A threshold of 0 therefore selects every column,
and all-zero importances select none at a positive threshold.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import IndexOutOfRange, UnsupportedFamily
from .base import BaseModel, check_dense

DEFAULT_THRESHOLD = 1e-5


def feature_importances(model: BaseModel) -> np.ndarray:
    """A float64 copy of a fitted tree model's normalised impurity-decrease importances."""
    model._check_is_fitted()
    if not hasattr(model, "feature_importances_"):
        raise UnsupportedFamily(
            f"{type(model).__name__} has no impurity-based importances"
        )
    return np.array(model.feature_importances_, dtype=np.float64)


def select_features(importances, threshold: float) -> tuple[int, ...]:
    """Ascending indices of the columns whose importance is >= ``threshold``.

    ``importances`` is any array-like vector, normalised or not.
    """
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    imp = np.asarray(importances, dtype=np.float64)
    if imp.ndim != 1:
        raise ValueError(f"importances must be a vector, got shape {imp.shape}")
    return tuple(int(j) for j in np.nonzero(imp >= threshold)[0])


def project_matrix(X, selected: Sequence[int]) -> np.ndarray:
    """The selected columns of a matrix (see :func:`check_dense`), as a dense float64 array."""
    X = check_dense(X)
    sel = np.asarray(list(selected), dtype=np.int64)
    if sel.size and (sel.min() < 0 or sel.max() >= X.shape[1]):
        raise IndexOutOfRange(f"selected column outside input dim {X.shape[1]}")
    return np.ascontiguousarray(X[:, sel])

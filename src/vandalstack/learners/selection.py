"""Importance-threshold feature selection and column projection.

The selection model is a default gradient boosting classifier with seed 0;
columns whose normalised impurity-decrease importance is >= the threshold
(default 1e-5) survive.  A threshold of 0 therefore selects every column,
and an all-zero report selects none at a positive threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import IndexOutOfRange, UnsupportedFamily
from .base import BaseModel, check_dense

DEFAULT_THRESHOLD = 1e-5


@dataclass
class ImportanceReport:
    importances: np.ndarray

    def __post_init__(self):
        imp = np.asarray(self.importances, dtype=np.float64)
        if imp.ndim != 1:
            raise ValueError("importances must be a vector")
        if not np.all(np.isfinite(imp)) or imp.min() < 0:
            raise ValueError("importances must be finite and non-negative")
        total = imp.sum()
        if not (abs(total) <= 1e-9 or abs(total - 1.0) <= 1e-9):
            raise ValueError(f"importances must sum to 0 or 1, got {total!r}")
        self.importances = imp


def feature_importances(model: BaseModel) -> ImportanceReport:
    """Normalised impurity-decrease importances of a fitted tree model."""
    model._check_is_fitted()
    if not hasattr(model, "feature_importances_"):
        raise UnsupportedFamily(
            f"{type(model).__name__} has no impurity-based importances"
        )
    return ImportanceReport(np.array(model.feature_importances_))


def select_features(report, threshold: float) -> tuple[int, ...]:
    """Ascending indices of columns with importance >= threshold.

    ``report`` is an :class:`ImportanceReport` or any raw non-negative
    vector (handy for thresholding scores that are not normalised).
    """
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    imp = (
        report.importances
        if isinstance(report, ImportanceReport)
        else np.asarray(report, dtype=np.float64)
    )
    return tuple(int(j) for j in np.nonzero(imp >= threshold)[0])


def project_matrix(X, selected: Sequence[int]) -> np.ndarray:
    """The selected columns of a matrix (see :func:`check_dense`), as a dense float64 array."""
    X = check_dense(X)
    sel = np.asarray(list(selected), dtype=np.int64)
    if sel.size and (sel.min() < 0 or sel.max() >= X.shape[1]):
        raise IndexOutOfRange(f"selected column outside input dim {X.shape[1]}")
    return np.ascontiguousarray(X[:, sel])

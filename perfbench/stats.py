"""Small statistics the benchmark computes itself, independent of the package."""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy.stats import rankdata


def auc(labels: Sequence[bool], scores: Sequence[float]) -> float:
    """AUC-ROC by the rank-sum formula, ties sharing their average rank."""
    y = np.asarray(labels, dtype=bool)
    s = np.asarray(scores, dtype=float)
    n_pos = int(y.sum())
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs both classes")
    ranks = rankdata(s)
    return float((ranks[y].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))

"""L2-regularised logistic regression by full-batch gradient descent.

Objective (the intercept is not penalised)::

    J(w, b) = mean_i bce(y_i, sigmoid(x_i . w + b)) + l2 / (2 n) * ||w||^2

Descent uses backtracking line search (Armijo) and stops when the full
gradient norm drops below ``tol`` or after ``max_iter`` iterations.  The
start point is zero, so training is deterministic; ``seed`` exists only
for interface uniformity with the other families.
"""

from __future__ import annotations

from typing import Annotated

import numpy as np

from .base import BaseModel, check_predict_input, check_X_y
from .boosting import sigmoid


class LogisticRegression(BaseModel):
    def __init__(
        self,
        l2: Annotated[float, ">= 0"] = 1.0,
        max_iter: int = 1000,
        tol: float = 1e-6,
        seed: int = 0,
    ):
        self.l2 = l2
        self.max_iter = max_iter
        self.tol = tol
        self.seed = seed

    def fit(self, X, y) -> "LogisticRegression":
        self._check_params()
        Xr, labels = check_X_y(X, y)
        n, d = Xr.shape
        w = np.zeros(d)
        b = 0.0

        def objective(wv: np.ndarray, bv: float) -> float:
            z = Xr @ wv + bv
            # bce = log(1 + e^z) - y z, stable in both tails
            bce = np.logaddexp(0.0, z) - labels * z
            return float(bce.mean() + self.l2 / (2.0 * n) * wv @ wv)

        iterations = 0
        for _ in range(self.max_iter):
            z = Xr @ w + b
            p = sigmoid(z)
            grad_w = Xr.T @ (p - labels) / n + self.l2 * w / n
            grad_b = float((p - labels).mean())
            grad_sq = float(grad_w @ grad_w) + grad_b * grad_b
            if np.sqrt(grad_sq) < self.tol:
                break
            current = objective(w, b)
            step = 1.0
            while step > 1e-14:
                w_next = w - step * grad_w
                b_next = b - step * grad_b
                if objective(w_next, b_next) <= current - 1e-4 * step * grad_sq:
                    break
                step *= 0.5
            w, b = w_next, b_next
            iterations += 1
        self.coef_ = w
        self.intercept_ = b
        self.n_iter_ = iterations
        self.n_features_ = d
        return self

    def decision_function(self, X) -> np.ndarray:
        # einsum, not BLAS, so a row scores the same alone or in a batch
        X = check_predict_input(self, X)
        return np.einsum("ij,j->i", X, self.coef_) + self.intercept_

    def predict_proba(self, X) -> np.ndarray:
        return sigmoid(self.decision_function(X))

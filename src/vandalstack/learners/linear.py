"""L2-regularised logistic regression by full-batch gradient descent.

Objective (the intercept is not penalised)::

    J(w, b) = mean_i bce(y_i, sigmoid(x_i . w + b)) + l2 / (2 n) * ||w||^2

Descent uses backtracking line search (Armijo) over the steps 2^0,
2^-1, ... above 1e-14: it takes the largest that passes, or the last
tried (2^-46) when none does, and stops when the full gradient norm
drops below ``tol`` or after ``max_iter`` iterations.

The search is warm-started.  Each iteration tries the previous
iteration's step first and walks up (never above 1), keeping the largest
step that passes, until a step fails clearly; if none passed, it walks
down from the previous step to the first that passes.  ``J`` is convex,
so along the search line the Armijo excess ``J(w - t g) - J(w) + 1e-4 t
||g||^2`` is convex in ``t``, zero at 0 and falling there: in exact
arithmetic the passing steps form an interval starting at 0, and every
step above a failing one fails.  In floating point, rounding decides the
test only where the excess is within rounding of zero, so "clearly"
means an excess above 2^-20 of the scale of the values compared (the
objectives, and the scores' ``sum_j mean|x_j| |w_j| + |b|`` at both
points); convexity then carries the failure to every larger step.  So
the search takes, bit for bit, the step a search down from 1 would take,
with about 2.4 objective evaluations per iteration instead of about 11.
Each accepted step keeps its objective and its scores ``X w + b`` for
the next iteration.

The start point is zero, so training is deterministic; ``seed`` exists
only for interface uniformity with the other families.
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

        def trial(wv: np.ndarray, bv: float):
            """The point, its objective and its scores."""
            z = Xr @ wv + bv
            # bce = log(1 + e^z) - y z, stable in both tails
            bce = np.logaddexp(0.0, z) - labels * z
            return wv, bv, float(bce.mean() + self.l2 / (2.0 * n) * wv @ wv), z

        w, b, current, z = trial(np.zeros(d), 0.0)
        # mean |x_j| per column: with |w| and |b| it bounds how far rounding
        # can move an objective value
        col_scale = np.abs(Xr).mean(axis=0)
        step = 1.0
        iterations = 0
        for _ in range(self.max_iter):
            p = sigmoid(z)
            grad_w = Xr.T @ (p - labels) / n + self.l2 * w / n
            grad_b = float((p - labels).mean())
            grad_sq = float(grad_w @ grad_w) + grad_b * grad_b
            if np.sqrt(grad_sq) < self.tol:
                break

            def at(t: float):
                return trial(w - t * grad_w, b - t * grad_b)

            def armijo(t: float) -> float:
                return current - 1e-4 * t * grad_sq

            def fails_clearly(point, t: float) -> bool:
                wt, bt, value, _ = point
                scale = abs(current) + abs(value) + abs(b) + abs(bt)
                scale += float(col_scale @ (np.abs(w) + np.abs(wt)))
                return value - armijo(t) > 2.0**-20 * scale

            # up from the last step to a clear failure, keeping the largest pass
            first = point = at(step)
            accepted = None
            t = step
            while True:
                if point[2] <= armijo(t):
                    accepted = t, point
                elif fails_clearly(point, t):
                    break
                if t >= 1.0:
                    break
                t *= 2.0
                point = at(t)
            if accepted is None:
                # down from the last step to the first pass, or the last
                # step above 1e-14
                t, point = step, first
                while t * 0.5 > 1e-14:
                    t *= 0.5
                    point = at(t)
                    if point[2] <= armijo(t):
                        break
                accepted = t, point
            step, (w, b, current, z) = accepted
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

"""L2-regularised logistic regression fitted by Newton's method.

Objective (the intercept is not penalised)::

    J(w, b) = mean_i bce(y_i, sigmoid(x_i . w + b)) + l2 / (2 n) * ||w||^2

Each iteration takes the full gradient ``g`` over ``A = [X 1]`` and the
(d+1)-square Hessian ``H = A^T diag(p (1 - p)) A / n + diag(l2/n, ...,
l2/n, 0)``, and steps from ``(w, b)`` by ``-H^-1 g`` (iteratively
reweighted least squares, Hastie, Tibshirani & Friedman, *The Elements
of Statistical Learning*, 4.4.1).  It stops when the gradient norm drops
below ``tol``, or after ``max_iter`` iterations.

The solve is a Cholesky factorisation in numpy row operations, not
LAPACK.  A pivot not above ``1e-12`` of its diagonal entry marks a
direction without curvature (a zero column, or a column repeated, at
``l2 = 0``): its row and column drop out of the solve and its step
component is 0.

A halving guard keeps every step downhill: the full step is taken
unless it fails to lower ``J``; then it is halved, up to 30 times, and
when no halving lowers ``J`` either the fit stops, at its minimum
within rounding.

An iteration costs about ``n d^2`` for the Hessian and ``d^3 / 3`` for
the solve.  A first-order descent pays ``n d`` per objective evaluation
and needs thousands of them on these inputs, so Newton is the cheaper
while ``d`` stays below a few hundred: the stack's logistic regression
sees the selected columns (25-31 on the benchmark's splits), a single
model the schema's (39), and each converges in 5-7 iterations.  The
start point is zero, so training is deterministic; ``seed`` exists only
for interface uniformity with the other families.
"""

from __future__ import annotations

from typing import Annotated

import numpy as np

from .base import BaseModel, check_predict_input, check_X_y
from .boosting import sigmoid

# a pivot at most this fraction of its diagonal entry has no curvature
_FLAT = 1e-12
# a step halved this often and still not lowering J ends the fit
_HALVINGS = 30


def _newton_step(H: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``H^-1 g`` for a positive semi-definite ``H``, 0 along each flat pivot."""
    # Cholesky, H = L L^T, a column at a time from the Schur complement
    schur = H.copy()
    L = np.zeros_like(H)
    for k in range(g.size):
        if schur[k, k] > _FLAT * H[k, k]:
            L[k:, k] = schur[k:, k] / np.sqrt(schur[k, k])
            schur[k:, k:] -= np.multiply.outer(L[k:, k], L[k:, k])
    # L y = g, then L^T s = y, each in place
    s = g.copy()
    for k in range(g.size):
        s[k] = s[k] / L[k, k] if L[k, k] else 0.0
        s[k + 1:] -= L[k + 1:, k] * s[k]
    for k in reversed(range(g.size)):
        s[k] = s[k] / L[k, k] if L[k, k] else 0.0
        s[:k] -= L[k, :k] * s[k]
    return s


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
        A = np.column_stack([Xr, np.ones(n)])
        ridge = np.append(np.full(d, self.l2 / n), 0.0)

        def objective(theta: np.ndarray) -> tuple[float, np.ndarray]:
            z = A @ theta
            # bce = log(1 + e^z) - y z, stable in both tails
            bce = np.logaddexp(0.0, z) - labels * z
            w = theta[:d]
            return float(bce.mean() + self.l2 / (2.0 * n) * w @ w), z

        theta = np.zeros(d + 1)
        current, z = objective(theta)
        iterations = 0
        for _ in range(self.max_iter):
            p = sigmoid(z)
            grad = A.T @ (p - labels) / n + ridge * theta
            if np.sqrt(grad @ grad) < self.tol:
                break
            hessian = A.T @ (A * (p * (1.0 - p))[:, None]) / n + np.diag(ridge)
            step = _newton_step(hessian, grad)
            for halving in range(_HALVINGS + 1):
                candidate = theta - 0.5**halving * step
                value, z_next = objective(candidate)
                if value < current:
                    break
            else:
                break  # no step lowers J: its minimum within rounding
            theta, current, z = candidate, value, z_next
            iterations += 1
        self.coef_ = theta[:d]
        self.intercept_ = float(theta[d])
        self.n_iter_ = iterations
        self.n_features_ = d
        return self

    def decision_function(self, X) -> np.ndarray:
        # einsum, not BLAS, so a row scores the same alone or in a batch
        X = check_predict_input(self, X)
        return np.einsum("ij,j->i", X, self.coef_) + self.intercept_

    def predict_proba(self, X) -> np.ndarray:
        return sigmoid(self.decision_function(X))

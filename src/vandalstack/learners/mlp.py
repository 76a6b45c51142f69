"""Single-hidden-layer perceptron: 100 ReLU units, logistic output.

Trained on mean log-loss plus an L2 penalty on the weight matrices, with
mini-batch Adam (step 1e-3, batch 32, at most 200 epochs) and early stop
when the full training loss stops improving.  The parameters live in one
flat vector so the analytic gradient in :func:`loss_and_grad` can be
checked directly against finite differences.
"""

from __future__ import annotations

import numpy as np

from ..rng import derive_seed, generator
from .base import BaseModel, check_predict_input, check_X_y
from .boosting import sigmoid


def pack_params(W1: np.ndarray, b1: np.ndarray, w2: np.ndarray, b2: float) -> np.ndarray:
    return np.concatenate([W1.ravel(), b1, w2, [b2]])


def unpack_params(theta: np.ndarray, d: int, h: int):
    W1 = theta[: d * h].reshape(d, h)
    b1 = theta[d * h : d * h + h]
    w2 = theta[d * h + h : d * h + 2 * h]
    b2 = float(theta[-1])
    return W1, b1, w2, b2


def init_params(d: int, h: int, rng: np.random.Generator) -> np.ndarray:
    limit1 = np.sqrt(6.0 / (d + h))
    limit2 = np.sqrt(6.0 / (h + 1))
    W1 = rng.uniform(-limit1, limit1, size=(d, h))
    w2 = rng.uniform(-limit2, limit2, size=h)
    return pack_params(W1, np.zeros(h), w2, 0.0)


def loss_and_grad(
    theta: np.ndarray, X, y: np.ndarray, d: int, h: int, alpha: float
) -> tuple[float, np.ndarray]:
    """Mean log-loss + (alpha/2)(||W1||^2 + ||w2||^2) and its gradient.

    ``X`` is a dense n x d float64 array; biases are unpenalised.
    """
    W1, b1, w2, b2 = unpack_params(theta, d, h)
    n = y.shape[0]
    Z1 = X @ W1 + b1
    A1 = np.maximum(Z1, 0.0)
    z2 = A1 @ w2 + b2
    p = sigmoid(z2)
    loss = float(
        np.mean(np.logaddexp(0.0, z2) - y * z2)
        + 0.5 * alpha * (np.sum(W1 * W1) + np.sum(w2 * w2))
    )
    dz2 = (p - y) / n
    grad_w2 = A1.T @ dz2 + alpha * w2
    grad_b2 = float(dz2.sum())
    dA1 = np.outer(dz2, w2)
    dZ1 = dA1 * (Z1 > 0.0)
    grad_W1 = X.T @ dZ1 + alpha * W1
    grad_b1 = dZ1.sum(axis=0)
    return loss, pack_params(grad_W1, grad_b1, grad_w2, grad_b2)


class MLPClassifier(BaseModel):
    def __init__(
        self,
        hidden_units: int = 100,
        learning_rate: float = 1e-3,
        batch_size: int = 32,
        max_epochs: int = 200,
        alpha: float = 1e-4,
        tol: float = 1e-5,
        patience: int = 10,
        seed: int = 0,
    ):
        self.hidden_units = hidden_units
        self.learning_rate = learning_rate
        self.batch_size = batch_size
        self.max_epochs = max_epochs
        self.alpha = alpha
        self.tol = tol
        self.patience = patience
        self.seed = seed

    def fit(self, X, y) -> "MLPClassifier":
        if self.hidden_units < 1:
            raise ValueError("hidden_units must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        Xr, labels = check_X_y(X, y)
        n, d = Xr.shape
        h = self.hidden_units
        rng = generator(derive_seed(self.seed, "mlp-init", 0))
        theta = init_params(d, h, rng)

        first_moment = np.zeros_like(theta)
        second_moment = np.zeros_like(theta)
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        step_count = 0

        best_loss = np.inf
        stale_epochs = 0
        batch = max(1, min(self.batch_size, n))
        for epoch in range(self.max_epochs):
            order = rng.permutation(n)
            for start in range(0, n, batch):
                rows = order[start : start + batch]
                _, grad = loss_and_grad(
                    theta, Xr[rows], labels[rows], d, h, self.alpha
                )
                step_count += 1
                first_moment = beta1 * first_moment + (1 - beta1) * grad
                second_moment = beta2 * second_moment + (1 - beta2) * grad * grad
                m_hat = first_moment / (1 - beta1**step_count)
                v_hat = second_moment / (1 - beta2**step_count)
                theta = theta - self.learning_rate * m_hat / (np.sqrt(v_hat) + eps)
            epoch_loss, _ = loss_and_grad(theta, Xr, labels, d, h, self.alpha)
            if epoch_loss < best_loss - self.tol:
                best_loss = epoch_loss
                stale_epochs = 0
            else:
                stale_epochs += 1
                if stale_epochs >= self.patience:
                    break
        self.theta_ = theta
        self.n_epochs_ = epoch + 1
        self.train_loss_ = best_loss
        self.n_features_ = d
        return self

    def predict_proba(self, X) -> np.ndarray:
        # einsum, not BLAS: BLAS picks gemv for one row and gemm for a block,
        # which can round differently, and a row must score bit for bit the
        # same alone (the streaming client) as in a batch (offline predict).
        X = check_predict_input(self, X)
        W1, b1, w2, b2 = unpack_params(self.theta_, self.n_features_, self.hidden_units)
        A1 = np.maximum(np.einsum("ij,jk->ik", X, W1) + b1, 0.0)
        return sigmoid(np.einsum("ij,j->i", A1, w2) + b2)

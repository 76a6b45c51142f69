"""Single-hidden-layer perceptron: 100 ReLU units, logistic output.

Trained on mean log-loss plus an L2 penalty on the weight matrices, with
mini-batch Adam (step 1e-3, batch 32, at most 200 epochs) and early stop
when the full training loss stops improving.  The parameters live in one
flat vector so the analytic gradient in :func:`loss_and_grad` can be
checked directly against finite differences.  A mini-batch step
computes only :func:`gradient`, and the end-of-epoch check only
:func:`forward`'s loss; :func:`loss_and_grad` is the two together.
"""

from __future__ import annotations

from typing import Annotated

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


def activations(theta: np.ndarray, X, d: int, h: int) -> tuple:
    """``(W1, w2, Z1, A1, z2)``: the weights the loss penalises and each layer's values."""
    W1, b1, w2, b2 = unpack_params(theta, d, h)
    Z1 = X @ W1 + b1
    A1 = np.maximum(Z1, 0.0)
    return W1, w2, Z1, A1, A1 @ w2 + b2


def forward(
    theta: np.ndarray, X, y: np.ndarray, d: int, h: int, alpha: float
) -> tuple[float, tuple]:
    """Mean log-loss + (alpha/2)(||W1||^2 + ||w2||^2), and the :func:`activations`.

    ``X`` is a dense n x d float64 array; biases are unpenalised.
    """
    acts = W1, w2, _, _, z2 = activations(theta, X, d, h)
    loss = float(
        np.mean(np.logaddexp(0.0, z2) - y * z2)
        + 0.5 * alpha * (np.sum(W1 * W1) + np.sum(w2 * w2))
    )
    return loss, acts


def gradient(
    X, y: np.ndarray, alpha: float, acts: tuple, out: np.ndarray
) -> np.ndarray:
    """The gradient of :func:`forward`'s loss, from its ``acts``, written into ``out``."""
    W1, w2, Z1, A1, z2 = acts
    d, h = W1.shape
    dz2 = (sigmoid(z2) - y) / y.shape[0]
    np.add(A1.T @ dz2, alpha * w2, out=out[d * h + h : d * h + 2 * h])
    out[-1] = dz2.sum()
    dZ1 = np.outer(dz2, w2) * (Z1 > 0.0)
    np.add(X.T @ dZ1, alpha * W1, out=out[: d * h].reshape(d, h))
    dZ1.sum(axis=0, out=out[d * h : d * h + h])
    return out


def loss_and_grad(
    theta: np.ndarray, X, y: np.ndarray, d: int, h: int, alpha: float
) -> tuple[float, np.ndarray]:
    """The loss of :func:`forward` and its :func:`gradient`."""
    loss, acts = forward(theta, X, y, d, h, alpha)
    return loss, gradient(X, y, alpha, acts, np.empty_like(theta))


class MLPClassifier(BaseModel):
    def __init__(
        self,
        hidden_units: Annotated[int, ">= 1"] = 100,
        learning_rate: Annotated[float, "> 0"] = 1e-3,
        batch_size: int = 32,
        max_epochs: Annotated[int, ">= 1"] = 200,
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
        self._check_params()
        Xr, labels = check_X_y(X, y)
        n, d = Xr.shape
        h = self.hidden_units
        rng = generator(derive_seed(self.seed, "mlp-init", 0))
        theta = init_params(d, h, rng)

        # Adam's moments and step, updated in place in the order of
        # m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g and
        # theta -= lr (m / (1 - b1^t)) / (sqrt(v / (1 - b2^t)) + eps)
        first_moment = np.zeros_like(theta)
        second_moment = np.zeros_like(theta)
        grad, scratch, step = (np.empty_like(theta) for _ in range(3))
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        step_count = 0

        best_loss = np.inf
        stale_epochs = 0
        batch = max(1, min(self.batch_size, n))
        for epoch in range(self.max_epochs):
            order = rng.permutation(n)
            for start in range(0, n, batch):
                rows = order[start : start + batch]
                Xb = Xr[rows]
                gradient(Xb, labels[rows], self.alpha, activations(theta, Xb, d, h), grad)
                step_count += 1
                first_moment *= beta1
                first_moment += np.multiply(grad, 1 - beta1, out=scratch)
                second_moment *= beta2
                np.multiply(grad, 1 - beta2, out=scratch)
                second_moment += np.multiply(scratch, grad, out=scratch)
                np.divide(first_moment, 1 - beta1**step_count, out=step)
                step *= self.learning_rate
                np.divide(second_moment, 1 - beta2**step_count, out=scratch)
                np.sqrt(scratch, out=scratch)
                scratch += eps
                theta -= np.divide(step, scratch, out=step)
            epoch_loss, _ = forward(theta, Xr, labels, d, h, self.alpha)
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
        # the bias and ReLU in place on the first einsum's output: one n x h
        # temporary, not three
        A1 = np.einsum("ij,jk->ik", X, W1)
        A1 += b1
        np.maximum(A1, 0.0, out=A1)
        return sigmoid(np.einsum("ij,j->i", A1, w2) + b2)

"""One-hidden-layer network: gradient correctness and training behaviour."""

import hashlib

import numpy as np
import pytest
from scipy import sparse

from tests._util import auc_bruteforce
from vandalstack.learners.mlp import (
    MLPClassifier,
    forward,
    init_params,
    loss_and_grad,
    pack_params,
    unpack_params,
)
from vandalstack.rng import generator


def fd_gradient(theta, X, y, d, h, alpha, step=1e-5):
    grad = np.empty_like(theta)
    for i in range(theta.size):
        up = theta.copy()
        dn = theta.copy()
        up[i] += step
        dn[i] -= step
        lu, _ = loss_and_grad(up, X, y, d, h, alpha)
        ld, _ = loss_and_grad(dn, X, y, d, h, alpha)
        grad[i] = (lu - ld) / (2.0 * step)
    return grad


def test_pack_unpack_round_trip():
    rng = np.random.default_rng(0)
    W1 = rng.normal(size=(4, 3))
    b1 = rng.normal(size=3)
    w2 = rng.normal(size=3)
    b2 = 0.7
    theta = pack_params(W1, b1, w2, b2)
    assert theta.size == 4 * 3 + 3 + 3 + 1
    uW1, ub1, uw2, ub2 = unpack_params(theta, 4, 3)
    assert np.array_equal(uW1, W1)
    assert np.array_equal(ub1, b1)
    assert np.array_equal(uw2, w2)
    assert ub2 == b2


def test_gradient_matches_central_differences():
    d, h, n = 7, 5, 20
    rng = np.random.default_rng(1)
    X = rng.normal(size=(n, d))
    y = rng.integers(0, 2, size=n).astype(np.float64)
    for point in range(10):
        theta = init_params(d, h, generator(100 + point))
        theta += 0.1 * rng.normal(size=theta.size)  # move off any flat init
        _, grad = loss_and_grad(theta, X, y, d, h, alpha=1e-4)
        approx = fd_gradient(theta, X, y, d, h, alpha=1e-4)
        rel = np.linalg.norm(approx - grad) / max(1.0, np.linalg.norm(grad))
        assert rel < 1e-4


def test_gradient_sparse_input_agrees_with_dense():
    d, h, n = 6, 4, 15
    rng = np.random.default_rng(2)
    Xd = rng.normal(size=(n, d)) * (rng.random((n, d)) < 0.5)
    Xs = sparse.csr_matrix(Xd)
    y = rng.integers(0, 2, size=n).astype(np.float64)
    theta = init_params(d, h, generator(3))
    loss_d, grad_d = loss_and_grad(theta, Xd, y, d, h, alpha=1e-4)
    loss_s, grad_s = loss_and_grad(theta, Xs, y, d, h, alpha=1e-4)
    assert loss_s == pytest.approx(loss_d, rel=1e-12)
    assert np.allclose(grad_s, grad_d, atol=1e-12)


def test_regulariser_leaves_biases_alone():
    d, h = 3, 2
    theta = pack_params(np.zeros((d, h)), np.array([5.0, -5.0]), np.zeros(h), 9.0)
    y = np.array([1.0, 0.0])
    X = np.zeros((2, d))
    loss_a, _ = loss_and_grad(theta, X, y, d, h, alpha=0.0)
    loss_b, _ = loss_and_grad(theta, X, y, d, h, alpha=10.0)
    assert loss_a == loss_b  # only weights are penalised, all zero here


def two_clusters(rng, n=120, d=4, gap=3.0):
    y = rng.integers(0, 2, size=n)
    X = rng.normal(size=(n, d)) + gap * y[:, None]
    return X, y


def test_fit_learns_separated_clusters():
    rng = np.random.default_rng(3)
    X, y = two_clusters(rng)
    model = MLPClassifier(hidden_units=8, max_epochs=60, seed=0).fit(X, y)
    assert auc_bruteforce(y, model.predict_proba(X)) > 0.9


def test_fit_deterministic_and_seed_sensitive():
    rng = np.random.default_rng(4)
    X, y = two_clusters(rng, n=60)
    kw = dict(hidden_units=5, max_epochs=15)
    a = MLPClassifier(seed=7, **kw).fit(X, y).predict_proba(X)
    b = MLPClassifier(seed=7, **kw).fit(X, y).predict_proba(X)
    c = MLPClassifier(seed=8, **kw).fit(X, y).predict_proba(X)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_single_row_prediction_matches_batch():
    rng = np.random.default_rng(5)
    X, y = two_clusters(rng, n=50)
    model = MLPClassifier(hidden_units=6, max_epochs=10, seed=1).fit(X, y)
    batch = model.predict_proba(X)
    rows = np.concatenate([model.predict_proba(X[i : i + 1]) for i in range(50)])
    assert np.array_equal(batch, rows)
    Xs = sparse.csr_matrix(X)
    rows_sparse = np.concatenate(
        [model.predict_proba(Xs[i]) for i in range(50)]
    )
    assert np.array_equal(batch, rows_sparse)


def test_probabilities_bounded():
    rng = np.random.default_rng(6)
    X, y = two_clusters(rng, n=40, gap=30.0)
    p = MLPClassifier(hidden_units=4, max_epochs=40, seed=0).fit(X, y).predict_proba(X * 10)
    assert np.all(p >= 0) and np.all(p <= 1)


def test_single_class_training_is_legal():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(30, 3))
    model = MLPClassifier(hidden_units=4, max_epochs=200, seed=0).fit(X, np.ones(30, dtype=int))
    p = model.predict_proba(X)
    assert np.all((p >= 0) & (p <= 1))
    assert p.mean() > 0.75


def test_early_stop_plateau():
    # with a coarse tolerance the per-epoch improvement quickly drops below
    # it, so the patience counter must end training well before the cap
    rng = np.random.default_rng(8)
    X, y = two_clusters(rng, n=80, gap=50.0)
    model = MLPClassifier(
        hidden_units=4, tol=0.05, patience=3, max_epochs=200, seed=0
    ).fit(X, y)
    assert model.n_epochs_ < model.max_epochs


def test_invalid_hidden_units():
    with pytest.raises(ValueError):
        MLPClassifier(hidden_units=0).fit(np.zeros((4, 2)), np.array([0, 1, 0, 1]))


def test_forward_loss_is_the_loss_of_loss_and_grad():
    # the end-of-epoch check runs forward alone; its loss must be the one
    # the gradient step reports, bit for bit
    d, h, n = 5, 7, 33
    rng = np.random.default_rng(9)
    X = rng.normal(size=(n, d)) * np.array([1e-3, 1.0, 10.0, 100.0, 1.0])
    y = rng.integers(0, 2, size=n).astype(np.float64)
    for point in range(5):
        theta = init_params(d, h, generator(200 + point)) + rng.normal(size=(d + 2) * h + 1)
        loss, _ = forward(theta, X, y, d, h, alpha=1e-4)
        want, _ = loss_and_grad(theta, X, y, d, h, alpha=1e-4)
        assert np.float64(loss).tobytes() == np.float64(want).tobytes()


def test_seeded_fit_is_pinned():
    # digest of theta_ from the fit loop that called loss_and_grad for the
    # end-of-epoch loss (numpy 2.4, x86-64); it stops early, at epoch 60
    rng = np.random.default_rng(20)
    n, d = 90, 5
    X = rng.normal(size=(n, d))
    y = (X[:, 0] + 0.5 * X[:, 1] + 0.8 * rng.normal(size=n) > 0).astype(int)
    model = MLPClassifier(
        hidden_units=6, learning_rate=0.02, max_epochs=100, patience=3, tol=1e-3, seed=3
    ).fit(X, y)
    digest = hashlib.sha256(model.theta_.tobytes()).hexdigest()
    assert digest == "f00ea4363763e4919cfabc096e74f68ca254c08824a6a067ea2ed8cafb712afc"
    assert model.n_epochs_ == 60
    assert model.train_loss_.hex() == "0x1.b4c4113549ee7p-3"

"""Gradient-boosted trees: staged loss, hand-checked priors, XOR."""

import numpy as np
import pytest

from tests._util import auc_bruteforce
from vandalstack.learners.boosting import (
    GradientBoostingClassifier,
    log_loss,
    sigmoid,
)


def test_sigmoid_stable_at_extremes():
    z = np.array([-1000.0, -30.0, 0.0, 30.0, 1000.0])
    p = sigmoid(z)
    assert np.all(np.isfinite(p))
    assert p[0] == 0.0 or p[0] < 1e-300
    assert p[2] == 0.5
    assert p[4] == pytest.approx(1.0)
    assert np.all(np.diff(p) >= 0)


def test_log_loss_handles_hard_zero_one():
    y = np.array([1.0, 0.0])
    assert np.isfinite(log_loss(y, np.array([0.0, 1.0])))
    assert log_loss(np.array([1.0]), np.array([1.0])) == pytest.approx(0.0, abs=1e-10)


def test_zero_rounds_returns_base_rate():
    X = np.random.default_rng(0).random((8, 3))
    y = np.array([1, 0, 0, 0, 1, 0, 0, 0])
    model = GradientBoostingClassifier(n_estimators=0).fit(X, y)
    p = model.predict_proba(X)
    assert np.all(np.abs(p - 0.25) < 1e-12)


def test_training_loss_never_increases():
    rng = np.random.default_rng(1)
    X = rng.random((150, 5))
    logits = 3.0 * (X[:, 0] - 0.5) + X[:, 1] - X[:, 2]
    y = (rng.random(150) < sigmoid(logits)).astype(np.int64)
    model = GradientBoostingClassifier().fit(X, y)
    losses = model.train_losses_
    assert len(losses) == model.n_estimators + 1
    assert np.all(np.diff(losses) <= 1e-12)
    # round m's recorded loss matches the loss of the staged model
    p = model.predict_proba(X)
    assert losses[-1] == pytest.approx(log_loss(y.astype(float), p), abs=1e-9)


def test_default_model_separates_xor():
    base = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    X = np.tile(base, (25, 1))
    y = np.tile(np.array([0, 1, 1, 0]), 25)
    model = GradientBoostingClassifier().fit(X, y)
    scores = model.predict_proba(X)
    assert auc_bruteforce(y, scores) == 1.0


def test_fit_is_deterministic_and_seed_sensitive():
    rng = np.random.default_rng(2)
    X = rng.random((80, 6)) * (rng.random((80, 6)) < 0.5)
    y = (X[:, 0] > 0.3).astype(np.int64)
    kw = dict(n_estimators=12, max_depth=2)
    a = GradientBoostingClassifier(seed=0, **kw).fit(X, y).predict_proba(X)
    b = GradientBoostingClassifier(seed=0, **kw).fit(X, y).predict_proba(X)
    assert np.array_equal(a, b)
    # every split is the exact best over all features: the seed is inert
    c = GradientBoostingClassifier(seed=5, **kw).fit(X, y).predict_proba(X)
    assert np.array_equal(a, c)


def test_fit_makes_no_random_generator(monkeypatch):
    made = []
    pcg64 = np.random.PCG64
    monkeypatch.setattr(np.random, "PCG64", lambda *args: made.append(args) or pcg64(*args))
    rng = np.random.default_rng(2)
    X = rng.random((80, 6))
    y = (X[:, 0] > 0.3).astype(np.int64)
    GradientBoostingClassifier(n_estimators=12, max_depth=2, seed=3).fit(X, y)
    assert made == []


def test_single_class_converges_to_confident_prediction():
    X = np.random.default_rng(3).random((12, 2))
    model = GradientBoostingClassifier(n_estimators=30).fit(X, np.ones(12, dtype=int))
    assert np.all(model.predict_proba(X) > 0.999)
    model = GradientBoostingClassifier(n_estimators=30).fit(X, np.zeros(12, dtype=int))
    assert np.all(model.predict_proba(X) < 0.001)


def test_decision_function_matches_proba():
    rng = np.random.default_rng(4)
    X = rng.random((40, 3))
    y = (X[:, 1] > 0.5).astype(np.int64)
    model = GradientBoostingClassifier(n_estimators=5).fit(X, y)
    z = model.decision_function(X)
    assert np.array_equal(sigmoid(z), model.predict_proba(X))


def test_validation_errors():
    X = np.random.default_rng(5).random((6, 2))
    with pytest.raises(ValueError):
        GradientBoostingClassifier(n_estimators=-1).fit(X, np.array([0, 1] * 3))
    with pytest.raises(ValueError):
        GradientBoostingClassifier(learning_rate=0.0).fit(X, np.array([0, 1] * 3))
    with pytest.raises(ValueError):
        GradientBoostingClassifier().fit(X, np.array([0, 1, 2, 0, 1, 2]))

"""L2-regularised logistic regression trained by backtracking descent."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from vandalstack.learners.boosting import sigmoid
from vandalstack.learners.linear import LogisticRegression


def fitted_objective(model, X, y):
    """The training objective, recomputed from the definition."""
    z = X @ model.coef_ + model.intercept_
    # mean binary cross-entropy via the numerically-stable log1p(exp) form
    bce = np.mean(np.logaddexp(0.0, z) - y * z)
    n = X.shape[0]
    return bce + model.l2 / (2.0 * n) * float(model.coef_ @ model.coef_)


def test_separable_point_pin():
    X = np.array([[0.0]] * 50 + [[1.0]] * 50)
    y = np.array([0] * 50 + [1] * 50)
    model = LogisticRegression().fit(X, y)
    p = model.predict_proba(np.array([[0.0], [1.0]]))
    assert p[1] > 0.5 > p[0]


def test_fit_reaches_a_local_minimum_of_the_stated_objective():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(120, 4))
    y = (X @ np.array([1.0, -2.0, 0.5, 0.0]) + 0.3 * rng.normal(size=120) > 0).astype(int)
    model = LogisticRegression().fit(X, y)
    base = fitted_objective(model, X, y)
    for _ in range(20):
        direction = rng.normal(size=4)
        direction /= np.linalg.norm(direction)
        for eps in (1e-3, 1e-2):
            bumped = LogisticRegression()
            bumped.l2 = model.l2
            bumped.coef_ = model.coef_ + eps * direction
            bumped.intercept_ = model.intercept_
            assert fitted_objective(bumped, X, y) >= base - 1e-9
            bumped.coef_ = model.coef_
            bumped.intercept_ = model.intercept_ + eps
            assert fitted_objective(bumped, X, y) >= base - 1e-9


def test_stronger_regularisation_shrinks_weights():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(100, 3))
    y = (X[:, 0] > 0).astype(int)
    weak = LogisticRegression(l2=0.01).fit(X, y)
    strong = LogisticRegression(l2=100.0).fit(X, y)
    assert np.linalg.norm(strong.coef_) < np.linalg.norm(weak.coef_)


def test_intercept_not_penalised():
    # a 9:1 constant-feature dataset: the optimal intercept is the prior
    # log-odds no matter how hard the weights are regularised
    X = np.zeros((100, 1))
    y = np.array([1] * 90 + [0] * 10)
    model = LogisticRegression(l2=1e6).fit(X, y)
    assert model.intercept_ == pytest.approx(np.log(9.0), abs=1e-3)


def test_deterministic_without_seed_dependence():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(60, 3))
    y = (X[:, 1] > 0).astype(int)
    a = LogisticRegression(seed=0).fit(X, y)
    b = LogisticRegression(seed=99).fit(X, y)
    assert np.array_equal(a.coef_, b.coef_)
    assert a.intercept_ == b.intercept_


def test_sparse_and_dense_agree():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(80, 4)) * (rng.random((80, 4)) < 0.5)
    y = (X[:, 0] > 0).astype(int)
    dense = LogisticRegression().fit(X, y)
    sp = LogisticRegression().fit(sparse.csr_matrix(X), y)
    assert np.allclose(dense.coef_, sp.coef_, atol=1e-12)
    assert np.allclose(
        dense.predict_proba(X), sp.predict_proba(sparse.csr_matrix(X)), atol=1e-12
    )


def test_probabilities_within_unit_interval():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(50, 2)) * 10
    y = (X[:, 0] > 0).astype(int)
    p = LogisticRegression().fit(X, y).predict_proba(X * 100)
    assert np.all(p >= 0) and np.all(p <= 1)


def test_non_binary_labels_rejected():
    X = np.zeros((4, 2))
    with pytest.raises(ValueError):
        LogisticRegression().fit(X, np.array([0, 1, 2, 1]))
    with pytest.raises(ValueError):
        LogisticRegression().fit(X, np.array([0.0, 0.5, 1.0, 1.0]))


def cold_start_fit(X, y, l2, max_iter, tol):
    """The line search as first written: every iteration starts at step 1.

    Returns ``(coef, intercept, n_iter, floor_steps)``; ``floor_steps``
    counts the iterations where no step above 1e-14 passed and the last
    tried one was taken.
    """
    Xr = np.asarray(X, dtype=np.float64)
    labels = np.asarray(y, dtype=np.float64)
    n, d = Xr.shape
    w = np.zeros(d)
    b = 0.0

    def objective(wv, bv):
        z = Xr @ wv + bv
        bce = np.logaddexp(0.0, z) - labels * z
        return float(bce.mean() + l2 / (2.0 * n) * wv @ wv)

    iterations = floor_steps = 0
    for _ in range(max_iter):
        z = Xr @ w + b
        p = sigmoid(z)
        grad_w = Xr.T @ (p - labels) / n + l2 * w / n
        grad_b = float((p - labels).mean())
        grad_sq = float(grad_w @ grad_w) + grad_b * grad_b
        if np.sqrt(grad_sq) < tol:
            break
        current = objective(w, b)
        step = 1.0
        passed = False
        while step > 1e-14:
            w_next = w - step * grad_w
            b_next = b - step * grad_b
            if objective(w_next, b_next) <= current - 1e-4 * step * grad_sq:
                passed = True
                break
            step *= 0.5
        floor_steps += not passed
        w, b = w_next, b_next
        iterations += 1
    return w, b, iterations, floor_steps


def assert_fit_is_the_cold_start_fit(X, y, l2, max_iter, tol=1e-6):
    model = LogisticRegression(l2=l2, max_iter=max_iter, tol=tol).fit(X, y)
    coef, intercept, n_iter, floor_steps = cold_start_fit(X, y, l2, max_iter, tol)
    assert model.coef_.tobytes() == coef.tobytes()
    assert np.float64(model.intercept_).tobytes() == np.float64(intercept).tobytes()
    assert model.n_iter_ == n_iter
    return floor_steps


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 40),
    st.lists(st.integers(-3, 9), min_size=1, max_size=5),
    st.sampled_from((0.0, 1.0, 100.0)),
    st.sampled_from((0, 1, 3, 40, 300)),
    st.sampled_from((1e-6, 1e-2)),
)
# rounding decides the Armijo test here: in iteration 39 the steps 2^-41
# and 2^-43 pass and 2^-42 fails, so a walk up that stopped at the first
# failure would take 2^-43 where a search from 1 takes 2^-41
@example(seed=1, n=19, exponents=[7], l2=0.0, max_iter=40, tol=1e-6)
def test_warm_started_search_takes_the_cold_start_steps(seed, n, exponents, l2, max_iter, tol):
    # columns scaled by 10^-3 .. 10^9: the accepted step then ranges over
    # many powers of two, moves between iterations, and at the top scales
    # reaches the 1e-14 floor
    rng = np.random.default_rng(seed)
    scale = 10.0 ** np.array(exponents, dtype=np.float64)
    X = rng.normal(size=(n, scale.size)) * scale
    y = (X @ (rng.normal(size=scale.size) / scale) + rng.normal(size=n) > 0).astype(int)
    assert_fit_is_the_cold_start_fit(X, y, l2, max_iter, tol)


def test_warm_started_search_takes_the_floor_step_when_none_passes():
    # a column of order 1e9: in 14 of 30 iterations every step above 1e-14
    # overshoots, and the last tried step, 2^-46, is taken; the search
    # walks up from there in the others
    rng = np.random.default_rng(5)
    X = np.column_stack([rng.normal(size=30) * 1e9, rng.normal(size=30)])
    y = (X[:, 1] > 0).astype(int)
    with np.errstate(over="ignore"):
        assert assert_fit_is_the_cold_start_fit(X, y, l2=1.0, max_iter=30) == 14

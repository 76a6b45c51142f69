"""L2-regularised logistic regression fitted by Newton's method.

The fit is checked against its objective: as low as ``scipy.optimize``
gets it over columns scaled 10^-3 .. 10^9, an early stop only at ``tol``
or where no step lowers it, every step downhill, and finite, no worse
than the start, on degenerate inputs (flat directions, one class, one
row).
"""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.optimize import minimize

from vandalstack.learners.boosting import sigmoid
from vandalstack.learners.linear import LogisticRegression, _newton_step


def objective(X, y, l2, theta):
    """``J`` and its gradient at ``theta = (w, b)``, from the definition."""
    n, d = X.shape
    w, b = theta[:d], theta[d]
    z = X @ w + b
    p = sigmoid(z)
    # mean binary cross-entropy via the numerically-stable log1p(exp) form
    value = np.mean(np.logaddexp(0.0, z) - y * z) + l2 / (2.0 * n) * w @ w
    return value, np.append(X.T @ (p - y) / n + l2 * w / n, np.mean(p - y))


def fitted(model):
    return np.append(model.coef_, model.intercept_)


def fitted_objective(model, X, y):
    return objective(X, y, model.l2, fitted(model))[0]


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


def scaled_family(seed, n, exponents):
    """Gaussian columns scaled by 10^exponents, and noisy labels of a linear rule."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** np.array(exponents, dtype=np.float64)
    X = rng.normal(size=(n, scale.size)) * scale
    y = (X @ (rng.normal(size=scale.size) / scale) + rng.normal(size=n) > 0).astype(int)
    return X, y, scale


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 40),
    st.lists(st.integers(-3, 9), min_size=1, max_size=5),
    st.sampled_from((0.0, 1.0, 100.0)),
)
# a column of order 1e9 at l2 = 1: the fit stops where no step lowers J,
# with a gradient norm of 0.46 that rounding in J cannot resolve
@example(seed=3087315779, n=36, exponents=[9], l2=1.0)
def test_fit_is_as_low_as_scipy_and_stops_early_only_at_tol_or_its_minimum(seed, n, exponents, l2):
    X, y, scale = scaled_family(seed, n, exponents)
    # tol = -1: the fit runs until no step lowers J
    lowest = LogisticRegression(l2=l2, tol=-1.0).fit(X, y)
    # scipy, in coordinates where every column has unit scale
    unit = np.append(scale, 1.0)
    reference = minimize(
        lambda t: objective(X, y, l2, t / unit)[0],
        np.zeros(unit.size),
        jac=lambda t: objective(X, y, l2, t / unit)[1] / unit,
        method="BFGS",
    )
    value = objective(X, y, l2, fitted(lowest))[0]
    assert value <= reference.fun + 1e-9 * (1.0 + reference.fun)
    model = LogisticRegression(l2=l2).fit(X, y)
    if model.n_iter_ < model.max_iter:
        grad = objective(X, y, l2, fitted(model))[1]
        # a stop short of tol is where the tol = -1 fit stops too
        assert np.sqrt(grad @ grad) < model.tol or np.array_equal(fitted(model), fitted(lowest))


def test_every_iteration_lowers_the_objective():
    # nearly separable at l2 = 0: in iteration 7 the full Newton step
    # raises J from 0.1705 to 0.2194, and the halving guard takes half of it
    X, y, _ = scaled_family(955592779, 11, [0, 1, -2])
    fits = [LogisticRegression(l2=0.0, max_iter=k).fit(X, y) for k in range(8)]
    assert [model.n_iter_ for model in fits] == list(range(8))
    values = [objective(X, y, 0.0, fitted(model))[0] for model in fits]
    assert all(after < before for before, after in zip(values, values[1:]))
    theta = fitted(fits[6])
    A = np.column_stack([X, np.ones(len(y))])
    p = sigmoid(A @ theta)
    hessian = A.T @ (A * (p * (1.0 - p))[:, None]) / len(y)
    full_step = _newton_step(hessian, objective(X, y, 0.0, theta)[1])
    assert objective(X, y, 0.0, theta - full_step)[0] > values[6]


def test_newton_step_solves_and_leaves_flat_directions_still():
    rng = np.random.default_rng(6)
    B = rng.normal(size=(9, 5))
    H, g = B.T @ B, rng.normal(size=5)
    assert np.allclose(_newton_step(H, g), np.linalg.solve(H, g), rtol=1e-12, atol=0)
    # a repeated column: the second copy has no curvature of its own
    C = np.column_stack([B, B[:, 2]])
    step = _newton_step(C.T @ C, C.T @ (B @ g))
    assert step[5] == 0.0
    assert np.allclose(step[:5], g, rtol=1e-9, atol=0)


def degenerate_inputs():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(30, 3))
    y = (X[:, 0] + rng.normal(size=30) > 0).astype(int)
    return {
        "zero column": (np.column_stack([X, np.zeros(30)]), y, dict(l2=0.0)),
        "repeated column": (np.column_stack([X, X[:, 1]]), y, dict(l2=0.0)),
        "one class": (X, np.ones(30, dtype=int), {}),
        "one row": (X[:1], y[:1], {}),
        "tol -1": (X, y, dict(tol=-1.0)),
    }


@pytest.mark.parametrize("name", list(degenerate_inputs()))
def test_degenerate_inputs_fit_finite_and_no_worse_than_zero(name):
    X, y, params = degenerate_inputs()[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = LogisticRegression(**params).fit(X, y)
    assert np.all(np.isfinite(fitted(model)))
    l2 = model.l2
    assert objective(X, y, l2, fitted(model))[0] <= objective(X, y, l2, np.zeros(X.shape[1] + 1))[0]
    assert model.n_iter_ < model.max_iter


def test_benchmark_shaped_fit_converges_in_a_few_iterations():
    # the stack's first-stage shape: 120 rows of 14 continuous columns
    # (ratios, and counts up to ~80) and 17 binary ones; 7 iterations here
    rng = np.random.default_rng(8)
    continuous = np.column_stack([rng.random((120, 10)), rng.lognormal(1.0, 1.2, size=(120, 4)).round()])
    X = np.column_stack([continuous, rng.random((120, 17)) < 0.2])
    y = (X @ rng.normal(size=31) * 0.5 + rng.logistic(size=120) > 0).astype(int)
    model = LogisticRegression().fit(X, y)
    grad = objective(X, y, model.l2, fitted(model))[1]
    assert model.n_iter_ <= 10 and np.sqrt(grad @ grad) < model.tol

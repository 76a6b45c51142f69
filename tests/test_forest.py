"""Bagged and extremely-randomised tree ensembles."""

import numpy as np
import pytest
from scipy import sparse

from tests._util import LocalTree, predict_dense, table_of, trees_from_lines
from vandalstack.errors import DimensionMismatch, NotFitted
from vandalstack.learners.forest import ExtraTreesClassifier, RandomForestClassifier
from vandalstack.learners.io import model_to_lines


def two_class_data(rng, n=120, d=4):
    X = rng.random((n, d))
    y = (X[:, 0] + 0.3 * X[:, 1] > 0.65).astype(np.int64)
    if y.min() == y.max():  # force both classes
        y[0] = 1 - y[0]
    return X, y


def test_single_tree_on_constant_features_returns_class_fraction():
    # no split possible, so the lone (unbootstrapped) tree is one leaf
    # holding the positive fraction of the training labels
    X = np.ones((4, 2))
    y = np.array([1, 1, 1, 0])
    model = ExtraTreesClassifier(n_estimators=1, seed=0).fit(X, y)
    scores = model.predict_proba(np.ones((3, 2)))
    assert np.array_equal(scores, np.full(3, 0.75))


def test_forest_prediction_is_mean_of_member_trees():
    rng = np.random.default_rng(0)
    X, y = two_class_data(rng)
    model = RandomForestClassifier(n_estimators=7, max_depth=4, seed=3).fit(X, y)
    Xq = rng.random((30, 4))
    members = trees_from_lines(model_to_lines(model))
    assert len(members) == 7
    member = np.mean([predict_dense(t, Xq) for t in members], axis=0)
    assert np.array_equal(model.predict_proba(Xq), member)


def test_hand_built_two_tree_forest_averages():
    model = RandomForestClassifier(n_estimators=2)
    model.nodes_ = table_of([LocalTree.leaf(0.5), LocalTree.leaf(1.0)])
    model.n_features_ = 3
    model.feature_importances_ = np.zeros(3)
    assert model.predict_proba(np.zeros((1, 3)))[0] == 0.75


def test_importances_normalise_and_find_signal():
    rng = np.random.default_rng(1)
    n = 200
    signal = rng.integers(0, 2, size=n).astype(np.float64)
    X = np.column_stack([signal, np.full(n, 2.0)])  # col 1 is constant
    y = signal.astype(np.int64)
    for cls in (RandomForestClassifier, ExtraTreesClassifier):
        model = cls(n_estimators=10, seed=5).fit(X, y)
        imp = model.feature_importances_
        assert imp.shape == (2,)
        assert np.all(imp >= 0)
        assert abs(imp.sum() - 1.0) < 1e-9
        assert imp[0] == pytest.approx(1.0)
        assert imp[1] == pytest.approx(0.0)


def test_importances_zero_vector_when_no_tree_splits():
    X = np.ones((6, 3))
    y = np.array([0, 1, 0, 1, 0, 1])
    model = RandomForestClassifier(n_estimators=4, seed=0).fit(X, y)
    assert np.array_equal(model.feature_importances_, np.zeros(3))


def test_fit_is_deterministic_and_seed_sensitive():
    rng = np.random.default_rng(2)
    X, y = two_class_data(rng)
    Xq = rng.random((25, 4))
    a = RandomForestClassifier(n_estimators=5, seed=11).fit(X, y).predict_proba(Xq)
    b = RandomForestClassifier(n_estimators=5, seed=11).fit(X, y).predict_proba(Xq)
    c = RandomForestClassifier(n_estimators=5, seed=12).fit(X, y).predict_proba(Xq)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_extra_trees_differ_from_random_forest():
    rng = np.random.default_rng(3)
    X, y = two_class_data(rng)
    Xq = rng.random(( 25, 4))
    rf = RandomForestClassifier(n_estimators=5, seed=1).fit(X, y).predict_proba(Xq)
    et = ExtraTreesClassifier(n_estimators=5, seed=1).fit(X, y).predict_proba(Xq)
    assert not np.array_equal(rf, et)


def test_single_class_training_predicts_that_class():
    X = np.random.default_rng(4).random((10, 3))
    model = RandomForestClassifier(n_estimators=3, seed=0).fit(X, np.ones(10, dtype=int))
    assert np.array_equal(model.predict_proba(X), np.ones(10))
    model = RandomForestClassifier(n_estimators=3, seed=0).fit(X, np.zeros(10, dtype=int))
    assert np.array_equal(model.predict_proba(X), np.zeros(10))


def test_sparse_and_dense_inputs_agree():
    rng = np.random.default_rng(5)
    X = rng.random((60, 4)) * (rng.random((60, 4)) < 0.5)
    y = (X[:, 0] > 0.2).astype(np.int64)
    model = ExtraTreesClassifier(n_estimators=4, seed=9)
    dense_scores = model.fit(X, y).predict_proba(X)
    sparse_scores = ExtraTreesClassifier(n_estimators=4, seed=9).fit(
        sparse.csr_matrix(X), y
    ).predict_proba(sparse.csr_matrix(X))
    assert np.array_equal(dense_scores, sparse_scores)


def test_validation_errors():
    X = np.random.default_rng(6).random((8, 3))
    y = np.array([0, 1] * 4)
    with pytest.raises(ValueError):
        RandomForestClassifier(n_estimators=0).fit(X, y)
    model = RandomForestClassifier(n_estimators=2, seed=0).fit(X, y)
    with pytest.raises(DimensionMismatch):
        model.predict_proba(np.zeros((2, 5)))
    with pytest.raises(NotFitted):
        RandomForestClassifier().predict_proba(X)


def test_get_params_round_trip():
    model = ExtraTreesClassifier(n_estimators=13, max_depth=2, seed=4)
    params = model.get_params()
    clone = ExtraTreesClassifier(**params)
    assert clone.get_params() == params


def count_generators(monkeypatch):
    """``(seed, bit generator)`` of every ``np.random.PCG64`` made from here on."""
    made = []
    pcg64 = np.random.PCG64

    def recording(seed):
        made.append((seed, pcg64(seed)))
        return made[-1][1]

    monkeypatch.setattr(np.random, "PCG64", recording)
    return made


def test_an_extra_trees_fit_makes_no_random_generator(monkeypatch):
    # candidates and thresholds come from the keyed rule, not from numpy
    made = count_generators(monkeypatch)
    X, y = two_class_data(np.random.default_rng(7))
    ExtraTreesClassifier(n_estimators=6, seed=2).fit(X, y)
    assert made == []


def test_a_bootstrapping_forest_makes_one_generator_per_tree_for_its_bootstrap(monkeypatch):
    X, y = two_class_data(np.random.default_rng(8))
    made = count_generators(monkeypatch)
    RandomForestClassifier(n_estimators=5, seed=2, bootstrap=False).fit(X, y)
    assert made == []  # its candidates are keyed draws
    RandomForestClassifier(n_estimators=5, seed=2).fit(X, y)
    assert len(made) == 5 and len({seed for seed, _ in made}) == 5
    # each generator drew its tree's bootstrap and nothing else
    for seed, bit_generator in made:
        alone = np.random.Generator(pcg64_of(seed))
        alone.integers(0, y.size, size=y.size)
        assert bit_generator.state == alone.bit_generator.state


pcg64_of = np.random.PCG64

"""Importance thresholding and column projection."""

import numpy as np
import pytest
from scipy import sparse

from vandalstack.errors import IndexOutOfRange, NotFitted, UnsupportedFamily
from vandalstack.featurize import FeatureVector
from vandalstack.learners import (
    GradientBoostingClassifier,
    LogisticRegression,
    MLPClassifier,
    RandomForestClassifier,
)
from vandalstack.learners.selection import (
    ImportanceReport,
    feature_importances,
    project,
    project_matrix,
    select_features,
)


def test_threshold_keeps_documented_indices():
    assert select_features([0.5, 0.0, 2e-5, 5e-6], 1e-5) == (0, 2)


def test_threshold_zero_selects_every_column():
    assert select_features([0.5, 0.0, 2e-5, 5e-6], 0.0) == (0, 1, 2, 3)
    report = ImportanceReport(np.array([0.0, 0.0, 0.0]))
    assert select_features(report, 0.0) == (0, 1, 2)


def test_all_zero_report_selects_nothing_at_positive_threshold():
    report = ImportanceReport(np.zeros(4))
    assert select_features(report, 1e-5) == ()


def test_comparison_is_inclusive():
    assert select_features([1e-5], 1e-5) == (0,)


def test_negative_threshold_rejected():
    with pytest.raises(ValueError):
        select_features([0.5, 0.5], -1.0)


def test_importance_report_invariants():
    ImportanceReport(np.array([0.25, 0.75]))
    ImportanceReport(np.zeros(3))
    with pytest.raises(ValueError):
        ImportanceReport(np.array([0.5, 0.0, 2e-5, 5e-6]))  # sums to 0.500025
    with pytest.raises(ValueError):
        ImportanceReport(np.array([-0.1, 1.1]))
    with pytest.raises(ValueError):
        ImportanceReport(np.array([[0.5, 0.5]]))
    with pytest.raises(ValueError):
        ImportanceReport(np.array([np.nan, 1.0]))


def test_feature_importances_by_family():
    rng = np.random.default_rng(0)
    X = rng.random((50, 3))
    y = (X[:, 0] > 0.5).astype(int)
    for cls in (RandomForestClassifier, GradientBoostingClassifier):
        model = cls(n_estimators=4, seed=0).fit(X, y)
        report = feature_importances(model)
        assert report.importances.shape == (3,)
    for model in (LogisticRegression().fit(X, y),
                  MLPClassifier(hidden_units=3, max_epochs=5).fit(X, y)):
        with pytest.raises(UnsupportedFamily):
            feature_importances(model)
    with pytest.raises(NotFitted):
        feature_importances(RandomForestClassifier())


def test_project_reindexes_onto_selected():
    x = FeatureVector(dim=6, entries=((0, 1.0), (5, 0.3)))
    out = project(x, (0, 2, 5))
    assert out.dim == 3
    assert out.entries == ((0, 1.0), (2, 0.3))


def test_project_identity_and_empty_overlap():
    x = FeatureVector(dim=4, entries=((1, 2.0), (3, 4.0)))
    ident = project(x, (0, 1, 2, 3))
    assert ident.dim == 4 and ident.entries == x.entries
    none = project(x, (0, 2))
    assert none.dim == 2 and none.entries == ()


def test_project_rejects_out_of_range_selection():
    x = FeatureVector(dim=3, entries=((0, 1.0),))
    with pytest.raises(IndexOutOfRange):
        project(x, (0, 3))
    with pytest.raises(IndexOutOfRange):
        project(x, (-1,))


def test_project_matrix_matches_dense_slice():
    rng = np.random.default_rng(1)
    dense = rng.random((20, 7)) * (rng.random((20, 7)) < 0.5)
    X = sparse.csr_matrix(dense)
    for selected in ((0, 3, 6), (), (2,), tuple(range(7))):
        out = project_matrix(X, selected)
        assert type(out) is np.ndarray and out.dtype == np.float64
        assert out.flags.c_contiguous
        assert out.shape == (20, len(selected))
        assert np.array_equal(out, dense[:, list(selected)])
    with pytest.raises(IndexOutOfRange):
        project_matrix(X, (7,))


def test_project_matrix_same_array_from_sparse_and_dense():
    rng = np.random.default_rng(3)
    # +0.0 for the gaps: CSR stores no zeros, so a -0.0 would come back as +0.0
    dense = np.where(rng.random((15, 9)) < 0.4, rng.normal(size=(15, 9)), 0.0)
    dense[1, 2] = 5e-324
    dense[2, 3] = 1e300
    for selected in ((1, 4, 8), (), (0,), tuple(range(9))):
        from_sparse = project_matrix(sparse.csr_matrix(dense), selected)
        from_dense = project_matrix(dense, selected)
        assert from_sparse.shape == from_dense.shape == (15, len(selected))
        assert from_sparse.tobytes() == from_dense.tobytes()
        assert from_dense.flags.c_contiguous and from_dense.dtype == np.float64
    with pytest.raises(IndexOutOfRange):
        project_matrix(dense, (9,))
    with pytest.raises(IndexOutOfRange):
        project_matrix(dense, (-1,))


def test_select_project_retrain_round_trip():
    rng = np.random.default_rng(2)
    X = sparse.csr_matrix(rng.random((80, 6)) * (rng.random((80, 6)) < 0.7))
    y = (X.toarray()[:, 1] > 0.4).astype(int)
    model = GradientBoostingClassifier(n_estimators=10).fit(X, y)
    selected = select_features(feature_importances(model), 1e-5)
    assert selected  # the signal column survives
    Xs = project_matrix(X, selected)
    retrained = GradientBoostingClassifier(n_estimators=10).fit(Xs, y)
    assert retrained.predict_proba(Xs).shape == (80,)

"""The shared tree grower: split search, column gathering, prediction."""

import numpy as np
import pytest
from scipy import sparse

from vandalstack.learners.tree import (
    Tree,
    TreeBuilder,
    best_split_exact,
    column_values,
    random_split,
)
from vandalstack.rng import generator


def gini_impurity(t):
    if t.size == 0:
        return 0.0
    p = t.mean()
    return 1.0 - p * p - (1.0 - p) ** 2


def oracle_best_split(v, t, criterion):
    """Enumerate every boundary; impurity decrease straight from definitions."""
    distinct = np.unique(v)
    if distinct.size < 2:
        return None
    n = v.size
    impurity = gini_impurity if criterion == "gini" else lambda s: float(np.var(s)) if s.size else 0.0
    best_gain = -np.inf
    best_thr = None
    for lo, hi in zip(distinct[:-1], distinct[1:]):
        thr = 0.5 * (lo + hi)
        if not lo <= thr < hi:
            thr = lo
        mask = v <= thr
        nl = int(mask.sum())
        gain = impurity(t) - (nl * impurity(t[mask]) + (n - nl) * impurity(t[~mask])) / n
        if gain > best_gain + 1e-12:
            best_gain = gain
            best_thr = thr
    return best_gain, best_thr


def leaf_tree(value):
    return Tree(
        feature=np.array([-1], dtype=np.int64),
        threshold=np.array([np.nan]),
        left=np.array([-1], dtype=np.int64),
        right=np.array([-1], dtype=np.int64),
        value=np.array([float(value)]),
    )


def test_best_split_matches_enumeration_oracle():
    rng = np.random.default_rng(0)
    for trial in range(300):
        n = int(rng.integers(2, 40))
        # few distinct values force ties and repeated boundaries
        v = rng.integers(0, 5, size=n).astype(np.float64)
        if trial % 2:
            t = rng.integers(0, 2, size=n).astype(np.float64)
            criterion = "gini"
        else:
            t = rng.normal(size=n)
            criterion = "variance"
        got = best_split_exact(v, t, criterion)
        want = oracle_best_split(v, t, criterion)
        if want is None:
            assert got is None
            continue
        assert got is not None
        assert got[0] == pytest.approx(want[0], abs=1e-12)
        # the chosen threshold realizes the optimal gain per the definition
        mask = v <= got[1]
        nl = int(mask.sum())
        impurity = gini_impurity if criterion == "gini" else lambda s: float(np.var(s)) if s.size else 0.0
        realized = impurity(t) - (nl * impurity(t[mask]) + (n - nl) * impurity(t[~mask])) / n
        assert realized == pytest.approx(want[0], abs=1e-12)


def test_best_split_tie_prefers_lowest_threshold():
    # both boundaries give exactly the same gain by symmetry
    v = np.array([0.0, 1.0, 2.0])
    t = np.array([1.0, 0.0, 1.0])
    gain, threshold = best_split_exact(v, t, "gini")
    assert threshold == 0.5
    assert gain == pytest.approx(1.0 / 9.0, abs=1e-15)


def test_best_split_constant_column():
    v = np.full(6, 3.0)
    t = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0])
    assert best_split_exact(v, t, "gini") is None


def test_best_split_threshold_strictly_below_upper_value():
    # adjacent floats: the midpoint rounds onto the upper value, and the
    # guard must fall back to the lower one so the split separates them
    lo = 1.0
    hi = np.nextafter(1.0, 2.0)
    v = np.array([lo, hi, hi])
    t = np.array([0.0, 1.0, 1.0])
    gain, threshold = best_split_exact(v, t, "gini")
    assert threshold == lo
    assert (v <= threshold).tolist() == [True, False, False]
    assert gain > 0


def test_random_split_within_range_and_gain_definition():
    rng = np.random.default_rng(1)
    for _ in range(100):
        n = int(rng.integers(2, 30))
        v = rng.integers(0, 4, size=n).astype(np.float64)
        t = rng.integers(0, 2, size=n).astype(np.float64)
        found = random_split(v, t, "gini", generator(int(rng.integers(1 << 30))))
        if v.min() == v.max():
            assert found is None
            continue
        if found is None:
            continue  # degenerate one-sided draw
        gain, threshold = found
        assert v.min() <= threshold < v.max()
        mask = v <= threshold
        nl = int(mask.sum())
        want = gini_impurity(t) - (
            nl * gini_impurity(t[mask]) + (n - nl) * gini_impurity(t[~mask])
        ) / n
        assert gain == pytest.approx(want, abs=1e-12)


def test_column_values_matches_dense_lookup():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n, d = int(rng.integers(1, 30)), int(rng.integers(1, 8))
        dense = rng.random((n, d)) * (rng.random((n, d)) < 0.4)
        Xc = sparse.csc_matrix(dense)
        Xc.sort_indices()
        # unsorted row ids with repeats, as a bootstrap sample produces
        rows = rng.integers(0, n, size=int(rng.integers(1, 2 * n + 1)))
        for j in range(d):
            got = column_values(Xc, j, rows)
            assert np.array_equal(got, dense[rows, j])


def build_random_tree(rng, n=60, d=5, depth=4):
    dense = rng.random((n, d)) * (rng.random((n, d)) < 0.6)
    y = (dense @ rng.random(d) + 0.2 * rng.normal(size=n) > 0.5).astype(np.float64)
    Xc = sparse.csc_matrix(dense)
    Xc.sort_indices()
    builder = TreeBuilder("gini", depth, None, generator(int(rng.integers(1 << 30))))
    rows = np.arange(n, dtype=np.int64)
    tree, leaf_of = builder.build(Xc, rows, y, leaf_value=lambda sel: y[sel].mean())
    return dense, y, tree, leaf_of


def test_predict_scalar_path_matches_vectorised_path():
    rng = np.random.default_rng(3)
    for _ in range(20):
        dense, _, tree, _ = build_random_tree(rng)
        batch = tree.predict_dense(dense)  # all rows in one walk
        one_by_one = np.concatenate(
            [tree.predict_dense(dense[i : i + 1]) for i in range(dense.shape[0])]
        )
        assert np.array_equal(batch, one_by_one)


def test_leaf_of_agrees_with_prediction():
    rng = np.random.default_rng(4)
    dense, _, tree, leaf_of = build_random_tree(rng)
    assert np.array_equal(tree.predict_dense(dense), tree.value[leaf_of])


def test_builder_respects_max_depth():
    rng = np.random.default_rng(5)
    dense = rng.random((80, 4))
    y = (dense[:, 0] > 0.5).astype(np.float64)
    Xc = sparse.csc_matrix(dense)
    Xc.sort_indices()
    for depth in (1, 2, 3):
        builder = TreeBuilder("gini", depth, None, generator(0))
        tree, _ = builder.build(
            Xc, np.arange(80), y, leaf_value=lambda sel: y[sel].mean()
        )
        # walk every root-to-leaf path
        stack = [(0, 0)]
        while stack:
            nid, level = stack.pop()
            if tree.feature[nid] < 0:
                assert level <= depth
            else:
                stack.append((tree.left[nid], level + 1))
                stack.append((tree.right[nid], level + 1))


def test_builder_pure_node_stays_leaf():
    dense = np.array([[0.0], [1.0], [2.0]])
    y = np.ones(3)
    Xc = sparse.csc_matrix(dense)
    builder = TreeBuilder("gini", None, None, generator(0))
    tree, leaf_of = builder.build(
        Xc, np.arange(3), y, leaf_value=lambda sel: y[sel].mean()
    )
    assert tree.n_nodes == 1
    assert tree.value[0] == 1.0
    assert np.array_equal(leaf_of, np.zeros(3, dtype=np.int64))


def test_builder_prefers_lowest_feature_index_on_ties():
    # identical columns: every split gain ties, the lower index must win
    rng = np.random.default_rng(6)
    col = rng.random(50)
    y = (col > 0.5).astype(np.float64)
    dense = np.column_stack([col, col])
    Xc = sparse.csc_matrix(dense)
    Xc.sort_indices()
    builder = TreeBuilder("gini", 1, None, generator(0))
    tree, _ = builder.build(Xc, np.arange(50), y, leaf_value=lambda sel: y[sel].mean())
    assert tree.feature[0] == 0


def test_builder_accumulates_importances():
    rng = np.random.default_rng(7)
    dense = rng.random((100, 3))
    y = (dense[:, 1] > 0.5).astype(np.float64)  # only column 1 matters
    Xc = sparse.csc_matrix(dense)
    Xc.sort_indices()
    importances = np.zeros(3)
    builder = TreeBuilder("gini", None, None, generator(0))
    builder.build(
        Xc, np.arange(100), y, leaf_value=lambda sel: y[sel].mean(),
        importances=importances,
    )
    assert importances[1] > 0
    assert importances[0] == 0.0 and importances[2] == 0.0


def test_builder_rejects_unknown_criterion():
    with pytest.raises(ValueError):
        TreeBuilder("entropy", None, None, generator(0))


def test_leaf_tree_prediction_paths():
    tree = leaf_tree(0.25)
    assert np.array_equal(tree.predict_dense(np.zeros((3, 2))), np.full(3, 0.25))
    assert np.array_equal(tree.predict_dense(np.zeros((20, 2))), np.full(20, 0.25))

"""The shared tree grower: split search, leaf assignment, prediction."""

import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vandalstack.learners import (
    ExtraTreesClassifier,
    GradientBoostingClassifier,
    RandomForestClassifier,
)
from vandalstack.learners import tree as tree_module
from vandalstack.learners.io import model_to_lines
from vandalstack.learners.tree import (
    Tree,
    TreeBuilder,
    exact_block_split,
    random_block_split,
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


# ---------------------------------------------------------------------------
# Reference: the per-column split search, one column and one argsort at a
# time, as the grower ran before it searched a node's candidates as one
# block.  The block search must agree with it bit for bit.


def ref_impurity_gain(t, mask, criterion):
    """Impurity decrease of splitting ``t`` by ``mask`` (left = True)."""
    n = t.size
    nl = int(mask.sum())
    nr = n - nl
    if nl == 0 or nr == 0:
        return -np.inf
    total = float(t.sum())
    sl = float(t[mask].sum())
    sr = total - sl
    if criterion == "gini":
        def gini(cnt, s):
            p = s / cnt
            return 2.0 * p * (1.0 - p)

        return gini(n, total) - (nl * gini(nl, sl) + nr * gini(nr, sr)) / n
    return (sl * sl / nl + sr * sr / nr) / n - (total / n) ** 2


def ref_best_split_exact(v, t, criterion):
    """``(gain, threshold)`` of the best boundary of ``v``, or ``None``."""
    order = np.argsort(v, kind="mergesort")
    vs = v[order]
    ts = t[order]
    cut = np.nonzero(vs[1:] > vs[:-1])[0] + 1
    if cut.size == 0:
        return None
    csum = np.cumsum(ts)
    n = v.size
    total = csum[-1]
    nl = cut.astype(np.float64)
    nr = n - nl
    sl = csum[cut - 1]
    sr = total - sl
    if criterion == "gini":
        parent = 2.0 * (total / n) * (1.0 - total / n)
        gl = 2.0 * (sl / nl) * (1.0 - sl / nl)
        gr = 2.0 * (sr / nr) * (1.0 - sr / nr)
        gains = parent - (nl * gl + nr * gr) / n
    else:
        # a numpy scalar squared: C pow, not a multiplication
        gains = (sl * sl / nl + sr * sr / nr) / n - (total / n) ** 2
    k = int(np.argmax(gains))
    lo, hi = vs[cut[k] - 1], vs[cut[k]]
    threshold = 0.5 * (lo + hi)
    if not lo <= threshold < hi:
        threshold = lo
    return float(gains[k]), float(threshold)


def ref_random_split(v, t, criterion, rng):
    """One uniform threshold in ``[min(v), max(v))``, or ``None``."""
    lo = float(v.min())
    hi = float(v.max())
    if lo == hi:
        return None
    threshold = float(rng.uniform(lo, hi))
    if not lo <= threshold < hi:
        threshold = lo
    gain = ref_impurity_gain(t, v <= threshold, criterion)
    if not np.isfinite(gain):
        return None
    return gain, threshold


def ref_find_split(X, rows, sel, t, criterion, max_features, rng, random_threshold):
    """``(gain, feature, threshold, go_left)`` of a node, or ``None``."""
    d = X.shape[1]
    if max_features is None or max_features >= d:
        candidates = np.arange(d)
    else:
        candidates = np.sort(rng.choice(d, size=max_features, replace=False))
    node_rows = rows[sel]
    best = None
    for j in candidates:
        v = X[node_rows, j]
        if random_threshold:
            found = ref_random_split(v, t, criterion, rng)
        else:
            found = ref_best_split_exact(v, t, criterion)
        if found is None:
            continue
        gain, thr = found
        if gain >= 0.0 and (best is None or gain > best[0]):
            best = (gain, int(j), thr)
    if best is None:
        return None
    gain, j, thr = best
    return gain, j, thr, X[node_rows, j] <= thr


def bits(x):
    return np.float64(x).tobytes()


def assert_same_split(got, want):
    if want is None:
        assert got is None
        return
    assert got is not None
    assert bits(got[0]) == bits(want[0])
    assert got[1] == want[1]
    assert bits(got[2]) == bits(want[2])
    assert np.array_equal(got[3], want[3])


def block_and_reference(X, rows, sel, t, criterion, max_features, seed, random_threshold):
    """Both searches from equal generators; also checks the generators end equal."""
    rng_block, rng_ref = generator(seed), generator(seed)
    builder = TreeBuilder(
        criterion, None, max_features, rng_block, random_threshold=random_threshold
    )
    got = builder._find_split(X, rows, sel, t)
    want = ref_find_split(X, rows, sel, t, criterion, max_features, rng_ref, random_threshold)
    assert rng_block.bit_generator.state == rng_ref.bit_generator.state
    return got, want


COLUMN_KINDS = ("few", "float", "adjacent", "constant", "sparse")


@st.composite
def node_searches(draw):
    """A node of a grower's fit: data, rows, the node's share, targets, rule."""
    n = draw(st.integers(2, 30))
    d = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = np.empty((n, d))
    kinds = draw(st.lists(st.sampled_from(COLUMN_KINDS), min_size=d, max_size=d))
    for j, kind in enumerate(kinds):
        if kind == "few":  # ties and repeated boundaries
            X[:, j] = rng.integers(0, 3, size=n)
        elif kind == "float":
            X[:, j] = rng.normal(size=n)
        elif kind == "adjacent":  # the midpoint rounds onto the upper value
            X[:, j] = np.where(rng.random(n) < 0.5, 1.0, np.nextafter(1.0, 2.0))
        elif kind == "constant":
            X[:, j] = 3.0
        else:
            X[:, j] = rng.random(n) * (rng.random(n) < 0.3)
    if draw(st.booleans()):  # a bootstrap sample: sorted, with repeats
        rows = np.sort(rng.integers(0, n, size=n))
    else:
        rows = np.arange(n, dtype=np.int64)
    sel = np.sort(rng.choice(n, size=draw(st.integers(2, n)), replace=False))
    criterion = draw(st.sampled_from(("gini", "variance")))
    random_threshold = draw(st.booleans())
    if criterion == "gini":
        t = rng.integers(0, 2, size=sel.size).astype(np.float64)
    elif random_threshold:
        # the random rule sums a column's left side in row order, the
        # reference in the order of a compressed copy: equal only when
        # every partial sum is exact, as the 0/1 Gini sums always are
        t = rng.integers(-3, 4, size=sel.size).astype(np.float64)
    elif draw(st.booleans()):
        t = rng.normal(size=sel.size)
    else:  # few distinct targets: exact zero-gain splits and exact ties
        t = rng.choice([-0.5, 0.25, 1.0], size=sel.size)
    max_features = draw(st.one_of(st.none(), st.integers(1, d)))
    # a small budget forces the column-chunked scan
    cells = draw(st.sampled_from((tree_module.SPLIT_BLOCK_CELLS, 1, 5, 40)))
    seed = draw(st.integers(0, 2**31))
    return X, rows, sel, t, criterion, max_features, seed, random_threshold, cells


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(node_searches())
def test_block_search_matches_per_column_reference_bit_for_bit(case):
    *args, cells = case
    with mock.patch.object(tree_module, "SPLIT_BLOCK_CELLS", cells):
        got, want = block_and_reference(*args)
    assert_same_split(got, want)


@pytest.mark.parametrize("random_threshold", [False, True])
@pytest.mark.parametrize("criterion", ["gini", "variance"])
def test_block_larger_than_the_cell_budget_is_searched_in_chunks(criterion, random_threshold):
    rng = np.random.default_rng(11)
    n, d = 300, 260
    chunk = tree_module.SPLIT_BLOCK_CELLS // n
    assert n * d > tree_module.SPLIT_BLOCK_CELLS and d > chunk
    X = rng.integers(0, 6, size=(n, d)).astype(np.float64)
    # the best column, once in the first chunk and once in the second:
    # the tie must go to the first
    X[:, chunk + 10] = X[:, 7] = rng.random(n)
    y = (X[:, 7] > 0.5).astype(np.float64)
    y[:20] = 1.0 - y[:20]  # noise, so a column can separate better
    t = y if criterion == "gini" else 2.0 * y - 1.0
    rows = np.arange(n, dtype=np.int64)
    got, want = block_and_reference(X, rows, rows, t, criterion, None, 5, random_threshold)
    assert_same_split(got, want)
    if not random_threshold:
        assert got[1] == 7
    # a strictly better column in the second chunk wins
    X[:, chunk + 10] = t
    got, want = block_and_reference(X, rows, rows, t, criterion, None, 5, random_threshold)
    assert_same_split(got, want)
    if not random_threshold:
        assert got[1] == chunk + 10


def test_variance_parent_term_is_squared_as_a_scalar():
    # numpy squares this mean to another last bit as an array (a multiply)
    # than as a scalar (C pow); the per-column search squared a scalar
    m = 1.473586965644068
    assert float(m) ** 2 != (np.array([m]) ** 2)[0]
    v = np.array([0.0, 1.0])
    t = np.array([m - 0.5, m + 0.5])  # mean exactly m
    gains, _ = exact_block_split(v[:, None], t, "variance")
    assert bits(gains[0]) == bits(ref_best_split_exact(v, t, "variance")[0])
    gains, _ = random_block_split(v[:, None], t, "variance", generator(0))
    assert bits(gains[0]) == bits(ref_random_split(v, t, "variance", generator(0))[0])


def pinned_data():
    rng = np.random.default_rng(20261018)
    X = np.round(rng.random((160, 7)) * (rng.random((160, 7)) < 0.7), 2)
    y = ((X[:, 0] + X[:, 3] - X[:, 5] + 0.3 * rng.normal(size=160)) > 0.4).astype(np.float64)
    return X, y


@pytest.mark.parametrize(
    "model, digest",
    [
        (
            RandomForestClassifier(n_estimators=15, seed=3),
            "c01a3364b1f3bb0b946e5547be2296066e4611f9b01a6f0b79370567355f5deb",
        ),
        (
            ExtraTreesClassifier(n_estimators=15, seed=3),
            "0096252aabac56abf7af2e2b99c783b456010c170c503b2c173e64d1147a21b0",
        ),
        (
            GradientBoostingClassifier(n_estimators=25, max_depth=6, seed=3),
            "9347b48a33da4182c4f08390ea856d136fdbb5c8217ccc3d2e65cef8fc89377f",
        ),
    ],
    ids=["random_forest", "extra_trees", "gradient_boosting"],
)
def test_fitted_model_text_is_pinned(model, digest):
    # digests of the text the per-column grower wrote for these fits: the
    # block search must grow the same trees, byte for byte
    X, y = pinned_data()
    text = "\n".join(model_to_lines(model.fit(X, y))) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == digest


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
        gains, thresholds = exact_block_split(v[:, None], t, criterion)
        want = oracle_best_split(v, t, criterion)
        if want is None:
            assert gains[0] == -np.inf
            continue
        assert gains[0] == pytest.approx(want[0], abs=1e-12)
        # the chosen threshold realizes the optimal gain per the definition
        mask = v <= thresholds[0]
        nl = int(mask.sum())
        impurity = gini_impurity if criterion == "gini" else lambda s: float(np.var(s)) if s.size else 0.0
        realized = impurity(t) - (nl * impurity(t[mask]) + (n - nl) * impurity(t[~mask])) / n
        assert realized == pytest.approx(want[0], abs=1e-12)


def test_best_split_tie_prefers_lowest_threshold():
    # both boundaries give exactly the same gain by symmetry
    v = np.array([0.0, 1.0, 2.0])
    t = np.array([1.0, 0.0, 1.0])
    (gain,), (threshold,) = exact_block_split(v[:, None], t, "gini")
    assert threshold == 0.5
    assert gain == pytest.approx(1.0 / 9.0, abs=1e-15)


def test_best_split_constant_column():
    v = np.full(6, 3.0)
    t = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0])
    gains, _ = exact_block_split(v[:, None], t, "gini")
    assert gains[0] == -np.inf


def test_best_split_threshold_strictly_below_upper_value():
    # adjacent floats: the midpoint rounds onto the upper value, and the
    # guard must fall back to the lower one so the split separates them
    lo = 1.0
    hi = np.nextafter(1.0, 2.0)
    v = np.array([lo, hi, hi])
    t = np.array([0.0, 1.0, 1.0])
    (gain,), (threshold,) = exact_block_split(v[:, None], t, "gini")
    assert threshold == lo
    assert (v <= threshold).tolist() == [True, False, False]
    assert gain > 0


def test_random_split_within_range_and_gain_definition():
    rng = np.random.default_rng(1)
    for _ in range(100):
        n = int(rng.integers(2, 30))
        v = rng.integers(0, 4, size=n).astype(np.float64)
        t = rng.integers(0, 2, size=n).astype(np.float64)
        (gain,), (threshold,) = random_block_split(
            v[:, None], t, "gini", generator(int(rng.integers(1 << 30)))
        )
        if v.min() == v.max():
            assert gain == -np.inf
            continue
        assert v.min() <= threshold < v.max()
        mask = v <= threshold
        nl = int(mask.sum())
        want = gini_impurity(t) - (
            nl * gini_impurity(t[mask]) + (n - nl) * gini_impurity(t[~mask])
        ) / n
        assert gain == pytest.approx(want, abs=1e-12)


def build_random_tree(rng, n=60, d=5, depth=4):
    dense = rng.random((n, d)) * (rng.random((n, d)) < 0.6)
    y = (dense @ rng.random(d) + 0.2 * rng.normal(size=n) > 0.5).astype(np.float64)
    builder = TreeBuilder("gini", depth, None, generator(int(rng.integers(1 << 30))))
    rows = np.arange(n, dtype=np.int64)
    tree, leaf_of = builder.build(dense, rows, y, leaf_value=lambda sel: y[sel].mean())
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
    for depth in (1, 2, 3):
        builder = TreeBuilder("gini", depth, None, generator(0))
        tree, _ = builder.build(
            dense, np.arange(80), y, leaf_value=lambda sel: y[sel].mean()
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
    builder = TreeBuilder("gini", None, None, generator(0))
    tree, leaf_of = builder.build(
        dense, np.arange(3), y, leaf_value=lambda sel: y[sel].mean()
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
    builder = TreeBuilder("gini", 1, None, generator(0))
    tree, _ = builder.build(dense, np.arange(50), y, leaf_value=lambda sel: y[sel].mean())
    assert tree.feature[0] == 0


def test_builder_accumulates_importances():
    rng = np.random.default_rng(7)
    dense = rng.random((100, 3))
    y = (dense[:, 1] > 0.5).astype(np.float64)  # only column 1 matters
    importances = np.zeros(3)
    builder = TreeBuilder("gini", None, None, generator(0))
    builder.build(
        dense, np.arange(100), y, leaf_value=lambda sel: y[sel].mean(),
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

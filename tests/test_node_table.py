"""The compiled tree walk against a node-by-node reference walk.

Every tree model predicts through one :class:`NodeTable` walk.  These
properties pin it to the plain definition of a tree: start at the root,
go left iff ``x <= threshold`` (so NaN goes right), stop at a leaf, and
sum the leaf values one tree after another.  Agreement is bitwise.
"""

import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vandalstack.errors import MalformedLine
from vandalstack.learners import (
    ExtraTreesClassifier,
    GradientBoostingClassifier,
    RandomForestClassifier,
)
from vandalstack.learners.io import model_from_lines, model_to_lines
from vandalstack.learners.tree import NodeTable, Tree

N_FEATURES = 3
CUTS = [-np.inf, -1.0, 0.0, 0.5, 1.0, 2.5, np.inf]
INPUTS = CUTS + [np.nan, -0.0, 0.25, 3.0]

leaf_values = st.floats(-1e3, 1e3, allow_nan=False, width=64)


@st.composite
def trees(draw, max_nodes=25):
    """A random tree in the grower's layout: children appended in pairs.

    Nodes are expanded in a drawn order, so shapes are unbalanced and
    single leaves occur; thresholds come from a few values that the
    inputs also take, so ties are common.
    """
    feature, threshold, left, right, value = [-1], [np.nan], [-1], [-1], [0.0]
    pending = [0]
    while pending:
        nid = pending.pop(draw(st.integers(0, len(pending) - 1)))
        if len(feature) + 2 <= max_nodes and draw(st.booleans()):
            feature[nid] = draw(st.integers(0, N_FEATURES - 1))
            threshold[nid] = draw(st.sampled_from(CUTS))
            left[nid], right[nid] = len(feature), len(feature) + 1
            for _ in range(2):
                pending.append(len(feature))
                feature.append(-1)
                threshold.append(np.nan)
                left.append(-1)
                right.append(-1)
                value.append(0.0)
        else:
            value[nid] = draw(leaf_values)
    return Tree(
        feature=np.array(feature, dtype=np.int64),
        threshold=np.array(threshold),
        left=np.array(left, dtype=np.int64),
        right=np.array(right, dtype=np.int64),
        value=np.array(value),
    )


def inputs(max_rows=12):
    return st.integers(1, max_rows).flatmap(
        lambda n: st.lists(
            st.lists(st.sampled_from(INPUTS), min_size=N_FEATURES, max_size=N_FEATURES),
            min_size=n,
            max_size=n,
        ).map(lambda rows: np.array(rows, dtype=np.float64))
    )


def reference_leaf_values(tree, X):
    out = np.empty(X.shape[0])
    for i, row in enumerate(X):
        nid = 0
        while tree.feature[nid] >= 0:
            if row[tree.feature[nid]] <= tree.threshold[nid]:
                nid = tree.left[nid]
            else:
                nid = tree.right[nid]
        out[i] = tree.value[nid]
    return out


def forest_reference(members, X):
    acc = np.zeros(X.shape[0])
    for tree in members:
        acc += reference_leaf_values(tree, X)
    return acc / len(members)


def boosting_reference(members, X, base, rate):
    acc = np.full(X.shape[0], base)
    for tree in members:
        acc += rate * reference_leaf_values(tree, X)
    return acc


def bitwise_equal(a, b):
    return a.shape == b.shape and np.array_equal(
        np.asarray(a, dtype=np.float64).view(np.uint64),
        np.asarray(b, dtype=np.float64).view(np.uint64),
    )


def forest_of(members):
    model = RandomForestClassifier(n_estimators=len(members))
    model.trees_ = members
    model.n_features_ = N_FEATURES
    return model


def boosting_of(members, base, rate):
    model = GradientBoostingClassifier(n_estimators=len(members), learning_rate=rate)
    model.trees_ = members
    model.base_score_ = base
    model.n_features_ = N_FEATURES
    return model


# small blocks make the walk split every input into several row blocks
block_cells = st.sampled_from([1, 3, 7, NodeTable.BLOCK_CELLS])
SETTINGS = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@SETTINGS
@given(st.lists(trees(), min_size=1, max_size=6), inputs(), block_cells)
def test_forest_matches_reference_walk(members, X, cells):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(NodeTable, "BLOCK_CELLS", cells)
        got = forest_of(members).predict_proba(X)
    assert bitwise_equal(got, forest_reference(members, X))


@SETTINGS
@given(
    st.lists(trees(), min_size=0, max_size=6),
    inputs(),
    leaf_values,
    st.floats(0.01, 1.0),
    block_cells,
)
def test_boosting_matches_reference_walk(members, X, base, rate, cells):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(NodeTable, "BLOCK_CELLS", cells)
        got = boosting_of(members, base, rate).decision_function(X)
    assert bitwise_equal(got, boosting_reference(members, X, base, rate))


@SETTINGS
@given(trees(), inputs())
def test_single_tree_matches_reference_walk(tree, X):
    assert bitwise_equal(tree.predict_dense(X), reference_leaf_values(tree, X))


@SETTINGS
@given(st.lists(trees(), min_size=1, max_size=6), inputs(max_rows=20))
def test_one_row_at_a_time_equals_all_rows(members, X):
    model = boosting_of(members, 0.125, 0.1)
    whole = model.decision_function(X)
    rows = np.concatenate([model.decision_function(X[i : i + 1]) for i in range(len(X))])
    assert bitwise_equal(whole, rows)


@SETTINGS
@given(
    st.lists(trees(), min_size=1, max_size=4),
    st.lists(trees(), min_size=1, max_size=4),
    inputs(),
)
def test_reassigned_trees_are_never_served_stale(first, second, X):
    model = forest_of(first)
    assert bitwise_equal(model.predict_proba(X), forest_reference(first, X))
    model.trees_ = second
    assert bitwise_equal(model.predict_proba(X), forest_reference(second, X))


@SETTINGS
@given(st.lists(trees(), min_size=0, max_size=4))
def test_trees_round_trip_through_the_table(members):
    back = NodeTable.from_trees(members).trees()
    assert len(back) == len(members)
    for a, b in zip(members, back):
        for name in ("feature", "left", "right"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        for name in ("threshold", "value"):
            assert bitwise_equal(getattr(a, name), getattr(b, name))


def test_boosting_without_trees_predicts_the_prior():
    rng = np.random.default_rng(0)
    X = rng.random((20, 3))
    y = (X[:, 0] > 0.3).astype(np.int64)
    model = GradientBoostingClassifier(n_estimators=0).fit(X, y)
    assert model.nodes_.n_trees == 0
    Xq = np.vstack([rng.random((5, 3)), np.full((1, 3), np.nan)])
    assert bitwise_equal(model.decision_function(Xq), np.full(6, model.base_score_))
    again = model_from_lines(model_to_lines(model))
    assert bitwise_equal(again.decision_function(Xq), np.full(6, model.base_score_))


def test_nan_goes_right_and_ties_go_left():
    tree = Tree(
        feature=np.array([0, -1, -1]),
        threshold=np.array([0.5, np.nan, np.nan]),
        left=np.array([1, -1, -1]),
        right=np.array([2, -1, -1]),
        value=np.array([0.0, 10.0, 20.0]),
    )
    X = np.array([[0.5], [np.nan], [np.inf], [-np.inf], [0.75]])
    assert np.array_equal(tree.predict_dense(X), [10.0, 20.0, 20.0, 10.0, 20.0])


def test_trees_that_are_not_trees_are_refused():
    def tree(feature, left, right):
        n = len(feature)
        return Tree(
            feature=np.array(feature),
            threshold=np.where(np.array(feature) >= 0, 0.5, np.nan),
            left=np.array(left),
            right=np.array(right),
            value=np.zeros(n),
        )

    bad = [
        tree([0, -1, -1], [0, -1, -1], [1, -1, -1]),  # child is its parent: a cycle
        tree([0, -1, -1], [1, -1, -1], [3, -1, -1]),  # children not adjacent
        tree([0, -1, -1], [2, -1, -1], [3, -1, -1]),  # child out of range
        tree([0, -1, -1, -1, -1], [1, -1, -1, -1, -1], [2, -1, -1, -1, -1]),  # orphans
        tree(  # two parents share their children
            [0, 0, 0, -1, -1, -1, -1],
            [1, 3, 3, -1, -1, -1, -1],
            [2, 4, 4, -1, -1, -1, -1],
        ),
        tree([-2], [-1], [-1]),
    ]
    for member in bad:
        with pytest.raises(ValueError):
            RandomForestClassifier().trees_ = [member]


def fitted_tree_lines():
    rng = np.random.default_rng(1)
    X = rng.random((80, 3))
    y = (X[:, 0] + X[:, 1] > 1.0).astype(np.int64)
    model = ExtraTreesClassifier(n_estimators=2, max_depth=3, seed=5).fit(X, y)
    return model_to_lines(model), X


TOKENS = ["-2", "-1", "0", "1", "2", "3", "4", "7", "99", "nan", "inf", "x", "1.5", ""]


def load_within(lines, seconds=10.0):
    """Load and predict in a thread; a hang fails the test instead of blocking."""
    outcome = {}

    def run():
        try:
            model = model_from_lines(lines)
            outcome["scores"] = model.predict_proba(np.zeros((2, 3)))
        except MalformedLine as exc:
            outcome["error"] = exc
        except Exception as exc:  # noqa: BLE001 - any other type is the failure
            outcome["other"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout=seconds)
    assert not thread.is_alive(), "loading a corrupt model hung"
    return outcome


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_corrupt_node_lines_fail_closed(data):
    lines, _ = fitted_tree_lines()
    node_lines = [i for i, line in enumerate(lines) if line.startswith("node ")]
    at = data.draw(st.sampled_from(node_lines))
    parts = lines[at].split(" ")
    field = data.draw(st.integers(1, 5))
    parts[field] = data.draw(st.sampled_from(TOKENS))
    corrupt = list(lines)
    corrupt[at] = " ".join(parts)
    outcome = load_within(corrupt)
    assert "other" not in outcome, repr(outcome.get("other"))
    if "error" in outcome:
        assert outcome["error"].line_no is not None
        assert 1 <= outcome["error"].line_no <= len(lines)
    else:
        assert outcome["scores"].shape == (2,)

"""The node table against node-by-node references: its walk, its writer and its layout.

Every tree model predicts through one :class:`NodeTable` walk.  These
properties pin it to the plain definition of a tree: start at the root,
go left iff ``x <= threshold`` (so NaN goes right), stop at a leaf, and
sum the leaf values one tree after another.  Agreement is bitwise.  The
model writer formats the table on whole columns; it must write what a
writer going node by node over the member trees writes.  A fitted table
must convert to the file's tree-local layout and back without a change.
"""

import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from tests._util import (
    LocalTree,
    fitted_tree_models,
    predict_dense,
    reference_proba,
    reference_tree_lines,
    table_of,
    tree_loop_sums,
)
from vandalstack.errors import MalformedLine
from vandalstack.learners import (
    ExtraTreesClassifier,
    GradientBoostingClassifier,
    LogisticRegression,
    RandomForestClassifier,
)
from vandalstack.learners import io as io_module
from vandalstack.learners.io import TreeColumns, model_from_lines, model_to_lines, read_model
from vandalstack.learners.tree import NodeTable, invalid_node, range_sums
from vandalstack.lines import LineReader
from vandalstack.stacking import _stage_scores

N_FEATURES = 3
CUTS = [-np.inf, -1.0, 0.0, 0.5, 1.0, 2.5, np.inf]
INPUTS = CUTS + [np.nan, -0.0, 0.25, 3.0]

leaf_values = st.floats(-1e3, 1e3, allow_nan=False, width=64)


@st.composite
def trees(draw, max_nodes=25, cuts=st.sampled_from(CUTS), values=leaf_values):
    """A random tree in the grower's layout: children appended in pairs.

    Nodes are expanded in a drawn order, so shapes are unbalanced and
    single leaves occur; thresholds come by default from a few values
    that the inputs also take, so ties are common.
    """
    feature, threshold, left, right, value = [-1], [np.nan], [-1], [-1], [0.0]
    pending = [0]
    while pending:
        nid = pending.pop(draw(st.integers(0, len(pending) - 1)))
        if len(feature) + 2 <= max_nodes and draw(st.booleans()):
            feature[nid] = draw(st.integers(0, N_FEATURES - 1))
            threshold[nid] = draw(cuts)
            left[nid], right[nid] = len(feature), len(feature) + 1
            for _ in range(2):
                pending.append(len(feature))
                feature.append(-1)
                threshold.append(np.nan)
                left.append(-1)
                right.append(-1)
                value.append(0.0)
        else:
            value[nid] = draw(values)
    return LocalTree(
        feature=np.array(feature, dtype=np.int64),
        threshold=np.array(threshold),
        left=np.array(left, dtype=np.int64),
        right=np.array(right, dtype=np.int64),
        value=np.array(value),
    )


def inputs(max_rows=12, min_rows=1):
    return st.integers(min_rows, max_rows).flatmap(
        lambda n: st.lists(
            st.lists(st.sampled_from(INPUTS), min_size=N_FEATURES, max_size=N_FEATURES),
            min_size=n,
            max_size=n,
        ).map(lambda rows: np.array(rows, dtype=np.float64).reshape(n, N_FEATURES))
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
    model.nodes_ = table_of(members)
    model.feature_importances_ = np.zeros(N_FEATURES)
    model.n_features_ = N_FEATURES
    return model


def boosting_of(members, base, rate):
    model = GradientBoostingClassifier(
        n_estimators=len(members), learning_rate=rate, max_depth=None
    )
    model.nodes_ = table_of(members)
    model.base_score_ = base
    model.feature_importances_ = np.zeros(N_FEATURES)
    model.n_features_ = N_FEATURES
    return model


# small blocks make the walk split every input into several row blocks
block_cells = st.sampled_from([1, 3, 7, NodeTable.BLOCK_CELLS])
# small sizes make the walk set finished cells aside in blocks this small;
# at the default it never does here (6 trees x 20 rows is under it)
compact_cells = st.sampled_from([1, 2, 7, NodeTable.COMPACT_CELLS])
SETTINGS = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def sizes(mp, block=NodeTable.BLOCK_CELLS, compact=NodeTable.COMPACT_CELLS):
    mp.setattr(NodeTable, "BLOCK_CELLS", block)
    mp.setattr(NodeTable, "COMPACT_CELLS", compact)


@SETTINGS
@given(st.lists(trees(), min_size=1, max_size=6), inputs(), block_cells, compact_cells)
def test_forest_matches_reference_walk(members, X, cells, compact):
    with pytest.MonkeyPatch.context() as mp:
        sizes(mp, cells, compact)
        got = forest_of(members).predict_proba(X)
    assert bitwise_equal(got, forest_reference(members, X))


@SETTINGS
@given(
    st.lists(trees(), min_size=0, max_size=6),
    inputs(),
    leaf_values,
    st.floats(0.01, 1.0),
    block_cells,
    compact_cells,
)
def test_boosting_matches_reference_walk(members, X, base, rate, cells, compact):
    with pytest.MonkeyPatch.context() as mp:
        sizes(mp, cells, compact)
        got = boosting_of(members, base, rate).decision_function(X)
    assert bitwise_equal(got, boosting_reference(members, X, base, rate))


@SETTINGS
@given(trees(), inputs())
def test_single_tree_matches_reference_walk(tree, X):
    assert bitwise_equal(predict_dense(tree, X), reference_leaf_values(tree, X))


@SETTINGS
@given(st.lists(trees(), min_size=1, max_size=6), inputs(max_rows=20), compact_cells)
def test_one_row_at_a_time_equals_all_rows(members, X, compact):
    model = boosting_of(members, 0.125, 0.1)
    with pytest.MonkeyPatch.context() as mp:
        sizes(mp, compact=compact)
        whole = model.decision_function(X)
        rows = np.concatenate([model.decision_function(X[i : i + 1]) for i in range(len(X))])
    assert bitwise_equal(whole, rows)


def chain(depth):
    """A tree that splits ``x[0] <= k + 0.5`` at its k-th level, going right.

    Each split's left child is a leaf worth ``k``; the last right child is
    a leaf worth ``depth``.  A row with ``x[0] = k`` leaves after ``k + 1``
    steps, so rows ``0 .. depth`` finish at every step of the walk.
    """
    feature, threshold, left, right, value = [], [], [], [], []
    for k in range(depth):
        here = len(feature)
        feature += [0, -1]
        threshold += [k + 0.5, np.nan]
        left += [here + 1, -1]
        right += [here + 2, -1]
        value += [0.0, float(k)]
    feature.append(-1)
    threshold.append(np.nan)
    left.append(-1)
    right.append(-1)
    value.append(float(depth))
    tree = LocalTree(
        feature=np.array(feature, dtype=np.int64),
        threshold=np.array(threshold),
        left=np.array(left, dtype=np.int64),
        right=np.array(right, dtype=np.int64),
        value=np.array(value),
    )
    assert invalid_node(tree.feature, tree.threshold, tree.left, tree.right, [tree.n_nodes]) is None
    return tree


def stump(feature, cut, low, high):
    """One split on ``x[feature] <= cut``: leaves worth ``low`` and ``high``."""
    return LocalTree(
        feature=np.array([feature, -1, -1]),
        threshold=np.array([cut, np.nan, np.nan]),
        left=np.array([1, -1, -1]),
        right=np.array([2, -1, -1]),
        value=np.array([0.0, low, high]),
    )


def chain_rows(depth, repeats):
    """``repeats`` rows for each exit step of :func:`chain`, NaN and ties mixed in."""
    exits = np.repeat(np.arange(depth + 1, dtype=np.float64), repeats)
    X = np.zeros((exits.size, N_FEATURES))
    X[:, 0] = exits
    X[::5, 0] = np.nan  # NaN goes right: to the chain's last leaf
    X[1::5, 0] += 0.5  # a tie at k + 0.5 goes left: out at step k + 1
    X[:, 1] = np.resize(CUTS, exits.size)
    return X


# every branch of the walk, each at the default sizes and at small ones
walk_sizes = pytest.mark.parametrize(
    "compact", [1, 2, 7, NodeTable.COMPACT_CELLS], ids=lambda c: f"compact{c}"
)


def assert_walk_matches_reference(members, X, compact):
    with pytest.MonkeyPatch.context() as mp:
        sizes(mp, compact=compact)
        table = table_of(members)
        leaves = table.value[table.leaf_ids(X)]
        got = boosting_of(members, 0.25, 0.5).decision_function(X)
    want = np.stack([reference_leaf_values(t, X) for t in members])
    assert bitwise_equal(leaves, want)
    assert bitwise_equal(got, boosting_reference(members, X, 0.25, 0.5))


@walk_sizes
def test_a_long_chain_beside_stumps_sets_cells_aside_at_several_steps(compact):
    # the stumps finish after one step and the chain's rows one exit step
    # at a time, so the share of finished cells reaches half again and again
    members = [stump(1, 0.5, -1.0, 1.0), chain(24), stump(2, 0.0, 3.0, -3.0)]
    members += [LocalTree.leaf(0.5)] * 3
    X = chain_rows(24, 20)
    assert X.shape[0] * len(members) >= NodeTable.COMPACT_CELLS
    assert_walk_matches_reference(members, X, compact)


@walk_sizes
def test_a_walk_whose_cells_all_finish_early_stops(compact):
    # every row leaves the 30-level chain at its first split
    members = [chain(30), stump(1, 0.5, -1.0, 1.0)]
    X = np.zeros((600, N_FEATURES))
    X[:, 1] = np.resize(INPUTS, 600)
    assert X.shape[0] * len(members) >= NodeTable.COMPACT_CELLS
    assert_walk_matches_reference(members, X, compact)


@walk_sizes
def test_a_table_of_leaves_takes_no_step(compact):
    members = [LocalTree.leaf(v) for v in (1.5, -0.0, 2.0)]
    X = chain_rows(3, 400)
    assert table_of(members).depth == 0
    assert_walk_matches_reference(members, X, compact)


@walk_sizes
def test_a_table_without_trees_has_no_leaves(compact):
    X = chain_rows(3, 400)
    with pytest.MonkeyPatch.context() as mp:
        sizes(mp, compact=compact)
        table = table_of([])
        assert table.leaf_ids(X).shape == (0, X.shape[0])
        got = boosting_of([], 0.25, 0.5).decision_function(X)
    assert bitwise_equal(got, np.full(X.shape[0], 0.25))


@SETTINGS
@given(
    st.lists(trees(), min_size=1, max_size=4),
    st.lists(trees(), min_size=1, max_size=4),
    inputs(),
)
def test_reassigned_trees_are_never_served_stale(first, second, X):
    model = forest_of(first)
    assert bitwise_equal(model.predict_proba(X), forest_reference(first, X))
    model.nodes_ = table_of(second)
    assert bitwise_equal(model.predict_proba(X), forest_reference(second, X))


def assert_same_table(got, want):
    for name in ("roots", "feature", "right", "depths", "widths"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    for name in ("threshold", "value"):
        assert bitwise_equal(getattr(got, name), getattr(want, name)), name
    assert (got.width, got.depth, got.n_trees) == (want.width, want.depth, want.n_trees)


@SETTINGS
@given(st.lists(trees(), min_size=0, max_size=8), inputs(), st.data())
def test_a_tree_range_is_its_trees_alone_on_shared_arrays(members, X, data):
    table = table_of(members)
    lo = data.draw(st.integers(0, len(members)), label="lo")
    hi = data.draw(st.integers(lo, len(members)), label="hi")
    part, alone = table.trees(lo, hi), table_of(members[lo:hi])
    assert part.feature is table.feature and part.value is table.value
    # its leaves are global ids into the shared arrays
    assert np.array_equal(part.leaf_ids(X), alone.leaf_ids(X) + part.span[0])
    got = range_sums(part, X, [part.n_trees], [(0.5, 0.25)])[0]
    assert bitwise_equal(got, range_sums(alone, X, [alone.n_trees], [(0.5, 0.25)])[0])
    assert bitwise_equal(got, tree_loop_sums(part, X, 0.5, 0.25))
    # it converts back to its own trees' columns, and compiles to their table
    for got, want in zip(part.local(), alone.local()):
        assert bitwise_equal(got.astype(np.float64), want.astype(np.float64))
    assert_same_table(NodeTable(*part.local()), alone)
    # a range of a range is a range of the table
    a = data.draw(st.integers(0, hi - lo), label="a")
    b = data.draw(st.integers(a, hi - lo), label="b")
    inner, direct = part.trees(a, b), table.trees(lo + a, lo + b)
    assert inner.span == direct.span and np.array_equal(inner.roots, direct.roots)
    assert inner.table is direct.table is table and inner.first == direct.first == lo + a
    assert table.trees(0, len(members)) is table


def fitted_linear():
    rng = np.random.default_rng(2)
    X = rng.random((20, N_FEATURES))
    return LogisticRegression().fit(X, (X[:, 0] > 0.5).astype(np.int64))


# a stage's members, as a model file holds them (finite thresholds):
# forests, boosting (with no trees too) and a model without trees, in
# any order
file_trees = trees(cuts=st.sampled_from(CUTS[1:-1]))
stage_members = st.lists(
    st.one_of(
        st.lists(file_trees, min_size=1, max_size=4).map(forest_of),
        st.builds(boosting_of, st.lists(file_trees, min_size=0, max_size=4), leaf_values,
                  st.floats(0.01, 1.0)),
        st.just(None),
    ),
    min_size=1,
    max_size=6,
)


@SETTINGS
@given(stage_members, inputs(max_rows=20, min_rows=0), st.sampled_from([1, 5, 16, NodeTable.BLOCK_CELLS]),
       compact_cells)
@example([boosting_of([], 0.25, 0.5), None], np.zeros((0, N_FEATURES)), NodeTable.BLOCK_CELLS,
         NodeTable.COMPACT_CELLS)
def test_a_stage_walk_scores_each_model_as_its_own_predict_proba(members, X, cells, compact):
    models = [fitted_linear() if model is None else model for model in members]
    texts = [model_to_lines(model) for model in models]
    columns = TreeColumns()
    loaded = [read_model(LineReader(text), columns)[0] for text in texts]
    columns.compile()
    # every tree model is a range of one table
    tables = {id(model.nodes_.table) for model in loaded if hasattr(model, "nodes_")}
    assert len(tables) == (0 if all(model is None for model in members) else 1)
    with pytest.MonkeyPatch.context() as mp:
        sizes(mp, cells, compact)
        got = list(_stage_scores(loaded, X))
    for model, score in zip(models, got):
        assert bitwise_equal(score, model.predict_proba(X))
        # the walk and predict_proba share their sums; the loop over trees does not
        if hasattr(model, "nodes_"):
            assert bitwise_equal(score, reference_proba(model, X))
    assert [model_to_lines(model) for model in loaded] == texts


# floats a writer may get wrong: signed zeros, subnormals, the extremes
# (finite ones: a model file refuses the others)
EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
    1.7976931348623157e308, -1.7976931348623157e308, 1e300, 1 / 3,
]
edge_floats = st.one_of(
    st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False, width=64)
)
edge_trees = trees(cuts=edge_floats, values=edge_floats)


def model_of(members, boosting):
    return boosting_of(members, -0.0, 0.1) if boosting else forest_of(members)


@SETTINGS
@given(st.lists(edge_trees, min_size=0, max_size=6), st.booleans())
@example([], True)  # boosting with n_estimators=0
def test_tree_block_is_the_reference_writers(members, boosting):
    assume(boosting or members)  # a forest has a tree, boosting may have none
    lines = model_to_lines(model_of(members, boosting))
    at = lines.index(f"trees {len(members)}")
    assert lines[at:-1] == reference_tree_lines(members)
    assert model_to_lines(model_from_lines(lines)) == lines


@SETTINGS
@given(st.lists(edge_trees, min_size=0, max_size=4), st.booleans())
def test_trees_round_trip_through_model_text(members, boosting):
    assume(boosting or members)
    table = table_of(members)
    back = model_from_lines(model_to_lines(model_of(members, boosting))).nodes_
    for name in ("roots", "feature", "right"):
        assert np.array_equal(getattr(back, name), getattr(table, name))
    for name in ("threshold", "value"):
        assert bitwise_equal(getattr(back, name), getattr(table, name))
    assert np.array_equal(back.depths, table.depths)


@SETTINGS
@given(fitted_tree_models())
def test_a_fitted_table_has_the_file_layout_and_converts_back_exactly(model):
    table = model.nodes_
    feature, threshold, right, value, sizes = table.local()
    left = np.where(feature >= 0, right - 1, -1)
    assert invalid_node(feature, threshold, left, right, sizes) is None
    again = NodeTable(*table.local())
    for name in ("roots", "feature", "right", "depths"):
        assert np.array_equal(getattr(again, name), getattr(table, name)), name
    for name in ("threshold", "value"):
        assert bitwise_equal(getattr(again, name), getattr(table, name)), name
    assert (again.width, again.depth) == (table.width, table.depth)
    lines = model_to_lines(model)
    assert model_to_lines(model_from_lines(lines)) == lines


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
    tree = LocalTree(
        feature=np.array([0, -1, -1]),
        threshold=np.array([0.5, np.nan, np.nan]),
        left=np.array([1, -1, -1]),
        right=np.array([2, -1, -1]),
        value=np.array([0.0, 10.0, 20.0]),
    )
    X = np.array([[0.5], [np.nan], [np.inf], [-np.inf], [0.75]])
    assert np.array_equal(predict_dense(tree, X), [10.0, 20.0, 20.0, 10.0, 20.0])


def test_trees_that_are_not_trees_are_refused():
    def tree(feature, left, right):
        n = len(feature)
        return LocalTree(
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
        feature, threshold, left, right, _ = member
        assert invalid_node(feature, threshold, left, right, [member.n_nodes]) is not None


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


@pytest.mark.parametrize("rows", [0, 1, 2, 3, 81, 82, 4000])
def test_range_sums_add_in_tree_order_at_every_row_count(rows):
    # a sum that pairwise or reordered addition would change: leaf values
    # spanning 16 orders of magnitude, either sign, on 150 stumps
    rng = np.random.default_rng(rows)
    magnitude = lambda size: rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-8, 8, size)
    members = [stump(int(f), 0.0, *magnitude(2)) for f in rng.integers(0, N_FEATURES, 150)]
    table = table_of(members)
    X = rng.standard_normal((rows, N_FEATURES))
    leaves = table.leaf_ids(X)
    rules = [(0.0, 1.0), (float(magnitude(1)[0]), 0.1)]
    for start, weight in rules:
        want = np.full(rows, start)
        for t in range(len(members)):
            want = want + weight * table.value[leaves[t]]
        assert bitwise_equal(range_sums(table, X, [len(members)], [(start, weight)])[0], want)
        assert bitwise_equal(tree_loop_sums(table, X, start, weight), want)
    # several members of one range, a zero-tree one among them, each by its own rule
    sizes = [40, 0, 1, 109]
    got = range_sums(table, X, sizes, rules + rules)
    assert got.shape == (len(sizes), rows)
    for k, (start, weight) in enumerate(rules + rules):
        lo = sum(sizes[:k])
        assert bitwise_equal(got[k], tree_loop_sums(table.trees(lo, lo + sizes[k]), X, start, weight))
    # a sum of negative zeros is a negative zero, alone or beside a longer member
    zeros = table_of([LocalTree.leaf(-0.0)] * 2 + [LocalTree.leaf(1.5)] * 3)
    got = range_sums(zeros, X, [2, 3], [(-0.0, 0.5), (-0.0, 0.5)])
    assert bitwise_equal(got, np.stack([np.full(rows, -0.0), np.full(rows, 2.25)]))
    assert bitwise_equal(range_sums(zeros.trees(0, 2), X, [2], [(-0.0, 0.5)])[0], np.full(rows, -0.0))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_node_lines_parsed_a_few_at_a_time_fail_at_the_same_line(data):
    lines, _ = fitted_tree_lines()
    node_lines = [i for i, line in enumerate(lines) if line.startswith("node ")]
    at = data.draw(st.sampled_from(node_lines))
    parts = lines[at].split(" ")
    parts[data.draw(st.integers(0, 5))] = data.draw(st.sampled_from(TOKENS + ["nodes", " 1"]))
    corrupt = list(lines)
    corrupt[at] = " ".join(parts)

    def outcome():
        got = load_within(corrupt)
        error = got.get("error")
        return (error.reason, error.line_no) if error else got

    whole = outcome()
    for chunk in (1, 2, 5):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(io_module, "_PARSE_LINES", chunk)
            got = outcome()
        if isinstance(whole, tuple):
            assert got == whole
        else:
            assert bitwise_equal(got["scores"], whole["scores"])

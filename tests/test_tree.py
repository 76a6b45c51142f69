"""The shared tree grower: split search, leaf assignment, prediction."""

import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from vandalstack.learners import (
    ExtraTreesClassifier,
    GradientBoostingClassifier,
    RandomForestClassifier,
)
from vandalstack.learners import grower as grower_module
from vandalstack.learners.grower import (
    Presort,
    TreeBuilder,
    TreeJob,
    exact_block_split,
    midpoint,
    random_block_split,
)
from tests._util import LocalTree, predict_dense
from vandalstack.learners.io import model_to_lines
from vandalstack.rng import keyed_choice, node_streams, splitmix64


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


class RefDraws:
    """One node's keyed stream, read slot by slot in plain integers: the rule of ``rng.node_streams``.

    The stream starts at the splitmix64 output of the tree's key XOR the
    output of ``depth << 40 | position``; each slot is the stream's next
    output.
    """

    def __init__(self, key, depth, position):
        _, inner = splitmix64(depth << 40 | position)
        _, self.state = splitmix64(key ^ inner)

    def word(self):
        self.state, out = splitmix64(self.state)
        return out

    def below(self, bound):
        # Lemire on the high half; a draw in the biased sliver takes the next slot
        while True:
            product = (self.word() >> 32) * bound
            if product & 0xFFFFFFFF >= (1 << 32) % bound:
                return product >> 32

    def choice(self, d, m):
        # Floyd's algorithm, sorted
        chosen = []
        for j in range(d - m, d):
            r = self.below(j + 1)
            chosen.append(j if r in chosen else r)
        return sorted(chosen)

    def double(self):
        return (self.word() >> 11) * 2.0**-53


def ref_random_split(v, t, criterion, u):
    """The threshold ``u`` of the way from ``min(v)`` to ``max(v)``, or ``None``."""
    lo = float(v.min())
    hi = float(v.max())
    if lo == hi:
        return None
    threshold = lo + (hi - lo) * u
    if not lo <= threshold < hi:
        threshold = lo
    gain = ref_impurity_gain(t, v <= threshold, criterion)
    if not np.isfinite(gain):
        return None
    return gain, threshold


def ref_find_split(X, rows, sel, t, criterion, max_features, draws, random_threshold):
    """``(gain, feature, threshold, go_left)`` of a node, or ``None``; ``draws`` is its :class:`RefDraws`."""
    d = X.shape[1]
    if max_features is None or max_features >= d:
        candidates = range(d)
    else:
        candidates = draws.choice(d, max_features)
    node_rows = rows[sel]
    best = None
    for j in candidates:
        v = X[node_rows, j]
        if random_threshold:
            # every candidate reads its slot, a constant column too
            found = ref_random_split(v, t, criterion, draws.double())
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


def block_and_reference(X, jobs, nodes, criterion, max_features, random_threshold):
    """Both searches over one grove step.

    ``jobs`` holds per tree its rows and key, ``nodes`` per node its tree,
    its positions (into the tree's rows) and their targets, tree by tree.
    A node's draws are keyed by its depth and by where its range would
    start, here its index among its tree's nodes times 1,000,003.  The
    grower searches all of them as one step of one grove; the reference
    searches each node alone.  Returns both splits per node.
    """
    builder = TreeBuilder(criterion, None, max_features, random_threshold=random_threshold)
    grove_jobs = []
    for i, (rows, key) in enumerate(jobs):
        target = np.zeros(rows.size)
        for tree, sel, t in nodes:
            if tree == i:
                target[sel] = t
        grove_jobs.append(TreeJob(rows, target, None, key))
    grove = grower_module._Grove(builder, X, grove_jobs)
    tree = np.array([tree for tree, _, _ in nodes])
    sizes = np.array([sel.size for _, sel, _ in nodes])
    pos = np.concatenate([grove.base[tree] + sel for tree, sel, _ in nodes])
    records = np.zeros((5, tree.size), dtype=np.intp)
    records[grower_module.TREE] = tree
    first = np.searchsorted(tree, tree)  # each tree's first node, tree by tree
    position = (np.arange(tree.size) - first) * 1_000_003
    records[grower_module.LO] = grove.base[tree] + position
    records[grower_module.DEPTH] = depth = 3 + tree
    seg = grower_module.Segments.of(sizes)
    grove._lay_out(records, seg, pos)
    gain, feature, low, high, order, cut, targets = grove._search(seg, pos)
    assert targets.tobytes() == grove.target[order].tobytes()
    threshold = midpoint(low, high)
    got, want = [], []
    for i, ((tree, sel, t), lo) in enumerate(zip(nodes, np.cumsum(sizes) - sizes)):
        # the step reorders the node's positions, its left child's first
        node_pos = pos[lo : lo + sel.size]
        left = np.isin(node_pos, order[lo : cut[i]])
        assert np.array_equal(np.sort(order[lo : lo + sel.size]), node_pos)
        found = (gain[i], feature[i], threshold[i], left)
        got.append(found if gain[i] >= 0.0 else None)
        rows, key = jobs[tree]
        draws = RefDraws(key, int(depth[i]), int(position[i]))
        want.append(ref_find_split(X, rows, sel, t, criterion, max_features, draws, random_threshold))
    return got, want


def exact_split(block, t, criterion):
    """``exact_block_split`` over each column of ``block``, stably sorted here.

    Returns per column the ``(gain, threshold)`` arrays of its best boundary.
    """
    gains, thresholds = [], []
    for v in block.T:
        order = np.argsort(v, kind="mergesort")
        vs = v[order][None, :]
        seg = grower_module.Segments.of(np.array([v.size]))
        cells = Presort.laid_out(order[None, :], vs, seg)
        best, _, (at,) = exact_block_split(t[order][None, :], cells.closed, cells.left, seg, criterion)
        gains.append(best[0, 0])
        thresholds.append(midpoint(float(vs[0, at]), float(vs[0, at + 1])))
    return np.array(gains), np.array(thresholds)


def random_split(block, t, criterion, u):
    """``random_block_split`` over one node, with the doubles ``u``: its ``(gain, threshold)`` per column."""
    gains, thresholds, _ = random_block_split(block, t, np.array([0]), criterion, u[None, :])
    return gains[0], thresholds[0]


COLUMN_KINDS = ("few", "float", "adjacent", "constant", "sparse")


def column_data(rng, n, kinds):
    X = np.empty((n, len(kinds)))
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
    return X


@st.composite
def node_searches(draw):
    """One grove step of a grower's fit: data, trees, the step's nodes, rule, budget.

    The step searches one node, a level of one tree (several disjoint
    nodes), or a level of each of several trees, with either rule, drawing
    candidates or not.
    """
    n = draw(st.integers(2, 30))
    d = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = column_data(rng, n, draw(st.lists(st.sampled_from(COLUMN_KINDS), min_size=d, max_size=d)))
    shape = draw(st.sampled_from(("node", "level", "trees")))
    criterion = draw(st.sampled_from(("gini", "variance")))
    random_threshold = draw(st.booleans())
    max_features = draw(st.one_of(st.none(), st.integers(1, d + 1)))
    if criterion == "gini":
        kind = "labels"
    elif random_threshold:
        # the random rule sums a column's left side in row order, the
        # reference in the order of a compressed copy: equal only when
        # every partial sum is exact, as the 0/1 Gini sums always are
        kind = "integers"
    else:  # few distinct targets: exact zero-gain splits and exact ties
        kind = draw(st.sampled_from(("normal", "few")))

    def targets(size):
        if kind == "labels":
            return rng.integers(0, 2, size=size).astype(np.float64)
        if kind == "integers":
            return rng.integers(-3, 4, size=size).astype(np.float64)
        if kind == "normal":
            return rng.normal(size=size)
        return rng.choice([-0.5, 0.25, 1.0], size=size)

    jobs, nodes = [], []
    for i in range(draw(st.integers(2, 4)) if shape == "trees" else 1):
        if draw(st.booleans()):  # a bootstrap sample: sorted, with repeats
            rows = np.sort(rng.integers(0, n, size=n))
        else:
            rows = np.arange(n, dtype=np.int64)
        jobs.append((rows, draw(st.integers(0, 2**64 - 1))))
        if shape != "node":  # disjoint nodes of two positions or more
            k = max(1, min(draw(st.integers(2, 5)), n // 2))
            sizes = 2 + rng.multinomial(draw(st.integers(2 * k, n)) - 2 * k, [1 / k] * k)
            cuts = np.cumsum(sizes)
            order = rng.permutation(n)
            sels = [np.sort(order[hi - size : hi]) for size, hi in zip(sizes, cuts)]
        else:
            sels = [np.sort(rng.choice(n, size=draw(st.integers(2, n)), replace=False))]
        nodes += [(i, sel, targets(sel.size)) for sel in sels]
    # a small budget forces the column-chunked scan
    cells = draw(st.sampled_from((grower_module.SPLIT_BLOCK_CELLS, 1, 5, 40)))
    return X, jobs, nodes, criterion, max_features, random_threshold, cells


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(node_searches())
def test_block_search_matches_per_column_reference_bit_for_bit(case):
    *args, cells = case
    with mock.patch.object(grower_module, "SPLIT_BLOCK_CELLS", cells):
        got, want = block_and_reference(*args)
    for got_split, want_split in zip(got, want):
        assert_same_split(got_split, want_split)


# ---------------------------------------------------------------------------
# Reference: one tree grown alone, depth first, one node at a time, as the
# grower ran before the trees of a forest grew in lockstep.  Its split
# search is the per-column reference above, and each node draws from its
# own RefDraws, keyed by its depth and where its range starts: a node's
# left child starts where it does, its right child past the left's rows.


def ref_build(X, rows, target, leaf_value, importances, criterion, max_depth,
              max_features, key, random_threshold):
    """``(tree, leaf_of)`` of one tree with key ``key``; adds its splits to ``importances``."""
    n_total = rows.size
    feature, threshold, left, right, value = [], [], [], [], []
    leaf_of = np.full(n_total, -1, dtype=np.int64)

    def new_node():
        feature.append(-1)
        threshold.append(np.nan)
        left.append(-1)
        right.append(-1)
        value.append(0.0)
        return len(feature) - 1

    stack = [(new_node(), np.arange(n_total, dtype=np.int64), 0, 0)]
    while stack:
        nid, sel, depth, position = stack.pop()
        t = target[sel]
        can_split = (
            sel.size >= 2
            and (max_depth is None or depth < max_depth)
            and not (t == t[0]).all()
        )
        split = None
        if can_split:
            draws = None if key is None else RefDraws(key, depth, position)
            split = ref_find_split(X, rows, sel, t, criterion, max_features, draws, random_threshold)
        if split is None:
            value[nid] = float(leaf_value(sel))
            leaf_of[sel] = nid
            continue
        gain, j, thr, go_left = split
        importances[j] += (sel.size / n_total) * gain
        feature[nid] = j
        threshold[nid] = thr
        left[nid] = new_node()
        right[nid] = new_node()
        stack.append((right[nid], sel[~go_left], depth + 1, position + int(go_left.sum())))
        stack.append((left[nid], sel[go_left], depth + 1, position))
    tree = LocalTree(
        feature=np.asarray(feature, dtype=np.int64),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int64),
        right=np.asarray(right, dtype=np.int64),
        value=np.asarray(value, dtype=np.float64),
    )
    return tree, leaf_of


@st.composite
def forest_growths(draw):
    """Trees of one fit: data, per tree rows/targets/key, the grower's settings."""
    n = draw(st.integers(1, 24))
    d = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = column_data(rng, n, draw(st.lists(st.sampled_from(COLUMN_KINDS), min_size=d, max_size=d)))
    if draw(st.booleans()):  # repeated rows
        X = X[rng.integers(0, n, size=n)]
    criterion = draw(st.sampled_from(("gini", "variance")))
    random_threshold = draw(st.booleans())
    labels = draw(st.sampled_from(("mixed", "zeros", "ones")))
    if criterion == "gini":
        y = {"mixed": rng.integers(0, 2, size=n), "zeros": np.zeros(n), "ones": np.ones(n)}[labels]
    elif random_threshold:  # exact sums only, as for the block search
        y = rng.integers(-3, 4, size=n)
    elif labels == "mixed":
        y = rng.normal(size=n)
    else:
        y = rng.choice([-0.5, 0.25, 1.0], size=n)
    y = y.astype(np.float64)
    bootstrap = draw(st.booleans())
    trees = []
    for _ in range(draw(st.integers(1, 5))):
        rows = np.sort(rng.integers(0, n, size=n)) if bootstrap else np.arange(n, dtype=np.int64)
        trees.append((rows, y[rows], draw(st.integers(0, 2**64 - 1))))
    max_features = draw(st.sampled_from((None, "sqrt", "int")))
    if max_features == "sqrt":
        max_features = max(1, int(round(np.sqrt(d))))
    elif max_features == "int":
        max_features = draw(st.integers(1, d + 1))
    max_depth = draw(st.one_of(st.none(), st.integers(1, 4)))
    cells = draw(st.sampled_from((grower_module.SPLIT_BLOCK_CELLS, 1, 5, 40)))
    # integer targets: the grower's own mean leaves, summed in one pass per step
    grove_means = (criterion == "gini" or random_threshold) and draw(st.booleans())
    return X, trees, criterion, max_depth, max_features, random_threshold, cells, grove_means


def mean_leaf(target):
    return lambda sel: target[sel].sum() / sel.size


def grown_trees(builder, X, jobs, importances=None):
    """Per job, its tree's columns ``(feature, threshold, right, value)`` and its rows' leaf ids.

    The columns are ``build_many``'s table, ``local()`` and split by
    ``sizes``.  The leaf ids come from :meth:`TreeBuilder.grow` over all
    the jobs as one grove, each position's leaf taken to its node by
    ``number_trees``.
    """
    table = builder.build_many(X, jobs, importances)
    *columns, sizes = table.local()
    bounds = np.cumsum(sizes)[:-1]
    trees = zip(*(np.split(column, bounds) for column in columns))
    grown, leaf = builder.grow(X, jobs)
    _, leaf_node = grower_module.number_trees([grown])
    return list(zip(trees, np.split(leaf_node[leaf], np.cumsum(grown.size)[:-1])))


# the extra-trees rule at depth 1: the root sends rows 6-9, constant in
# both columns and of both labels, right, so the step's last node has no
# split, while the node before it splits; each column is a chunk of its own
CONSTANT_LAST_NODE = (
    np.array([[0.0, 0.5], [0.001, 0.4], [0.002, 0.3], [0.003, 0.2], [0.004, 0.1], [0.005, 0.0]]
             + [[1.0, 9.0]] * 4),
    [(np.arange(10), np.array([0, 1, 1, 0, 1, 0, 1, 1, 0, 1], dtype=np.float64), 5)],
    "gini", None, None, True, 1, False,
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(forest_growths())
@example(CONSTANT_LAST_NODE)
def test_lockstep_grower_matches_per_tree_reference_bit_for_bit(case):
    X, trees, criterion, max_depth, max_features, random_threshold, cells, grove_means = case
    builder = TreeBuilder(criterion, max_depth, max_features, random_threshold=random_threshold)
    jobs = [
        TreeJob(rows, target, None if grove_means else mean_leaf(target), key)
        for rows, target, key in trees
    ]
    importances = np.zeros(X.shape[1])
    steps = []
    step = grower_module._Grove._step

    def recording(grove, nodes):
        steps.append((grove, nodes[grower_module.DEPTH].tolist()))
        return step(grove, nodes)

    # a small budget splits the trees into groups and a node's columns into
    # chunks
    with mock.patch.object(grower_module, "SPLIT_BLOCK_CELLS", cells), \
            mock.patch.object(grower_module._Grove, "_step", recording):
        grown = grown_trees(builder, X, jobs, importances)
    # every grove steps a level at a time: its k-th step takes every open
    # node at depth k
    for grove in {id(g): g for g, _ in steps}.values():
        depths = [d for g, d in steps if g is grove]
        assert [set(d) for d in depths] == [{k} for k in range(len(depths))]
    want_importances = np.zeros(X.shape[1])
    for (columns, leaf_of), (rows, target, key) in zip(grown, trees):
        tree = LocalTree.grown(columns)
        want, want_leaf_of = ref_build(
            X, rows, target, mean_leaf(target), want_importances, criterion, max_depth,
            max_features, key, random_threshold,
        )
        for name in ("feature", "threshold", "left", "right", "value"):
            got_array, want_array = getattr(tree, name), getattr(want, name)
            assert got_array.dtype == want_array.dtype
            assert got_array.tobytes() == want_array.tobytes(), name
        assert np.array_equal(leaf_of, want_leaf_of)
    assert len(grown) == len(trees)
    assert importances.tobytes() == want_importances.tobytes()


# A tree key whose root draw below 641 falls in Lemire's biased sliver
# (2^32 mod 641 is 640, the widest of any bound below 642), found by
# scanning keys from 0: the draw moves on to slot 1, so the root's
# threshold slots start at 2.
REJECTED_KEY = 29_697_918


@pytest.mark.parametrize("random_threshold", [False, True])
def test_a_tree_whose_root_draw_is_rejected_matches_the_reference(random_threshold):
    zero = np.zeros(1, dtype=np.intp)
    _, slot = keyed_choice(node_streams(np.array([REJECTED_KEY], dtype=np.uint64), zero, zero), 641, 1)
    assert slot.tolist() == [2]
    rng = np.random.default_rng(3)
    X = rng.random((12, 641))
    y = (X[:, 0] > 0.5).astype(np.float64)
    rows = np.arange(12)
    builder = TreeBuilder("gini", None, 1, random_threshold=random_threshold)
    [(columns, leaf_of)] = grown_trees(builder, X, [TreeJob(rows, y, None, REJECTED_KEY)])
    want, want_leaf_of = ref_build(
        X, rows, y, mean_leaf(y), np.zeros(641), "gini", None, 1, REJECTED_KEY, random_threshold
    )
    tree = LocalTree.grown(columns)
    for name in ("feature", "threshold", "left", "right", "value"):
        assert getattr(tree, name).tobytes() == getattr(want, name).tobytes(), name
    assert np.array_equal(leaf_of, want_leaf_of)


@st.composite
def boosting_growths(draw):
    """Rounds of a boosting fit: data, per round residuals and hessians, max_depth, budget."""
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = column_data(rng, n, draw(st.lists(st.sampled_from(COLUMN_KINDS), min_size=d, max_size=d)))
    if draw(st.booleans()):  # repeated rows
        X = X[rng.integers(0, n, size=n)]
    rounds = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            residual = rng.normal(size=n)
        else:  # few distinct targets: exact zero-gain splits and exact ties
            residual = rng.choice([-0.5, 0.25, 1.0], size=n)
        rounds.append((residual, rng.random(n)))
    max_depth = draw(st.one_of(st.none(), st.integers(1, 6)))
    cells = draw(st.sampled_from((grower_module.SPLIT_BLOCK_CELLS, 1, 5, 40)))
    return X, rounds, max_depth, cells


def newton_leaf(residual, hessian):
    # pairwise sums: they read the leaf's positions in ascending order
    return lambda sel: residual[sel].sum() / (hessian[sel].sum() + 1e-16)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(boosting_growths())
def test_drawless_level_grower_matches_per_tree_reference_bit_for_bit(case):
    # boosting's shape: one presort for all rounds, a leaf rule per round, no draws
    X, rounds, max_depth, cells = case
    rows = np.arange(X.shape[0], dtype=np.int64)
    presort = Presort.of(X, rows)
    builder = TreeBuilder("variance", max_depth, None)
    importances = np.zeros(X.shape[1])
    want_importances = np.zeros(X.shape[1])
    for residual, hessian in rounds:
        leaf = newton_leaf(residual, hessian)
        with mock.patch.object(grower_module, "SPLIT_BLOCK_CELLS", cells):
            [(columns, leaf_of)] = grown_trees(
                builder, X, [TreeJob(rows, residual, leaf, None, presort)], importances
            )
        want, want_leaf_of = ref_build(
            X, rows, residual, leaf, want_importances, "variance", max_depth, None, None, False
        )
        tree = LocalTree.grown(columns)
        for name in ("feature", "threshold", "left", "right", "value"):
            got_array, want_array = getattr(tree, name), getattr(want, name)
            assert got_array.dtype == want_array.dtype
            assert got_array.tobytes() == want_array.tobytes(), name
        assert leaf_of.tobytes() == want_leaf_of.tobytes()
        assert importances.tobytes() == want_importances.tobytes()


def test_level_steps_over_more_than_an_int16_of_positions_match_the_reference():
    # 70,000 positions: a closed leaf's positions lie outside a later
    # step's nodes while that step sorts several nodes, more of them than
    # an int16 counts
    n = 70_000
    rng = np.random.default_rng(5)
    X = np.column_stack([np.arange(n, dtype=np.float64), rng.integers(0, 50, size=n).astype(np.float64)])
    # the root splits off a pure leaf: its positions are in no later node
    residual = np.where(np.arange(n) < 20_000, 5.0, rng.normal(size=n))
    hessian = rng.random(n)
    leaf = newton_leaf(residual, hessian)
    rows = np.arange(n, dtype=np.int64)
    sorted_keys = []
    stable_order = grower_module._stable_order

    def recording(keys, bound):
        sorted_keys.append((keys.size, bound))
        return stable_order(keys, bound)

    importances = np.zeros(2)
    with mock.patch.object(grower_module, "_stable_order", recording):
        [(columns, leaf_of)] = grown_trees(
            TreeBuilder("variance", 3, None), X, [TreeJob(rows, residual, leaf, None)], importances
        )
    # a step of two nodes sorted a column's cells of all 70,000 positions,
    # one column a chunk, the closed leaf's with the key past both nodes'
    assert (n, 2 + 1) in sorted_keys
    want_importances = np.zeros(2)
    want, want_leaf_of = ref_build(
        X, rows, residual, leaf, want_importances, "variance", 3, None, None, False
    )
    tree = LocalTree.grown(columns)
    assert tree.feature.size == 9 and tree.feature[1] == -1
    for name in ("feature", "threshold", "left", "right", "value"):
        assert getattr(tree, name).tobytes() == getattr(want, name).tobytes(), name
    assert leaf_of.tobytes() == want_leaf_of.tobytes()
    assert importances.tobytes() == want_importances.tobytes()


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 2**20), st.integers(0, 300), st.integers(0, 2**32 - 1))
def test_stable_order_is_a_stable_argsort_on_both_sides_of_16_bits(bound, size, seed):
    keys = np.random.default_rng(seed).integers(0, bound, size=size)
    order = grower_module._stable_order(keys, bound)
    assert order.tolist() == keys.argsort(kind="stable").tolist()


def test_numbering_several_groves_at_once_matches_numbering_each_alone():
    # a boosting fit numbers its rounds' trees together; a forest's groves
    # mix trees of several sizes
    rng = np.random.default_rng(8)
    X = column_data(rng, 30, ("few", "float", "sparse", "adjacent"))
    rows = np.arange(30, dtype=np.int64)
    presort = Presort.of(X, rows)
    builder = TreeBuilder("variance", 4, None)
    groves, leaves, alone, alone_leaves = [], [], [], []
    want_importances = np.zeros(X.shape[1])
    for r in range(5):
        residual = rng.normal(size=30) if r % 2 else rng.choice([-0.5, 0.25, 1.0], size=30)
        jobs = [TreeJob(rows, residual, newton_leaf(residual, rng.random(30)), None, presort)]
        if r == 3:  # a grove of two trees, one on a bootstrap sample
            boot = np.sort(rng.integers(0, 30, size=30))
            jobs.append(TreeJob(boot, residual[boot], newton_leaf(residual, rng.random(30)), None))
        alone.append(builder.build_many(X, jobs, want_importances).local())
        grown, leaf = builder.grow(X, jobs)
        alone_leaves.append(grower_module.number_trees([grown])[1][leaf])
        groves.append(grown)
        leaves.append(leaf)
    importances = np.zeros(X.shape[1])
    block, leaf_node = grower_module.number_trees(groves, importances)
    assert importances.tobytes() == want_importances.tobytes()
    assert block[4].size == 6  # trees
    for got_column, *want_columns in zip(block, *alone):
        want_column = np.concatenate(want_columns)
        assert got_column.dtype == want_column.dtype
        assert got_column.tobytes() == want_column.tobytes()
    # each grove's leaves, back to back, then each position's leaf
    starts = np.cumsum([0] + [g.leaves.shape[1] for g in groves])
    leaf_of = np.concatenate([leaf_node[a:b][leaf] for a, b, leaf in zip(starts, starts[1:], leaves)])
    assert leaf_of.tobytes() == np.concatenate(alone_leaves).tobytes()


def test_a_pure_root_beside_trees_that_grow_a_level_a_step():
    # the second bootstrap holds one class: its root opens nothing, while
    # the others step without it and its presort columns
    rng = np.random.default_rng(1)
    X = rng.random((10, 3))
    y = np.array([0, 1, 0, 1, 1, 0, 1, 0, 0, 1], dtype=np.float64)
    rows = [np.arange(10), np.array([0, 0, 2, 2, 5, 7, 7, 8, 8, 8]), np.arange(10)]
    importances = np.zeros(3)
    grown = grown_trees(
        TreeBuilder("gini", None, None), X, [TreeJob(r, y[r], None, None) for r in rows], importances
    )
    want_importances = np.zeros(3)
    for (columns, leaf_of), r in zip(grown, rows):
        want, want_leaf_of = ref_build(
            X, r, y[r], mean_leaf(y[r]), want_importances, "gini", None, None, None, False
        )
        tree = LocalTree.grown(columns)
        for name in ("feature", "threshold", "left", "right", "value"):
            assert getattr(tree, name).tobytes() == getattr(want, name).tobytes(), name
        assert np.array_equal(leaf_of, want_leaf_of)
    assert importances.tobytes() == want_importances.tobytes()


@st.composite
def exact_groves(draw):
    """Trees of one exact-rule grove: data with tied values and a constant column, 1-4 jobs, a pure root."""
    n = draw(st.integers(2, 20))
    d = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = column_data(rng, n, draw(st.lists(st.sampled_from(COLUMN_KINDS), min_size=d, max_size=d)))
    X[:, draw(st.integers(0, d - 1))] = 3.0
    criterion = draw(st.sampled_from(("gini", "variance")))
    trees = []
    for i in range(draw(st.integers(1, 4))):
        rows = np.sort(rng.integers(0, n, size=n)) if draw(st.booleans()) else np.arange(n, dtype=np.int64)
        if criterion == "gini":
            y = rng.integers(0, 2, size=n).astype(np.float64)
        else:  # few distinct targets: exact zero-gain splits and exact ties
            y = rng.choice([-0.5, 0.25, 1.0], size=n) if draw(st.booleans()) else rng.normal(size=n)
        if i == 0 and draw(st.booleans()):  # a pure root
            y = np.full(n, y[0])
        trees.append((rows, y[rows], draw(st.integers(0, 2**64 - 1))))
    max_features = draw(st.one_of(st.none(), st.integers(1, d)))
    max_depth = draw(st.sampled_from((1, 3, None)))
    return X, trees, criterion, max_depth, max_features


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(exact_groves())
def test_every_step_searches_its_nodes_presort_and_grows_the_reference(case):
    X, trees, criterion, max_depth, max_features = case
    builder = TreeBuilder(criterion, max_depth, max_features)
    jobs = [TreeJob(rows, target, mean_leaf(target), key) for rows, target, key in trees]
    seen = []
    step = grower_module._Grove._step

    def recording(grove, nodes):
        seen.append((grove, grove.seg, grove.pos.copy(), grove.candidates.copy(), grove.cells))
        return step(grove, nodes)

    with mock.patch.object(grower_module._Grove, "_step", recording):
        grown = grown_trees(builder, X, jobs)
    # a node's cells in a column are its tree's presort of that column
    # filtered to the node's positions
    for grove, seg, pos, candidates, cells in seen:
        rows = np.concatenate([job.rows for job in jobs])
        for k, (lo, hi) in enumerate(zip(seg.starts, seg.last + 1)):
            members = set(pos[lo:hi].tolist())
            tree = int(np.searchsorted(grove.base, pos[lo], side="right")) - 1
            base, tree_rows = grove.base[tree], jobs[tree].rows
            for j, column in enumerate(candidates[k]):
                presort = base + np.argsort(X[tree_rows, column], kind="stable")
                want = np.array([p for p in presort.tolist() if p in members])
                values = X[rows[want], column]
                assert cells.order[j, lo:hi].tolist() == want.tolist()
                assert cells.values[j, lo:hi].tobytes() == values.tobytes()
                closed = np.append(~(values[1:] > values[:-1]), True)
                assert cells.closed[j, lo:hi].tolist() == closed.tolist()
            left = np.arange(1.0, hi - lo + 1.0)
            left[-1] -= 1.0
            assert cells.left[lo:hi].tobytes() == left.tobytes()
    for (columns, leaf_of), (rows, target, key) in zip(grown, trees):
        want, want_leaf_of = ref_build(
            X, rows, target, mean_leaf(target), np.zeros(X.shape[1]), criterion, max_depth,
            max_features, key, False,
        )
        tree = LocalTree.grown(columns)
        for name in ("feature", "threshold", "left", "right", "value"):
            assert getattr(tree, name).tobytes() == getattr(want, name).tobytes(), name
        assert np.array_equal(leaf_of, want_leaf_of)


@pytest.mark.parametrize("n_estimators", [0, 1])
def test_boosting_fits_of_zero_and_one_round_match_the_reference(n_estimators):
    X, y = pinned_data()
    model = GradientBoostingClassifier(n_estimators=n_estimators).fit(X, y)
    *columns, sizes = model.nodes_.local()
    assert sizes.size == n_estimators
    prior = y.mean()
    assert model.base_score_ == float(np.log(prior / (1.0 - prior)))
    if n_estimators:
        p = np.full(y.size, 1.0 / (1.0 + np.exp(-model.base_score_)))
        residual, hessian = y - p, p * (1.0 - p)

        def leaf(sel):
            return float(min(max(residual[sel].sum() / (hessian[sel].sum() + 1e-16), -16.0), 16.0))

        rows = np.arange(y.size, dtype=np.int64)
        want, _ = ref_build(X, rows, residual, leaf, np.zeros(X.shape[1]), "variance", 3, None, None, False)
        tree = LocalTree.grown(columns)
        for name in ("feature", "threshold", "left", "right", "value"):
            assert getattr(tree, name).tobytes() == getattr(want, name).tobytes(), name


def test_variance_parent_term_is_c_pow_on_a_million_means():
    # means spanning 1e-300 to 1e300 of both signs, zeros and a subnormal:
    # each squared as a numpy scalar is (C pow), and as a Python float is
    # where the square is finite
    rng = np.random.default_rng(26)
    n = 1_000_000
    m = np.concatenate([rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-300, 300, n), [0.0, -0.0, 5e-324]])
    with np.errstate(over="ignore"):
        got = grower_module.parent_term(m, 1.0, "variance")
        assert got.tobytes() == np.array([np.float64(v) ** 2 for v in m]).tobytes()
        assert (m * m != got).any()  # an array's multiply differs
    finite = np.abs(m) < 1e150
    assert got[finite].tobytes() == np.array([v**2 for v in m[finite].tolist()]).tobytes()


@pytest.mark.parametrize("random_threshold", [False, True])
@pytest.mark.parametrize("criterion", ["gini", "variance"])
def test_block_larger_than_the_cell_budget_is_searched_in_chunks(criterion, random_threshold):
    rng = np.random.default_rng(11)
    n, d = 300, 260
    chunk = grower_module.SPLIT_BLOCK_CELLS // n
    assert n * d > grower_module.SPLIT_BLOCK_CELLS and d > chunk
    X = rng.integers(0, 6, size=(n, d)).astype(np.float64)
    # the best column, once in the first chunk and once in the second:
    # the tie must go to the first
    X[:, chunk + 10] = X[:, 7] = rng.random(n)
    y = (X[:, 7] > 0.5).astype(np.float64)
    y[:20] = 1.0 - y[:20]  # noise, so a column can separate better
    t = y if criterion == "gini" else 2.0 * y - 1.0
    rows = np.arange(n, dtype=np.int64)
    case = (X, [(rows, 5)], [(0, rows, t)], criterion, None, random_threshold)
    [got], [want] = block_and_reference(*case)
    assert_same_split(got, want)
    if not random_threshold:
        assert got[1] == 7
    # a strictly better column in the second chunk wins
    X[:, chunk + 10] = t
    [got], [want] = block_and_reference(*case)
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
    gains, _ = exact_split(v[:, None], t, "variance")
    assert bits(gains[0]) == bits(ref_best_split_exact(v, t, "variance")[0])
    gains, _ = random_split(v[:, None], t, "variance", np.array([0.375]))
    assert bits(gains[0]) == bits(ref_random_split(v, t, "variance", 0.375)[0])


def test_a_column_whose_width_overflows_splits_at_its_minimum():
    v = np.array([-1e308, 1e308, 1e308])
    t = np.array([0.0, 1.0, 1.0])
    (gain,), (threshold,) = random_split(v[:, None], t, "gini", np.array([0.5]))
    assert threshold == -1e308
    assert bits(gain) == bits(ref_random_split(v, t, "gini", 0.5)[0])


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
            "0bfa34fb59f03f386a796c1af2eba9aaa0adef26afbe206d311069608db5a4e6",
        ),
        (
            ExtraTreesClassifier(n_estimators=15, seed=3),
            "ab10f410f26800bee89372b2825da0036db9fe7618afa9a75d95c9a5e96813bc",
        ),
        (
            GradientBoostingClassifier(n_estimators=25, max_depth=6, seed=3),
            "9347b48a33da4182c4f08390ea856d136fdbb5c8217ccc3d2e65cef8fc89377f",
        ),
    ],
    ids=["random_forest", "extra_trees", "gradient_boosting"],
)
def test_fitted_model_text_is_pinned(model, digest):
    # digests of the text the per-column grower wrote for these fits (the
    # forests' with the keyed draws): the block search must grow the same
    # trees, byte for byte
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
        gains, thresholds = exact_split(v[:, None], t, criterion)
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
    (gain,), (threshold,) = exact_split(v[:, None], t, "gini")
    assert threshold == 0.5
    assert gain == pytest.approx(1.0 / 9.0, abs=1e-15)


def test_best_split_constant_column():
    v = np.full(6, 3.0)
    t = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0])
    gains, _ = exact_split(v[:, None], t, "gini")
    assert gains[0] == -np.inf


def test_best_split_threshold_strictly_below_upper_value():
    # adjacent floats: the midpoint rounds onto the upper value, and the
    # guard must fall back to the lower one so the split separates them
    lo = 1.0
    hi = np.nextafter(1.0, 2.0)
    v = np.array([lo, hi, hi])
    t = np.array([0.0, 1.0, 1.0])
    (gain,), (threshold,) = exact_split(v[:, None], t, "gini")
    assert threshold == lo
    assert (v <= threshold).tolist() == [True, False, False]
    assert gain > 0


def test_random_split_within_range_and_gain_definition():
    rng = np.random.default_rng(1)
    for _ in range(100):
        n = int(rng.integers(2, 30))
        v = rng.integers(0, 4, size=n).astype(np.float64)
        t = rng.integers(0, 2, size=n).astype(np.float64)
        (gain,), (threshold,) = random_split(
            v[:, None], t, "gini", rng.random(1)
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


def grow_one(builder, X, y, importances=None, key=0):
    """One tree over every row of ``X``, through the grower's one entry point."""
    job = TreeJob(np.arange(X.shape[0]), y, lambda sel: y[sel].mean(), key)
    [(columns, leaf_of)] = grown_trees(builder, X, [job], importances)
    return LocalTree.grown(columns), leaf_of


def build_random_tree(rng, n=60, d=5, depth=4):
    dense = rng.random((n, d)) * (rng.random((n, d)) < 0.6)
    y = (dense @ rng.random(d) + 0.2 * rng.normal(size=n) > 0.5).astype(np.float64)
    key = int(rng.integers(1 << 30))
    tree, leaf_of = grow_one(TreeBuilder("gini", depth, None), dense, y, key=key)
    return dense, y, tree, leaf_of


def test_predict_scalar_path_matches_vectorised_path():
    rng = np.random.default_rng(3)
    for _ in range(20):
        dense, _, tree, _ = build_random_tree(rng)
        batch = predict_dense(tree, dense)  # all rows in one walk
        one_by_one = np.concatenate(
            [predict_dense(tree, dense[i : i + 1]) for i in range(dense.shape[0])]
        )
        assert np.array_equal(batch, one_by_one)


def test_leaf_of_agrees_with_prediction():
    rng = np.random.default_rng(4)
    dense, _, tree, leaf_of = build_random_tree(rng)
    assert np.array_equal(predict_dense(tree, dense), tree.value[leaf_of])


def test_builder_respects_max_depth():
    rng = np.random.default_rng(5)
    dense = rng.random((80, 4))
    y = (dense[:, 0] > 0.5).astype(np.float64)
    for depth in (1, 2, 3):
        tree, _ = grow_one(TreeBuilder("gini", depth, None), dense, y)
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
    tree, leaf_of = grow_one(TreeBuilder("gini", None, None), dense, y)
    assert tree.n_nodes == 1
    assert tree.value[0] == 1.0
    assert np.array_equal(leaf_of, np.zeros(3, dtype=np.int64))


def test_builder_prefers_lowest_feature_index_on_ties():
    # identical columns: every split gain ties, the lower index must win
    rng = np.random.default_rng(6)
    col = rng.random(50)
    y = (col > 0.5).astype(np.float64)
    dense = np.column_stack([col, col])
    tree, _ = grow_one(TreeBuilder("gini", 1, None), dense, y)
    assert tree.feature[0] == 0


def test_builder_accumulates_importances():
    rng = np.random.default_rng(7)
    dense = rng.random((100, 3))
    y = (dense[:, 1] > 0.5).astype(np.float64)  # only column 1 matters
    importances = np.zeros(3)
    grow_one(TreeBuilder("gini", None, None), dense, y, importances)
    assert importances[1] > 0
    assert importances[0] == 0.0 and importances[2] == 0.0


def test_builder_rejects_unknown_criterion():
    with pytest.raises(ValueError):
        TreeBuilder("entropy", None, None)


def test_leaf_tree_prediction_paths():
    tree = LocalTree.leaf(0.25)
    assert np.array_equal(predict_dense(tree, np.zeros((3, 2))), np.full(3, 0.25))
    assert np.array_equal(predict_dense(tree, np.zeros((20, 2))), np.full(20, 0.25))

"""The tree grower shared by every tree family, on a dense training matrix.

Classification trees split on Gini impurity, the regression trees inside
the boosting model split on variance, and the extremely-randomised
variant draws one uniform threshold per candidate feature instead of
scanning.  What a leaf stores is up to the caller (positive fraction,
mean target, or a Newton step), supplied as a callback.

Each tree comes as a :class:`TreeJob` that carries its rows, targets,
leaf rule and key.  Trees leave a grove numbered, as one block of whole
node columns in the tree-local layout of
:func:`~vandalstack.learners.tree.invalid_node`, and :func:`node_table`
joins blocks into the model's one
:class:`~vandalstack.learners.tree.NodeTable`.  A forest fit makes its
table with :meth:`TreeBuilder.build_many`; a boosting fit grows each
round's tree with :meth:`TreeBuilder.grow`, numbers its rounds' trees
with :func:`number_trees` many rounds at once, and joins those blocks.

The models densify their training matrix once per fit.  Trees grow
together in groves, a level a step, and each grove step is a fixed number
of array passes over every open node of every tree.  A node draws its
candidate features and thresholds by the keyed rule of
:mod:`vandalstack.rng`: each draw is a pure function of the tree's key,
the node's depth and the start of its range of the tree's positions, and
a slot, so a tree draws the same whatever grows beside it and in
whatever order it grows.  A grown grove (:class:`Grown`) has its leaves
valued but is not yet numbered: :func:`number_trees` numbers its trees
depth first.  A step searches its candidate columns in chunks, each
by one split rule, and one merge keeps the first best column.  The
random rule searches all of a step's nodes as one segmented block.  The
exact rule does too, with nothing padded, over the level's cells
(:class:`Presort`): every candidate column of every node in sorted order,
its boundaries between distinct values marked, scanned over all of them
(the exact greedy enumeration of XGBoost).  A tree sorts once, as SLIQ
does: with every feature a candidate, its root's cells are its presort
as it stands (a boosting fit makes one for all its rounds), and each
later level's, and a root's that draws candidates, are that presort
filtered to the level's nodes.  One gain formula per criterion serves
both rules, and the trees are bit for bit those grown one at a time, one
node at a time, with the same draws.
"""

from __future__ import annotations

from typing import Callable, Iterable, NamedTuple, Optional

import numpy as np

from ..rng import keyed_choice, keyed_doubles, node_streams
from .tree import NodeTable


# cells searched at once: the trees grown together are grouped so that a
# step's block of candidate values (or, for the exact rule, the trees'
# presorts; a grove holds per presort cell a position, a value and a
# boundary mark, and as much again for its level's cells) stays within
# this many, and a step over more is filtered and searched in column
# chunks.  A grove step's cost is mostly per call, so bigger groves
# are cheaper, but their temporaries grow with them.  Measured on the
# extra-trees and random-forest fits of two benchmark train-stack runs
# (seeds 81 and 205, 14 fits, 120-181 rows; CPU s, best of 5, one core of
# a 2-core x86-64 host): 2^15 0.69, 2^16 0.61, 2^17 0.56, with the largest
# traced peak of the seed-81 fits (MB) 1.61, 2.45 and 4.11: the value
# stays at 2^16, as the CPU a bigger grove saves costs more memory than
# the fit's own.  Trees are bit for bit the same at any value.
SPLIT_BLOCK_CELLS = 1 << 16

def parent_term(total, n, criterion: str) -> np.ndarray:
    """The node's own term of :func:`split_gains`, one per entry of ``total / n``.

    Gini: the impurity of the ``n`` rows whose targets sum to ``total``.
    Variance: their squared mean, squared by C pow (``np.float_power``)
    as a scalar is: an array's ``**`` and ``np.square`` multiply, which
    differs in the last bit on about one value in a thousand, enough to
    flip an exact tie.
    """
    if criterion == "gini":
        return _gini(total, n)
    return np.float_power(total / n, 2.0)


def _gini(s, cnt):
    # 2 p (1 - p), with p = s / cnt
    p = s / cnt
    q = 1.0 - p
    p *= 2.0
    p *= q
    return p


def split_gains(sl, nl, total, n, parent, criterion: str) -> np.ndarray:
    """Impurity decrease of splits that send ``nl`` of ``n`` rows left.

    ``sl`` is the target sum on the left, ``total`` the sum over all
    ``n`` rows and ``parent`` their :func:`parent_term`; the arguments
    broadcast to ``sl``'s shape, one entry per candidate split.  Both
    split rules use this one formula.  With ``sr = total - sl`` and ``nr =
    n - nl``, it is ``(sl sl / nl + sr sr / nr) / n - parent`` for
    variance and ``parent - (nl gini(sl, nl) + nr gini(sr, nr)) / n`` for
    Gini, each term computed in place in the order written.
    """
    nr = n - nl
    sr = total - sl
    if criterion == "gini":
        gains = _gini(sl, nl)
        gains *= nl
        sr = _gini(sr, nr)
        sr *= nr
        gains += sr
        gains /= n
        return np.subtract(parent, gains, out=gains)
    gains = sl * sl
    gains /= nl
    sr *= sr
    sr /= nr
    gains += sr
    gains /= n
    gains -= parent
    return gains


class Segments(NamedTuple):
    """Nodes laid back to back: ``sizes[k]`` positions for node ``k``, two or more, from ``starts[k]`` on.

    ``last`` holds each node's last position; ``nodes`` counts the nodes
    and ``index`` the positions, and ``node`` holds each position's node.
    """

    sizes: np.ndarray
    starts: np.ndarray
    last: np.ndarray
    nodes: np.ndarray
    index: np.ndarray
    node: np.ndarray

    @classmethod
    def of(cls, sizes: np.ndarray) -> "Segments":
        last = sizes.cumsum() - 1
        nodes = np.arange(sizes.size)
        return cls(sizes, last + 1 - sizes, last, nodes, np.arange(last[-1] + 1), nodes.repeat(sizes))


def exact_block_split(ts: np.ndarray, closed: np.ndarray, left: np.ndarray, seg: Segments, criterion: str):
    """Scan every boundary between distinct values of several nodes at once.

    ``ts`` holds the nodes' positions back to back along its second axis,
    as ``seg`` lays them out; a row of ``ts`` holds the targets in the
    order of one candidate feature's values, each node's sorted stably.
    ``closed`` marks, in the same layout, the cells that no boundary
    follows (the next value is equal, or the cell is its node's last), and
    ``left`` holds per position the rows a boundary after it sends left
    (:class:`Presort`).  Returns per ``(row, node)`` the gain of its best
    boundary (``-inf`` for a constant row), per node the row of the
    highest gain >= 0 (the first on ties), and per node that row's first
    best boundary ``at``, an index into the second axis: the last cell
    its left side holds.
    """
    starts, last, nodes, index, node = seg.starts, seg.last, seg.nodes, seg.index, seg.node
    n = seg.sizes.astype(float)
    # running sums per node, each in its own sequential order
    csum = np.empty_like(ts)
    for lo, hi in zip(starts.tolist(), (last + 1).tolist()):
        ts[:, lo:hi].cumsum(axis=1, out=csum[:, lo:hi])
    total = csum.take(last, axis=1)
    parent = parent_term(total, n, criterion)
    gains = split_gains(csum, left, total.take(node, axis=1), n[node], parent.take(node, axis=1), criterion)
    gains[closed] = -np.inf
    best = np.maximum.reduceat(gains, starts, axis=1)
    slot = np.where(best >= 0.0, best, -np.inf).argmax(axis=0)
    # the chosen row's first best boundary; a row whose best is NaN has
    # none, and reports a valid index
    first = np.where(gains[slot[node], index] == best[slot, nodes][node], index, index.size - 2)
    return best, slot, np.minimum.reduceat(first, starts)


def midpoint(lo, hi):
    """The thresholds between adjacent distinct values ``lo < hi``.

    Their midpoint, or ``lo`` where the midpoint rounds onto ``hi``, so
    that ``x <= threshold`` still separates them.  Where ``lo`` equals
    ``hi`` it is ``lo``.
    """
    threshold = 0.5 * (lo + hi)
    return np.where((lo <= threshold) & (threshold < hi), threshold, lo)


def random_block_split(block: np.ndarray, t: np.ndarray, starts: np.ndarray, criterion: str, u: np.ndarray):
    """One uniform threshold in ``[min, max)`` per column — the extra-trees rule.

    ``block`` holds the rows of several nodes back to back, node ``i``'s
    from ``starts[i]`` on, by its candidate features; ``t`` holds their
    targets.  ``u`` holds one double in ``[0, 1)`` per ``(node, column)``,
    and a column's threshold is ``lo + (hi - lo) * u`` over the node's
    rows, or ``lo`` should that round onto ``hi``.  Returns the ``(gain,
    threshold)`` arrays, one row per node, and the go-left mask of
    ``block``; the gain is ``-inf`` for a constant column.
    """
    sizes = np.diff(starts, append=block.shape[0])
    lo = np.minimum.reduceat(block, starts, axis=0)
    hi = np.maximum.reduceat(block, starts, axis=0)
    # a constant column's width is 0 (NaN if infinite), and its threshold
    # lo; so is that of a column whose width overflows
    with np.errstate(invalid="ignore", over="ignore"):
        drawn = lo + (hi - lo) * u
        threshold = np.where((lo <= drawn) & (drawn < hi), drawn, lo)
    go_left = block <= np.repeat(threshold, sizes, axis=0)
    nl = np.add.reduceat(go_left, starts, axis=0, dtype=np.intp)
    sl = np.add.reduceat(np.where(go_left, t[:, None], 0.0), starts, axis=0)
    total, n = np.add.reduceat(t, starts)[:, None], sizes[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        gains = split_gains(sl, nl, total, n, parent_term(total, n, criterion), criterion)
    # a constant column sends every row left; a drawn threshold, below the
    # maximum, never does
    gains[nl == sizes[:, None]] = -np.inf
    return gains, threshold, go_left


def _sorted_columns(X: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``X[rows]``'s columns sorted stably, both ``(features, rows)``: positions in order, their values."""
    columns = np.ascontiguousarray(X[rows].T)
    order = columns.argsort(axis=1, kind="mergesort")
    return order, np.take_along_axis(columns, order, axis=1)


class Presort(NamedTuple):
    """Nodes' positions sorted by candidate features' values, arrays ``(slots, positions)``: a level's cells.

    Row ``j`` of ``order`` holds the positions (into the rows) of every
    node, the nodes back to back, each node's sorted stably by its
    ``j``-th candidate feature, which is feature ``j`` where every feature
    is a candidate; ``values`` holds their values in that order.
    ``closed`` marks the cells that no boundary follows: the next value is
    not higher, or the cell is its node's last.  ``left`` holds per
    position, the same in every row, how many rows the boundary after it
    sends left; a node's last counts one fewer, as if it sent one right.
    :meth:`of` makes a tree root's, the tree's one sort, and a grove
    filters its roots' to each later level's nodes and candidates.
    """

    order: np.ndarray
    values: np.ndarray
    closed: np.ndarray
    left: np.ndarray

    @classmethod
    def of(cls, X: np.ndarray, rows: np.ndarray) -> "Presort":
        """The root's cells of the tree on ``X[rows]``."""
        return cls.laid_out(*_sorted_columns(X, rows), Segments.of(np.array([rows.size])))

    @classmethod
    def laid_out(cls, order: np.ndarray, values: np.ndarray, seg: Segments) -> "Presort":
        """The cells of the nodes ``seg`` lays out, from their sorted ``order`` and ``values``."""
        closed = np.empty(values.shape, dtype=bool)
        closed[:, :-1] = ~(values[:, 1:] > values[:, :-1])
        closed.T[seg.last] = True
        left = np.arange(1.0, seg.index.size + 1.0) - seg.starts.astype(float).repeat(seg.sizes)
        left[seg.last] -= 1.0
        return cls(order, values, closed, left)


class TreeJob(NamedTuple):
    """One tree to grow: its rows, their targets, its leaf rule, its key.

    ``target[i]`` belongs to ``rows[i]``; ``leaf_value`` receives the
    positions (into ``rows``) that land in a leaf, ascending.  ``None``
    values a leaf at the mean of its targets, summed with the grove's other
    leaves in one pass: the sum of ``target[sel]``, bit for bit, when the
    targets are integers (the 0/1 labels of a forest).  ``key``, a 64-bit
    integer, keys the tree's draws of candidate features and thresholds
    (:func:`~vandalstack.rng.node_streams`); it may be ``None`` when
    nothing is drawn (the exact rule over every feature).
    The exact rule makes ``presort`` (:meth:`Presort.of` of the grower's
    ``X`` and ``rows``) when it is not given.
    """

    rows: np.ndarray
    target: np.ndarray
    leaf_value: Optional[Callable[[np.ndarray], float]]
    key: Optional[int]
    presort: Optional[Presort] = None


class TreeBuilder:
    """Grows trees.  Construction parameters, not fitted state.

    criterion
        ``"gini"`` (binary 0/1 targets) or ``"variance"`` (real targets).
    max_features
        Number of candidate features drawn (without replacement) per
        node; ``None`` means all.
    random_threshold
        Replace the exact scan with one uniform threshold per candidate.
    """

    def __init__(
        self,
        criterion: str,
        max_depth: Optional[int],
        max_features: Optional[int],
        random_threshold: bool = False,
    ):
        if criterion not in ("gini", "variance"):
            raise ValueError(f"unknown criterion {criterion!r}")
        self.criterion = criterion
        self.max_depth = max_depth
        self.max_features = max_features
        self.random_threshold = random_threshold

    def build_many(
        self, X: np.ndarray, jobs: Iterable[TreeJob], importances: Optional[np.ndarray] = None
    ) -> NodeTable:
        """Grow one tree per :class:`TreeJob` over dense ``X``, in lockstep: the ensemble's node table.

        The jobs are taken, grown and numbered in groves that fit
        :data:`SPLIT_BLOCK_CELLS`, and the table holds their trees in the
        jobs' order.  When given, ``importances`` accumulates weighted
        impurity decreases per feature (caller normalises), tree by tree
        and within a tree in depth-first order.
        """
        d = X.shape[1]
        if self.random_threshold:
            # cells per row of a tree: its root's candidate block
            width = d if self.max_features is None else min(self.max_features, d)
        else:
            # its presort (order and sorted values) and the column copy
            # that makes it; a level's cells take no more than the first two
            width = 3 * d
        blocks, group, cells = [], [], 0
        for job in jobs:
            if group and cells + job.rows.size * width > SPLIT_BLOCK_CELLS:
                blocks.append(number_trees([self.grow(X, group)[0]], importances)[0])
                group, cells = [], 0
            group.append(job)
            cells += job.rows.size * width
        if group:
            blocks.append(number_trees([self.grow(X, group)[0]], importances)[0])
        return node_table(blocks)

    def grow(self, X: np.ndarray, jobs: list[TreeJob]) -> tuple[Grown, np.ndarray]:
        """Grow one tree per :class:`TreeJob` over dense ``X``, all together, and value their leaves.

        Returns the trees, unnumbered, and per position of the jobs' rows,
        back to back, the leaf it reached, as an index into
        :attr:`Grown.leaves`: ``grown.values[leaf]`` is what the trees fit
        to their rows.  :func:`number_trees` numbers them; a boosting fit
        numbers its rounds' trees several rounds at a time.
        """
        return _Grove(self, X, jobs).grow()


# the node columns of no tree, as number_trees returns them
_NO_TREES = (np.zeros(0, np.int64), np.zeros(0), np.zeros(0, np.int64), np.zeros(0), np.zeros(0, np.intp))


def node_table(blocks: Iterable[tuple]) -> NodeTable:
    """One table of numbered blocks of trees (:func:`number_trees`), in order."""
    return NodeTable(*(np.concatenate(column) for column in zip(_NO_TREES, *blocks)))


class Grown(NamedTuple):
    """Trees grown together, their leaves valued, before :func:`number_trees` numbers them.

    ``size`` holds each tree's positions (its rows), and ``ids`` counts
    the node ids given out: tree ``t``'s root has id ``t``.  ``splits``
    holds per split, in the order searched, its node record (rows
    :data:`TREE` to :data:`DEPTH`), the id of its left child (the right is
    next; row :data:`LEFT`) and its feature (row :data:`FEATURE`);
    ``gains`` its gain and the two values its threshold lies between
    (rows :data:`GAIN`, :data:`LOW`, :data:`HIGH`).  ``leaves`` holds
    each leaf's tree and id, and ``values`` its value.
    """

    size: np.ndarray
    ids: int
    splits: np.ndarray
    gains: np.ndarray
    leaves: np.ndarray
    values: np.ndarray


def number_trees(groves: list[Grown], importances: Optional[np.ndarray] = None) -> tuple[tuple, np.ndarray]:
    """Number the trees of ``groves`` depth first, as if each had grown alone one node at a time.

    Returns their node columns as one block, the :class:`NodeTable`
    constructor's arguments ``(feature, threshold, right, value, sizes)``:
    each tree's tree-local columns, back to back, and its node count.
    Also returns the node of each leaf in its tree, the groves' ``leaves``
    back to back.  When given, ``importances`` accumulates weighted
    impurity decreases per feature, tree by tree, and within a tree in
    depth-first order.
    """
    if not groves:
        return _NO_TREES, np.zeros(0, dtype=np.intp)
    # per grove: its trees, ids, positions, splits and leaves, and those
    # of the groves before it
    size = np.concatenate([g.size for g in groves])
    counts = np.array([(g.size.size, g.ids, 0, g.splits.shape[1], g.leaves.shape[1]) for g in groves])
    counts[:, 2] = np.add.reduceat(size, counts[:, 0].cumsum() - counts[:, 0])
    before = counts.cumsum(axis=0) - counts
    tree, nid, lo, hi, depth, left, feature = np.concatenate([g.splits for g in groves], axis=1)
    gain, low, high = np.concatenate([g.gains for g in groves], axis=1)
    shift = before[:, :3].repeat(counts[:, 3], axis=0).T
    width = hi - lo
    tree = tree + shift[0]
    nid = nid + shift[1]
    left = left + shift[1]
    # depth first, a tree's splits come by where their ranges start,
    # and a parent before its left child, which starts where it does
    order = ((lo + shift[2]) * counts[:, 2].sum() + depth).argsort()
    n_splits = np.bincount(tree, minlength=size.size)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    rank -= (n_splits.cumsum() - n_splits)[tree]  # less the splits of the trees before
    # the k-th split in depth-first order makes children 2k + 1 and 2k + 2
    new = np.zeros(counts[:, 1].sum(), dtype=np.intp)
    new[left] = rank = 2 * rank + 1
    new[left + 1] = rank + 1
    nodes = 2 * n_splits + 1
    ends = nodes.cumsum()
    offset = ends - nodes
    # per node: split feature and right child (-1 at a leaf), threshold
    # (NaN at a leaf) and value
    ints = np.full((2, ends[-1]), -1, dtype=np.int64)
    floats = np.zeros((2, ends[-1]))
    floats[0] = np.nan
    at = offset[tree] + new[nid]
    ints[0, at], ints[1, at] = feature, rank + 1
    floats[0, at] = midpoint(low, high)
    leaf_tree, leaf_nid = np.concatenate([g.leaves for g in groves], axis=1) + before[:, :2].repeat(
        counts[:, 4], axis=0
    ).T
    leaf_node = new[leaf_nid]
    floats[1, offset[leaf_tree] + leaf_node] = np.concatenate([g.values for g in groves])
    if importances is not None:
        # unbuffered: one addition after another, tree by tree, each in
        # depth-first order
        weight = width / size[tree] * gain
        np.add.at(importances, feature[order], weight[order])
    return (ints[0], floats[0], ints[1], floats[1], nodes), leaf_node


def _stable_order(keys: np.ndarray, bound: int) -> np.ndarray:
    """The indices of the integer ``keys``, all in ``[0, bound)``, sorted stably by key.

    The keys go to the narrowest unsigned type that holds ``bound - 1``:
    numpy's stable sort of 8- and 16-bit integers is a radix sort, which
    beats its comparison sorts on a step's keys.  A bound past 2^16 takes
    its merge sort instead; within the cell budget only a tree of more than
    65,536 rows gets there.
    """
    return keys.astype(np.min_scalar_type(bound - 1)).argsort(kind="stable")


# the rows of a node record: its tree, its id, its range of the grove's
# permutation, its depth.  Tree t's root has id t; the i-th node searched
# gives its children ids T + 2i and T + 2i + 1, for T trees.  A split's
# record goes on with its left child's id and its feature, and its
# floats are its gain and the two values its threshold lies between
TREE, NID, LO, HI, DEPTH, LEFT, FEATURE = range(7)
GAIN, LOW, HIGH = range(3)
# a grove step's records before any: nodes, gains, features, threshold bounds
_NOT_SEARCHED = (
    np.zeros((5, 0), dtype=np.intp), np.zeros(0), np.zeros(0, dtype=np.int64), np.zeros(0), np.zeros(0)
)


class _Grove:
    """Trees grown together over one dense ``X``, a level a step, a fixed number of array passes a step.

    Each node is a range of one permutation of the grove's positions (the
    trees' rows, back to back); a split reorders its range so that its
    left child's positions come first.  A node is opened for search only
    if it can split (two rows or more, targets not all equal, above
    ``max_depth``); any other node is a leaf.  Each step searches every
    open node of every tree, all at one depth.  A node's draws are keyed
    by its tree's key, its depth and where its range starts in its tree
    (:func:`~vandalstack.rng.node_streams`), none of which depends on the
    order of growth, so every tree comes out bit for bit as if grown alone,
    one node at a time.  The exact rule searches the level's cells
    (:class:`Presort`): with every feature a candidate the roots' are the
    trees' presorts as they stand, and otherwise, and at every later
    level, those filtered to the level's nodes.  When all are grown, the
    trees are numbered depth first and their leaves valued.
    """

    def __init__(self, builder: TreeBuilder, X: np.ndarray, jobs):
        self.builder = builder
        self.X = X
        self.size = np.array([job.rows.size for job in jobs], dtype=np.intp)
        self.base = self.size.cumsum() - self.size
        self.rows = np.concatenate([job.rows for job in jobs])
        self.target = np.concatenate([job.target for job in jobs])
        self.leaf_values = [job.leaf_value for job in jobs]
        self.has_rule = np.array([rule is not None for rule in self.leaf_values])
        n, n_trees = self.rows.size, len(jobs)
        self.perm = np.arange(n)
        # every node made, and every step's nodes with their searches
        self.made: list[np.ndarray] = []
        self.searched: list[tuple] = []
        self.next_id = n_trees
        d, m = X.shape[1], builder.max_features
        # candidates drawn per node, None for every feature
        self.m = None if m is None or m >= d else m
        if self.m is not None or builder.random_threshold:
            self.keys = np.array([job.key for job in jobs], dtype=np.uint64)
        if not builder.random_threshold:
            # the roots' cells: a tree's given presort, or every tree's
            # sorted columns, positions into the grove's
            self.presort = jobs[0].presort if n_trees == 1 else None
            if self.presort is None:
                order, values = (np.concatenate(columns, axis=1) for columns in zip(*(
                    job.presort[:2] if job.presort else _sorted_columns(X, job.rows) for job in jobs)))
                order += np.repeat(self.base, self.size)
                # drawn candidates filter the roots' cells, and never read
                # their boundaries
                self.presort = (Presort.laid_out(order, values, Segments.of(self.size)) if self.m is None
                                else Presort(order, values, None, None))
            # each position's node in a level plus 1, 0 outside the level's nodes
            self.node_of = np.zeros(n, dtype=np.intp)

    def grow(self) -> tuple[Grown, np.ndarray]:
        """Grow every tree and value its leaves, as :meth:`TreeBuilder.grow` returns them."""
        n_trees = self.size.size
        roots = np.zeros((5, n_trees), dtype=np.intp)
        roots[TREE] = roots[NID] = np.arange(n_trees)
        roots[LO], roots[HI] = self.base, self.base + self.size
        t = self.target
        self.made.append(roots)
        mixed = np.minimum.reduceat(t, self.base) != np.maximum.reduceat(t, self.base)
        # with every feature a candidate, the roots' cells are the presort
        # as it stands
        every = self.m is None and not self.builder.random_threshold
        level = self._open(roots, mixed, self.presort if every else None)
        while level.shape[1]:
            level = self._step(level)
        made = np.concatenate(self.made, axis=1)
        nodes, gain, feature, low, high = (
            np.concatenate(arrays, axis=-1) for arrays in zip(_NOT_SEARCHED, *self.searched)
        )
        split = (gain >= 0.0).nonzero()[0]
        is_split = np.zeros(self.next_id, dtype=bool)
        is_split[nodes[NID, split]] = True
        # the leaves in the order of their ranges, which tile the permutation
        leaves = made.compress(~is_split[made[NID]], axis=1)
        leaves = leaves.take(leaves[LO].argsort(), axis=1)
        values, leaf = self._value(leaves)
        splits = np.empty((7, split.size), dtype=np.intp)
        splits[:5] = nodes.take(split, axis=1)
        splits[LEFT] = n_trees + 2 * split
        splits[FEATURE] = feature.take(split)
        gains = np.array((gain, low, high)).take(split, axis=1)
        return Grown(self.size, self.next_id, splits, gains, leaves[[TREE, NID]], values), leaf

    def _open(self, kids: np.ndarray, mixed: np.ndarray, cells: Optional[Presort] = None) -> np.ndarray:
        """The node records of ``kids`` whose targets are ``mixed`` and that can split: the next level.

        The level is laid out for its step (:meth:`_lay_out`), with
        ``cells``, those of every kid, if every kid opens.
        """
        can = mixed & (kids[HI] - kids[LO] >= 2)
        if self.builder.max_depth is not None:
            can &= kids[DEPTH] < self.builder.max_depth
        level = kids.compress(can, axis=1)
        if not level.shape[1]:
            return level
        lo = level[LO]
        seg = Segments.of(level[HI] - lo)
        self.at = seg.index + (lo - seg.starts)[seg.node]
        self._lay_out(level, seg, self.perm[self.at], cells if level.shape[1] == kids.shape[1] else None)
        return level

    def _lay_out(self, nodes: np.ndarray, seg: Segments, pos: np.ndarray, cells: Optional[Presort] = None):
        """Make ``nodes`` the level to search; node ``k`` holds the positions of ``pos`` ``seg`` gives it.

        Keeps its layout, draws each node's candidate features, in slots,
        and each node's stream for its thresholds, and for the exact rule
        makes its cells, one row per slot (:meth:`_filter`), unless
        ``cells`` are given, as they stand.
        """
        self.seg, self.pos, self.cells = seg, pos, cells
        tree, d = nodes[TREE], self.X.shape[1]
        if self.m is not None or self.builder.random_threshold:
            self.streams = node_streams(self.keys[tree], nodes[DEPTH], nodes[LO] - self.base[tree])
            self.slot = np.zeros(tree.size, dtype=np.uint64)
        if self.m is None:
            self.candidates = np.zeros((tree.size, 1), dtype=np.intp) + np.arange(d)  # every feature
        else:
            self.candidates, self.slot = keyed_choice(self.streams, d, self.m)
        if not self.builder.random_threshold and cells is None:
            self.cells = self._filter(seg, pos)

    def _step(self, nodes: np.ndarray) -> np.ndarray:
        """Search ``nodes``, the level laid out, split those that can, and return the children that open."""
        seg, at, lo, depth = self.seg, self.at, nodes[LO], nodes[DEPTH]
        gain, feature, low, high, order, cut, t = self._search(seg, self.pos)
        # each node's positions, its left child's first
        self.perm[at] = order
        self.searched.append((nodes, gain, feature, low, high))
        first = self.next_id
        self.next_id += 2 * lo.size
        s = (gain >= 0.0).nonzero()[0]
        if not s.size:
            return nodes[:, :0]
        # each split's left child, then its right
        kids = nodes.take(s, axis=1).repeat(2, axis=1)
        ids = 2 * s + first
        kids[NID, 0::2] = ids
        kids[NID, 1::2] = ids + 1
        kids[HI, 0::2] = kids[LO, 1::2] = (lo - seg.starts + cut).take(s)
        kids[DEPTH] += 1
        self.made.append(kids)
        max_depth = self.builder.max_depth
        if max_depth is not None and depth[0] + 1 >= max_depth:
            return kids[:, :0]  # every child is a leaf
        # each node's left and right targets, for the children's purity
        cuts = np.ravel((seg.starts, cut), order="F")
        mixed = np.minimum.reduceat(t, cuts) != np.maximum.reduceat(t, cuts)
        return self._open(kids, mixed.reshape(-1, 2).take(s, axis=0).ravel())

    def _filter(self, seg: Segments, pos: np.ndarray) -> Presort:
        """The level's cells, row ``j`` for each node's ``j``-th candidate: the roots' filtered to the level.

        The slots are filtered a chunk at a time, as :meth:`_search`
        takes them.
        """
        k, n = seg.nodes.size, pos.size
        roots, candidates = self.presort, self.candidates
        d, slots = roots.order.shape[0], candidates.shape[1]
        order = np.empty((slots, n), dtype=np.intp)
        values = np.empty((slots, n))
        self.node_of[pos] = seg.node + 1
        step = max(1, SPLIT_BLOCK_CELLS // self.rows.size)
        for start in range(0, slots, step):
            chosen = candidates[:, start : start + step]
            w = chosen.shape[1]
            if self.m is None:
                # slot j is column start + j of every node: a cell's sort
                # key is its slot, then its node plus 1, and the cells of
                # no node come first in each slot
                pre, vals = roots.order[start : start + w], roots.values[start : start + w]
                key = self.node_of.take(pre)
                key += np.arange(0, w * (k + 1), k + 1)[:, None]
                kept = _stable_order(key.reshape(-1), w * (k + 1)).reshape(w, -1)[:, -n:]
            else:
                # per column and 1 + node (0 outside the level's nodes),
                # the sort key of the node's cells in that column: its slot
                # in the chunk, then the node; w k, last, where the node
                # takes no slot there
                out = w * k
                keys = np.full((d, k + 1), out)
                keys[chosen, seg.nodes[:, None] + 1] = np.arange(0, out, k) + seg.nodes[:, None]
                # the roots' rows of the columns some node takes
                taken = np.zeros(d, dtype=bool)
                taken[chosen] = True
                cols = taken.nonzero()[0]
                pre, vals = roots.order.take(cols, axis=0), roots.values.take(cols, axis=0)
                key = self.node_of.take(pre)
                key += (cols * (k + 1))[:, None]
                kept = _stable_order(keys.take(key).reshape(-1), out + 1)[: w * n]
            # the cells of one (slot, node) pair lie in one row, in its
            # order: a stable sort by key lays each slot's nodes back to back
            pre.take(kept, out=order[start : start + w].reshape(kept.shape), mode="clip")
            vals.take(kept, out=values[start : start + w].reshape(kept.shape), mode="clip")
        self.node_of[pos] = 0
        return Presort.laid_out(order, values, seg)

    def _value(self, leaves: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each leaf's value, and each position's leaf, as an index into ``leaves``.

        ``leaves`` come in the order of their ranges.  Leaves of a tree
        without a leaf rule take the mean of their targets, summed in one
        pass; a leaf rule is called per leaf with the leaf's positions in
        ascending order.
        """
        tree, _, lo, hi, _ = leaves
        sizes = hi - lo
        n = self.rows.size
        leaf = np.empty(n, dtype=np.intp)
        index = np.arange(sizes.size)
        leaf[self.perm] = index.repeat(sizes)
        values = np.zeros(sizes.size)
        rule = self.has_rule[tree]
        if not rule.all():
            mean = np.add.reduceat(self.target[self.perm], lo) / sizes
            values[~rule] = mean[~rule]
            if not rule.any():
                return values, leaf
            index, tree, lo, hi = (x[rule] for x in (index, tree, lo, hi))
        # each leaf's positions, ascending, by one stable sort of their
        # leaves; then each tree's own positions
        at = _stable_order(leaf, sizes.size)
        at -= self.base.repeat(self.size)
        for i, t, a, z in zip(index.tolist(), tree.tolist(), lo.tolist(), hi.tolist()):
            values[i] = float(self.leaf_values[t](at[a:z]))
        return values, leaf

    def _search(self, seg: Segments, pos: np.ndarray):
        """The best split of each node of the level, and its positions with its left child's first.

        Node ``k`` holds the positions of ``pos`` that ``seg`` gives it, in
        any order: the exact rule leaves a split node's positions in its
        chosen column's order, the random rule partitions them stably.
        Only a leaf rule needs a leaf's positions ascending, and
        :meth:`_value` sorts them.  Returns per node the gain and feature of
        its best split and the two values its threshold lies between
        (:func:`midpoint`; a drawn threshold is both), ``pos`` reordered
        and their targets in that order, and per node where its right
        child's positions begin.  Among the candidates whose gain is >= 0
        the highest gain wins, the lowest feature index on ties.  Zero-gain
        splits are kept: a boundary that does not reduce impurity can still
        expose one deeper down (the XOR pattern), so only constant columns
        and pure nodes stop the recursion.  A node without a split has a
        gain that is not >= 0, and sends no position left.  A candidate
        reads its threshold from its node's stream, past the node's draws
        of candidates.  Candidates are searched in slot chunks of at most
        :data:`SPLIT_BLOCK_CELLS` cells, each by one rule, in order.
        """
        random = self.builder.random_threshold
        # a chunk's slot is a block column of the step's positions (random
        # rule) or a row of the level's cells (exact rule)
        step = max(1, SPLIT_BLOCK_CELLS // (pos.size if random else self.rows.size))
        for start in range(0, self.candidates.shape[1], step):
            chosen = self.candidates[:, start : start + step]
            if random:
                found = self._random_splits(seg, pos, chosen, self.slot + start)
            else:
                found = self._exact_splits(seg, pos, chosen, start)
            if start == 0:
                best = found
            else:  # the first best column wins: a later chunk needs a gain >= 0, and higher
                better = (found[0] >= 0.0) & ~(found[0] <= best[0])
                best = tuple(np.where(better[seg.node] if i in (4, 6) else better, new, old)
                             for i, (new, old) in enumerate(zip(found, best)))
        return best

    def _random_splits(self, seg: Segments, pos: np.ndarray, chosen: np.ndarray, slot: np.ndarray):
        """:meth:`_search` over the columns ``chosen`` per node, with thresholds from ``slot`` on."""
        # all nodes as one segmented block: node k's rows from starts[k] on
        rows, node, nodes = self.rows[pos], seg.node, seg.nodes
        block = self.X[rows[:, None], chosen[node]]
        t = self.target[pos]
        # candidate j's threshold reads the slot j past the node's candidate draws
        u = keyed_doubles(self.streams[:, None], slot[:, None] + np.arange(chosen.shape[1], dtype=np.uint64))
        gains, thresholds, go_left = random_block_split(block, t, seg.starts, self.builder.criterion, u)
        gains = np.where(gains >= 0.0, gains, -np.inf)
        j = gains.argmax(axis=1)
        gain, threshold = gains[nodes, j], thresholds[nodes, j]
        # one stable partition of every node's positions, its go-left ones
        # first; a node without a split sends none left
        go = go_left[seg.index, j[node]] & (gain >= 0.0)[node]
        order = _stable_order(2 * node + ~go, 2 * nodes.size)
        cut = seg.starts + np.add.reduceat(go, seg.starts, dtype=np.intp)
        return gain, chosen[nodes, j], threshold, threshold, pos[order], cut, t[order]

    def _exact_splits(self, seg: Segments, pos: np.ndarray, chosen: np.ndarray, start: int):
        """:meth:`_search` over the columns ``chosen`` per node, the level's cells from row ``start`` on."""
        rows = slice(start, start + chosen.shape[1])
        at, values = self.cells.order[rows], self.cells.values[rows]
        ts = self.target.take(at)
        gains, slot, cut = exact_block_split(
            ts, self.cells.closed[rows], self.cells.left, seg, self.builder.criterion
        )
        # each node's best column, the first on ties; its positions in that
        # column's order put the left child's first
        best = (slot * pos.size)[seg.node] + seg.index
        low = values[slot, cut]
        cut += 1
        return (
            gains[slot, seg.nodes],
            chosen[seg.nodes, slot],
            low,
            values[slot, cut],
            at.take(best),
            cut,
            ts.take(best),
        )

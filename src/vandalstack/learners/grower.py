"""The tree grower shared by every tree family, on a dense training matrix.

Classification trees split on Gini impurity, the regression trees inside
the boosting model split on variance, and the extremely-randomised
variant draws one uniform threshold per candidate feature instead of
scanning.  What a leaf stores is up to the caller (positive fraction,
mean target, or a Newton step), supplied as a callback.

Each tree comes as a :class:`TreeJob` that carries its rows, targets,
leaf rule and generator, and goes out as its node columns in the
tree-local layout of :func:`~vandalstack.learners.tree.invalid_node`,
which :func:`node_table` joins into the model's one
:class:`~vandalstack.learners.tree.NodeTable`.  A forest grows its trees
with :meth:`TreeBuilder.build_many`; a boosting fit grows each round's
tree with :meth:`TreeBuilder.grow` and numbers them all with
:func:`number_trees`.

The models densify their training matrix once per fit.  Trees grow
together in groves, and each grove step is a fixed number of array passes
over all of its nodes.  Trees that draw take the next node of every
unfinished tree, each tree in its own depth-first order with its own
generator.  A step draws every tree's candidate features and thresholds
in one pass over raw words read ahead from the trees' ``PCG64``
generators (:class:`_Streams`).  The draws reproduce numpy ``Generator``
streams bit for bit, as ``choice(d, m, replace=False)`` then
``random(k)`` per node would draw them, and leave each generator where
those calls would;
``tests/test_draws.py::test_batched_draw_reads_each_stream_as_choice_then_random``
fails if a numpy upgrade moves them.  Trees that draw nothing (boosting,
the selection model) take all their open nodes at once, a level a step.
A grown grove (:class:`Grown`) has its leaves valued but is not yet
numbered: :func:`number_trees` numbers its trees depth first, and a
boosting fit numbers its rounds' trees together, many rounds at once.  The random rule searches all of
a step's nodes as one segmented block.  The exact rule does too, with
nothing padded: every candidate column of every node, in the order of a
presort made once per tree and filtered to the step's nodes, scanned
over all boundaries between distinct values (the exact greedy
enumeration of XGBoost).  One gain formula per criterion serves both
rules, and the trees are bit for bit those grown one at a time, one
node at a time.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, NamedTuple, Optional

import numpy as np

from .tree import NodeTable


# cells searched at once: the trees grown together are grouped so that a
# step's block of candidate values (or, for the exact rule, the trees'
# presorts) stays within this many, and a step over more is searched in
# column chunks.  A grove step's cost is mostly per call, so bigger groves
# are cheaper, but their temporaries grow with them.  Measured on the
# extra-trees and random-forest fits of two benchmark train-stack runs
# (seeds 81 and 205, 14 fits, 120-181 rows; CPU s, best of 7, one core of
# a 2-core x86-64 host): 2^14 1.94, 2^15 1.37, 2^16 1.06, 2^17 0.92, 2^18
# 0.94.  The largest traced peak of the seed-81 fits (MB): 2^15 2.34,
# 2^16 3.10, 2^17 5.44, 2^18 7.19: the value stays at 2^16, as the CPU a
# bigger grove saves costs more memory than the fit's own.  Trees are bit
# for bit the same at any value.
SPLIT_BLOCK_CELLS = 1 << 16

# raw 64-bit words read ahead from each drawing tree's generator at a time
# (2 KB a tree); a grove rewinds each generator by the words it left unread.
# Measured on the seed-81 train-stack split (CPU s, best of 7, one core of a
# 2-core x86-64 host), for 32/64/128/256/512/1024 words: a 200-tree
# extra-trees fit 0.110/0.106/0.105/0.106/0.105/0.106, a depth-8 random
# forest on 31 columns 0.240/0.240/0.235/0.238/0.246/0.242.  Trees and
# generators end bit for bit the same at any value.
RAW_WORDS = 256
_LOW_HALF = np.uint64(0xFFFFFFFF)


def parent_term(total, n, criterion: str) -> np.ndarray:
    """The node's own term of :func:`split_gains`, one per entry of ``total / n``.

    Gini: the impurity of the ``n`` rows whose targets sum to ``total``.
    Variance: their squared mean, squared one float at a time: numpy
    squares an array by a multiplication but a scalar with C pow, and the
    two differ in the last bit on about one value in a thousand, enough
    to flip an exact tie.
    """
    if criterion == "gini":
        return _gini(total, n)
    return np.array([m**2 for m in np.ravel(total / n).tolist()]).reshape(np.shape(total))


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


def exact_block_split(vs: np.ndarray, ts: np.ndarray, seg: Segments, criterion: str):
    """Scan every boundary between distinct values of several nodes at once.

    ``vs`` holds the nodes' positions back to back along its second axis,
    as ``seg`` lays them out; a row of ``vs`` holds one candidate
    feature's values, each node's sorted stably, and ``ts`` the targets in
    the same order.  Returns per ``(row, node)`` the gain of its best
    boundary (``-inf`` for a constant row), per node the row of the
    highest gain >= 0 (the first on ties), and per node that row's first
    best boundary ``at``, an index into the second axis, between
    ``vs[:, at]`` and ``vs[:, at + 1]``.
    """
    starts, last, nodes, index, node = seg.starts, seg.last, seg.nodes, seg.index, seg.node
    n = seg.sizes
    # the boundary after a node's position q sends q + 1 rows left; the
    # node's last position is no boundary, and is scored with one row
    # right, then masked
    nl = index + 1.0 - starts[node]
    nl[last] -= 1.0
    # running sums per node, each in its own sequential order
    csum = np.empty_like(ts)
    for lo, hi in zip(starts.tolist(), (last + 1).tolist()):
        ts[:, lo:hi].cumsum(axis=1, out=csum[:, lo:hi])
    total = csum.take(last, axis=1)
    parent = parent_term(total, n, criterion)
    gains = split_gains(csum, nl, total.take(node, axis=1), n[node], parent.take(node, axis=1), criterion)
    gains[:, :-1][~(vs[:, 1:] > vs[:, :-1])] = -np.inf
    gains.T[last] = -np.inf
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


def random_block_split(
    block: np.ndarray,
    t: np.ndarray,
    starts: np.ndarray,
    criterion: str,
    uniform: Callable[[np.ndarray], np.ndarray],
):
    """One uniform threshold in ``[min, max)`` per column — the extra-trees rule.

    ``block`` holds the rows of several nodes back to back, node ``i``'s
    from ``starts[i]`` on, by its candidate features; ``t`` holds their
    targets.  ``uniform(live)`` returns one double ``u`` in ``[0, 1)`` per
    true cell of the ``(node, column)`` mask of non-constant columns, row
    by row, row ``i`` from node ``i``'s generator in column order; the
    threshold is ``lo + (hi - lo) * u``, bit for bit what
    ``rng.uniform(lo, hi)`` returns.  Returns the ``(gain, threshold)``
    arrays, one row per node, and the go-left mask of ``block``; the gain
    is ``-inf`` for a constant column.
    """
    sizes = np.diff(starts, append=block.shape[0])
    lo = np.minimum.reduceat(block, starts, axis=0)
    hi = np.maximum.reduceat(block, starts, axis=0)
    live = ~(lo == hi)
    # a constant column's width is 0 (NaN if infinite), its draw stays 0,
    # and its threshold is lo
    with np.errstate(invalid="ignore"):
        width = hi - lo
        if not np.isfinite(width[live]).all():
            raise OverflowError("Range exceeds valid bounds")  # as rng.uniform does
        u = np.zeros(lo.shape)
        u[live] = uniform(live)
        drawn = lo + width * u
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


class Presort(NamedTuple):
    """``X[rows]`` sorted once for the exact rule, all ``(features, rows)``.

    ``columns`` holds the rows' values feature by feature, ``order`` per
    feature the positions (into ``rows``) sorted stably by value, and
    ``values`` the values in that order.  A node's own sorted order is
    this one filtered by membership, so no node sorts.
    """

    columns: np.ndarray
    order: np.ndarray
    values: np.ndarray

    @classmethod
    def of(cls, X: np.ndarray, rows: np.ndarray) -> "Presort":
        columns = np.ascontiguousarray(X[rows].T)
        order = columns.argsort(axis=1, kind="mergesort")
        return cls(columns, order, np.take_along_axis(columns, order, axis=1))


class TreeJob(NamedTuple):
    """One tree to grow: its rows, their targets, its leaf rule, its generator.

    ``target[i]`` belongs to ``rows[i]``; ``leaf_value`` receives the
    positions (into ``rows``) that land in a leaf, ascending.  ``None``
    values a leaf at the mean of its targets, summed with the grove's other
    leaves in one pass: the sum of ``target[sel]``, bit for bit, when the
    targets are integers (the 0/1 labels of a forest).  ``rng``, a ``PCG64``
    generator, draws the tree's candidate features and thresholds; it may
    be ``None`` when nothing is drawn (the exact rule over every feature).
    The exact rule makes ``presort`` (:meth:`Presort.of` of the grower's
    ``X`` and ``rows``) when it is not given.
    """

    rows: np.ndarray
    target: np.ndarray
    leaf_value: Optional[Callable[[np.ndarray], float]]
    rng: Optional[np.random.Generator]
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
    ) -> Iterator[tuple[tuple, np.ndarray]]:
        """Grow one tree per :class:`TreeJob` over dense ``X``, in lockstep.

        Yields per job, in order, the tree's node columns ``(feature,
        threshold, right, value)`` and, per position of its rows, the id of
        the leaf it reached.  When given, ``importances``
        accumulates weighted impurity decreases per feature (caller
        normalises), tree by tree and within a tree in depth-first order;
        it is complete once every tree is yielded.  The jobs are taken and
        grown in groups that fit :data:`SPLIT_BLOCK_CELLS`.
        """
        d = X.shape[1]
        if self.random_threshold:
            # cells per row of a tree: its root's candidate block
            width = d if self.max_features is None else min(self.max_features, d)
        else:
            # its presort: the rows' values, their order and the sorted values
            width = 3 * d
        group, cells = [], 0
        for job in jobs:
            if group and cells + job.rows.size * width > SPLIT_BLOCK_CELLS:
                yield from self._numbered(X, group, importances)
                group, cells = [], 0
            group.append(job)
            cells += job.rows.size * width
        if group:
            yield from self._numbered(X, group, importances)

    def _numbered(self, X: np.ndarray, jobs: list[TreeJob], importances) -> Iterator[tuple]:
        """One grove of ``jobs``, grown and numbered, as :meth:`build_many` yields it."""
        grown, leaf = self.grow(X, jobs)
        trees, leaf_node = number_trees([grown], importances)
        leaf_of = leaf_node[leaf]
        bases = (grown.size.cumsum() - grown.size).tolist()
        for tree, b, n in zip(trees, bases, grown.size.tolist()):
            yield tree, leaf_of[b : b + n]

    def grow(self, X: np.ndarray, jobs: list[TreeJob]) -> tuple[Grown, np.ndarray]:
        """Grow one tree per :class:`TreeJob` over dense ``X``, all together, and value their leaves.

        Returns the trees, unnumbered, and per position of the jobs' rows,
        back to back, the leaf it reached, as an index into
        :attr:`Grown.leaves`: ``grown.values[leaf]`` is what the trees fit
        to their rows.  :func:`number_trees` numbers them; a boosting fit
        numbers its rounds' trees several rounds at a time.
        """
        return _Grove(self, X, jobs).grow()


def node_table(trees: Iterable[tuple]) -> NodeTable:
    """One table of grown trees' node columns, in order."""
    trees = list(trees)
    columns = (
        np.concatenate([np.zeros(0, dtype)] + [tree[i] for tree in trees])
        for i, dtype in enumerate((np.int64, np.float64, np.int64, np.float64))
    )
    return NodeTable(*columns, [tree[0].size for tree in trees])


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


def number_trees(
    groves: list[Grown], importances: Optional[np.ndarray] = None
) -> tuple[list[tuple], np.ndarray]:
    """Number the trees of ``groves`` depth first, as if each had grown alone one node at a time.

    Returns per tree, in order, its node columns ``(feature, threshold,
    right, value)``, and the node of each leaf in its tree, the groves'
    ``leaves`` back to back.  When given, ``importances`` accumulates
    weighted impurity decreases per feature, tree by tree, and within a
    tree in depth-first order.
    """
    if not groves:
        return [], np.zeros(0, dtype=np.intp)
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
    columns = (ints[0], floats[0], ints[1], floats[1])
    trees = [tuple(c[o : o + k] for c in columns) for o, k in zip(offset.tolist(), nodes.tolist())]
    return trees, leaf_node


class _Streams:
    """The generators of a grove's trees, read ahead in raw words and drawn from in one pass.

    Row ``r`` serves ``rngs[r]``, a ``PCG64`` generator.  Each grove step
    draws for all of its trees at once and reads each stream exactly as
    numpy's ``Generator`` does.  ``Generator.choice(d, m, replace=False)``
    takes Floyd's ``m`` bounded draws, then the ``m - 1`` of its shuffle of
    them (:meth:`choose` counts those and, since the candidates are sorted
    anyway, does not apply them); past 10,000 features it takes numpy's
    tail shuffle instead.  A bounded draw is Lemire's on a 32-bit half,
    redrawn when it lands in the biased sliver.  ``PCG64`` hands out a
    word's low half first and keeps the high half pending, even across
    doubles; a double, as ``Generator.random`` makes it, is ``(word >> 11)
    * 2**-53``.  :meth:`close` rewinds each generator by its unread words
    and gives it back its pending half, so that it ends where per-node
    ``choice`` and ``random`` calls would have left it.
    """

    def __init__(self, rngs: list, d: int, m: Optional[int], doubles: int):
        """``m`` of ``d`` features drawn per node (``None``: none), and at most ``doubles`` thresholds."""
        if not all(isinstance(getattr(rng, "bit_generator", None), np.random.PCG64) for rng in rngs):
            raise TypeError("a tree that draws needs a numpy Generator on PCG64")
        self.rngs, self.d, self.m = rngs, d, m
        self.tail = m is not None and d > 10_000 and m > d // 50
        if m is None:
            bounds = np.zeros(0, dtype=np.uint64)
        elif self.tail:
            bounds = np.arange(d, d - m, -1, dtype=np.uint64)
        else:
            bounds = np.arange(d - m + 1, d + 1, dtype=np.uint64)
            bounds = np.concatenate((bounds, np.arange(m, 1, -1, dtype=np.uint64)))
        self.bounds = bounds
        # a draw whose low product half is below 2^32 mod bound is redrawn
        self.reject_below = (1 << 32) % bounds
        self.steps = np.arange(bounds.size)
        # the halves one step may read: its bounded draws, then a word per double
        self.need = bounds.size + 2 * doubles + 1
        words = max(RAW_WORDS, self.need // 2 + 1)
        # a row: word 0, whose high half holds the generator's last 32-bit
        # half, then the words read ahead
        self.stride = 1 + words
        self.words = np.empty(len(rngs) * self.stride, dtype="<u8")
        self.halves = self.words.view("<u4")
        # per row, the flat index of its next half: odd while a half is
        # pending.  Each row starts spent, its last half the generator's
        self.row_end = 2 * self.stride * np.arange(1, len(rngs) + 1)
        self.pos = self.row_end.copy()
        for r, rng in enumerate(rngs):
            state = rng.bit_generator.state
            self.halves[self.row_end[r] - 1] = state["uinteger"]
            self.pos[r] -= state["has_uint32"]
            self._refill(r)
        self.room = 0  # steps every row can still take before a refill check

    def reserve(self) -> None:
        """Make room in every row for one more step's draws."""
        if self.room == 0:
            self.room = self._top_up(self.need)
        self.room -= 1

    def _top_up(self, need: int) -> int:
        """Refill the rows with fewer than ``need`` halves left; returns the steps all have left."""
        for r in np.flatnonzero(self.pos + need > self.row_end).tolist():
            self._refill(r)
        return int((self.row_end - self.pos).min()) // self.need

    def _refill(self, r: int) -> None:
        """Move row ``r``'s unread words to its front and read the rest afresh."""
        at, s = r * self.stride, self.stride
        rel = int(self.pos[r]) - 2 * at
        first = (rel + 1) >> 1  # the first unread word
        last = self.halves[2 * at + ((rel - 1) | 1)]
        self.words[at + 1 : at + 1 + s - first] = self.words[at + first : at + s]
        self.words[at + 1 + s - first : at + s] = self.rngs[r].bit_generator.random_raw(first - 1)
        self.halves[2 * at + 1] = last
        self.pos[r] = 2 * at + 2 - (rel & 1)

    def _half(self, r: int) -> int:
        """Row ``r``'s next 32-bit half, refilling the row when it is spent."""
        if self.pos[r] == self.row_end[r]:
            self._refill(r)
        half = int(self.halves[self.pos[r]])
        self.pos[r] += 1
        return half

    def bounded(self, idx: np.ndarray) -> np.ndarray:
        """Per row of ``idx``, one Lemire draw below each of ``bounds``, as ``(value << 32) | low``."""
        p = self.pos[idx]
        prod = self.halves.take(p[:, None] + self.steps) * self.bounds
        self.pos[idx] = p + self.bounds.size
        rejected = (prod & _LOW_HALF) < self.reject_below
        if np.count_nonzero(rejected):
            # rare, a draw below b with odds under b / 2^32: redraw those
            # rows one half at a time
            rejected = rejected.any(axis=1)
            pairs = list(zip(self.bounds.tolist(), self.reject_below.tolist()))
            for i in np.flatnonzero(rejected).tolist():
                r = int(idx[i])
                self.pos[r] = p[i]
                for c, (bound, below) in enumerate(pairs):
                    value = self._half(r) * bound
                    while value & 0xFFFFFFFF < below:
                        value = self._half(r) * bound
                    prod[i, c] = value
            self._top_up(self.need - self.bounds.size)
            self.room = 0
        return prod

    def choose(self, idx: np.ndarray) -> np.ndarray:
        """Per row of ``idx``, the sorted ``m`` of ``d`` features ``Generator.choice`` draws."""
        d, m = self.d, self.m
        draws = (self.bounded(idx) >> 32).astype(np.int64)
        if self.tail:
            return np.array([_tail_shuffle(d, row) for row in draws.tolist()], dtype=np.int64)
        # Floyd, one round for every row: step j draws r <= j and adds it,
        # or j if r is in already
        chosen = np.empty((idx.size, m), dtype=np.int64)
        for i, j in enumerate(range(d - m, d)):
            r = draws[:, i]
            chosen[:, i] = np.where((chosen[:, :i] == r[:, None]).any(axis=1), j, r)
        chosen.sort(axis=1)
        return chosen

    def doubles(self, idx: np.ndarray, live: np.ndarray) -> np.ndarray:
        """One double per true cell of ``live``, row by row, row ``i`` from row ``idx[i]``."""
        p = self.pos[idx]
        counts = live.sum(axis=1)
        at = (live.cumsum(axis=1) + (((p + 1) >> 1) - 1)[:, None])[live]
        u = (self.words.take(at) >> 11) * 2.0**-53
        # the last 32-bit half stays just before the next unread word
        last = (p - 1) | 1
        self.halves[last + 2 * counts] = self.halves[last]
        self.pos[idx] = p + 2 * counts
        return u

    def close(self) -> None:
        """Rewind every generator by its unread words and give it back its pending half."""
        for r, rng in enumerate(self.rngs):
            at = r * self.stride
            rel = int(self.pos[r]) - 2 * at
            bg = rng.bit_generator
            bg.advance(((rel + 1) >> 1) - self.stride)
            state = bg.state
            state["has_uint32"] = rel & 1
            state["uinteger"] = int(self.halves[2 * at + ((rel - 1) | 1)])
            bg.state = state
        self.rngs = []


def _tail_shuffle(d: int, draws: list) -> list:
    """The sorted last ``len(draws)`` of ``range(d)`` after numpy's tail shuffle.

    Position ``i``, from ``d - 1`` down, swaps with the drawn ``draws[d - 1 - i]``.
    """
    moved: dict[int, int] = {}
    kept = []
    for i, j in zip(range(d - 1, -1, -1), draws):
        kept.append(moved.get(j, j))
        moved[j] = moved.get(i, i)
    return sorted(kept)


def _stable_order(keys: np.ndarray, bound: int) -> np.ndarray:
    """Per row of integer ``keys`` in ``[0, bound)``, its flat indices sorted stably by key.

    ``keys.argsort(axis=-1, kind="stable")`` plus each row's offset, by one
    plain sort of ``key << b | i`` for each key's flat index ``i`` below
    ``2**b``: the keys are distinct, so any sort is stable, and numpy's
    plain integer sort is much the faster.
    """
    b = keys.size.bit_length()
    if bound.bit_length() + b > 63:
        raise OverflowError(f"{keys.size} keys below {bound} do not fit one sort key")
    composite = keys << b
    composite |= np.arange(keys.size).reshape(keys.shape)
    composite.sort(axis=-1)
    composite &= (1 << b) - 1
    return composite


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The ranges ``starts[i]`` up to ``starts[i] + counts[i]``, one after another."""
    ends = counts.cumsum()
    return np.arange(ends[-1]) + (starts - (ends - counts)).repeat(counts)


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
    """Trees grown in lockstep over one dense ``X``, a fixed number of array passes a step.

    Each node is a range of one permutation of the grove's positions (the
    trees' rows, back to back); a split reorders its range so that its
    left child's positions come first.  A node is opened for search only
    if it can split (two rows or more, targets not all equal, above
    ``max_depth``); any other node is a leaf.  Trees that draw take the
    top node of their depth-first stacks each step: each draws from its
    own generator in its own depth-first order, all of a step's draws in
    one pass (:class:`_Streams`), so every tree comes out bit for bit as
    if grown alone, and its generator ends where that would leave it.
    Trees that draw nothing take every open node, a level a step.  When
    all are grown, the trees are numbered depth first, as if grown one
    node at a time, and their leaves are valued.
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
        if m is not None and m >= d:
            m = None  # every feature, none drawn
        self.streams = None
        if m is not None or builder.random_threshold:
            doubles = (m or d) if builder.random_threshold else 0
            self.streams = _Streams([job.rng for job in jobs], d, m, doubles)
            # tree t's stack of open node records at [base + t, base + t +
            # size], top last: a tree holds fewer open nodes than positions
            self.stack = np.empty((n + n_trees, 5), dtype=np.intp)
            self.bottom = self.base + np.arange(n_trees)
            self.height = np.zeros(n_trees, dtype=np.intp)
        self.level = np.zeros((5, 0), dtype=np.intp)  # the open nodes of drawless trees
        if not builder.random_threshold:
            # every tree's presort positions (into the grove's) and values
            presorts = [Presort.of(X, job.rows) if job.presort is None else job.presort for job in jobs]
            if n_trees == 1:
                _, self.pre, self.vals = presorts[0]
            else:
                self.pre = np.concatenate([p.order for p in presorts], axis=1)
                self.pre += np.repeat(self.base, self.size)
                self.vals = np.concatenate([p.values for p in presorts], axis=1)
            # each position's node in a step, n outside the step's nodes
            self.node_of = np.full(n, n, dtype=np.intp)

    def grow(self) -> tuple[Grown, np.ndarray]:
        """Grow every tree and value its leaves, as :meth:`TreeBuilder.grow` returns them."""
        n_trees = self.size.size
        roots = np.zeros((5, n_trees), dtype=np.intp)
        roots[TREE] = roots[NID] = np.arange(n_trees)
        roots[LO], roots[HI] = self.base, self.base + self.size
        t = self.target
        try:
            self.made.append(roots)
            mixed = np.minimum.reduceat(t, self.base) != np.maximum.reduceat(t, self.base)
            self._open(roots, mixed)
            while True:
                nodes = self._take()
                if not nodes.shape[1]:
                    break
                self._step(nodes)
        finally:
            self.finish()
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
        gains = np.stack((gain, low, high)).take(split, axis=1)
        return Grown(self.size, self.next_id, splits, gains, leaves[[TREE, NID]], values), leaf

    def finish(self) -> None:
        """Leave every tree's generator where its draws so far end."""
        if self.streams is not None:
            self.streams.close()

    def _open(self, kids: np.ndarray, mixed: np.ndarray) -> None:
        """Open each node of ``kids`` whose targets are ``mixed`` and that can split.

        ``kids`` holds the node records of the roots, or of the children
        of searched nodes, one node a tree: its right child, then its left.
        """
        can = mixed & (kids[HI] - kids[LO] >= 2)
        if self.builder.max_depth is not None:
            can &= kids[DEPTH] < self.builder.max_depth
        opened = kids.compress(can, axis=1)
        if self.streams is None:
            self.level = opened
            return
        # a tree's right child goes on its stack first, the left on top
        tree = opened[TREE]
        second = np.zeros(tree.size, dtype=np.intp)
        second[1:] = tree[1:] == tree[:-1]
        self.stack[self.bottom[tree] + self.height[tree] + second] = opened.T
        self.height += np.bincount(tree, minlength=self.height.size)

    def _take(self) -> np.ndarray:
        """This step's node records: each tree's top node, or every open node of drawless trees."""
        if self.streams is None:
            nodes, self.level = self.level, self.level[:, :0]
            return nodes
        live = self.height.nonzero()[0]
        self.height[live] -= 1
        return self.stack[self.bottom[live] + self.height[live]].T

    def _step(self, nodes: np.ndarray) -> None:
        """Search ``nodes``, split those that can, and open their children."""
        tree, _, lo, _, depth = nodes
        seg = Segments.of(nodes[HI] - lo)
        at = seg.index + (lo - seg.starts)[seg.node]
        gain, feature, low, high, order, cut = self._search(tree, seg, self.perm[at])
        # each node's positions, its left child's first
        self.perm[at] = order
        self.searched.append((nodes, gain, feature, low, high))
        first = self.next_id
        self.next_id += 2 * tree.size
        s = (gain >= 0.0).nonzero()[0]
        if not s.size:
            return
        # each split's right child, then its left, as depth-first order
        # pushes them
        kids = nodes.take(s, axis=1).repeat(2, axis=1)
        ids = 2 * s + first
        kids[NID, 0::2] = ids + 1
        kids[NID, 1::2] = ids
        kids[LO, 0::2] = kids[HI, 1::2] = (lo - seg.starts + cut).take(s)
        kids[DEPTH] += 1
        self.made.append(kids)
        max_depth = self.builder.max_depth
        if max_depth is not None and depth.min() + 1 >= max_depth:
            return  # every child is a leaf
        # each node's left and right positions, for the children's purity
        t = self.target[order]
        cuts = np.empty((tree.size, 2), dtype=np.intp)
        cuts[:, 0] = seg.starts
        cuts[:, 1] = cut
        cuts = cuts.ravel()
        mixed = np.minimum.reduceat(t, cuts) != np.maximum.reduceat(t, cuts)
        self._open(kids, mixed.reshape(-1, 2).take(s, axis=0)[:, ::-1].ravel())

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
        # each leaf's positions, ascending: each range of the permutation
        # sorted, by one sort of (leaf, position); then each tree's own
        # positions
        b = n.bit_length()
        at = leaf << b
        at |= np.arange(n)
        at.sort()
        at &= (1 << b) - 1
        at -= self.base.repeat(self.size)
        for i, t, a, z in zip(index.tolist(), tree.tolist(), lo.tolist(), hi.tolist()):
            values[i] = float(self.leaf_values[t](at[a:z]))
        return values, leaf

    def _search(self, tree: np.ndarray, seg: Segments, pos: np.ndarray):
        """The best split of each node, and its positions with its left child's first.

        Node ``k``, of tree ``tree[k]``, holds the positions of ``pos``
        that ``seg`` gives it, in any order: the exact rule leaves a split
        node's positions in its chosen column's order, the random rule
        partitions them stably.  Only a leaf rule needs a leaf's positions
        ascending, and :meth:`_value` sorts them.  Returns per node the
        gain and feature of its best split and the two values its
        threshold lies between (:func:`midpoint`; a drawn threshold is
        both), ``pos`` reordered, and per node where its right child's
        positions begin.  Among the candidates whose gain is >= 0 the highest gain wins, the lowest
        feature index on ties.  Zero-gain splits are kept: a boundary that
        does not reduce impurity can still expose one deeper down (the XOR
        pattern), so only constant columns and pure nodes stop the
        recursion.  A node without a split has a gain that is not >= 0,
        and its positions in any order.  Each tree draws its candidates, then its
        thresholds.
        """
        streams = self.streams
        candidates = None  # every feature
        if streams is not None:
            streams.reserve()
            if streams.m is not None:
                candidates = streams.choose(tree)
        if self.builder.random_threshold:
            return self._random_splits(seg, pos, candidates, lambda live: streams.doubles(tree, live))
        return self._exact_splits(tree, seg, pos, candidates)

    def _random_splits(self, seg: Segments, pos: np.ndarray, candidates, uniform):
        # all nodes as one segmented block: node k's rows from starts[k] on
        rows, t = self.rows[pos], self.target[pos]
        k, starts, node, nodes = seg.sizes.size, seg.starts, seg.node, seg.nodes
        best_gain = np.full(k, -np.inf)
        best_feature = np.zeros(k, dtype=np.int64)
        best_threshold = np.zeros(k)
        go = np.zeros(rows.size, dtype=bool)
        width = self.X.shape[1] if candidates is None else candidates.shape[1]
        step = max(1, SPLIT_BLOCK_CELLS // rows.size)
        for start in range(0, width, step):
            if candidates is None:
                block = self.X[rows, start : start + step]
            else:
                block = self.X[rows[:, None], candidates[:, start : start + step][node]]
            gains, thresholds, go_left = random_block_split(
                block, t, starts, self.builder.criterion, uniform
            )
            gains = np.where(gains >= 0.0, gains, -np.inf)
            j = gains.argmax(axis=1)
            # the first best column wins, so a later chunk needs a higher gain
            better = gains[nodes, j] > best_gain
            best_gain[better] = gains[nodes, j][better]
            feature = start + j if candidates is None else candidates[nodes, start + j]
            best_feature[better] = feature[better]
            best_threshold[better] = thresholds[nodes, j][better]
            go = np.where(better[node], go_left[np.arange(rows.size), j[node]], go)
        # one stable partition of every node's positions, its go-left ones
        # first; an unsplit node's go-left mask is all false
        order = pos[_stable_order(2 * node + ~go, 2 * k)]
        cut = starts + np.add.reduceat(go, starts, dtype=np.intp)
        return best_gain, best_feature, best_threshold, best_threshold, order, cut

    def _exact_splits(self, tree: np.ndarray, seg: Segments, pos: np.ndarray, candidates):
        # each node's sorted order per column, filtered from its tree's
        # presort: by value, ties by position, as a stable sort of the node
        n, m = self.rows.size, pos.size
        node_of = self.node_of
        node_of[pos] = seg.node
        # one node a tree, in tree order: a compress keeps the nodes'
        # positions; several nodes of a tree: a stable sort by node
        several = tree.size > 1 and (self.size.size == 1 or bool((tree[1:] == tree[:-1]).any()))
        if candidates is None:  # every feature: the grove's presort rows
            width, span = self.X.shape[1], n
        else:  # one node a tree: each tree's rows of its own columns
            width = candidates.shape[1]
            wide = _ranges(self.base[tree], self.size[tree])
            span = wide.size
        step = max(1, SPLIT_BLOCK_CELLS // span)
        for start in range(0, width, step):
            if candidates is None:
                cols = slice(start, start + step)
                pre, vals = self.pre[cols], self.vals[cols]
            else:
                cols = candidates[:, start : start + step]
                flat = (cols.T * n).repeat(self.size[tree], axis=1) + wide
                pre, vals = self.pre.reshape(-1)[flat], self.vals.reshape(-1)[flat]
            if several:
                keep = _stable_order(node_of[pre], n + 1)[:, :m]
                at, vs = pre.reshape(-1)[keep], vals.reshape(-1)[keep]
            else:
                keep = node_of[pre] != n
                at, vs = pre[keep].reshape(-1, m), vals[keep].reshape(-1, m)
            gains, slot, cut = exact_block_split(vs, self.target[at], seg, self.builder.criterion)
            # each node's best column in the chunk, the first on ties; its
            # positions in that column's order put the left child's first
            cut += 1
            found = (
                gains[slot, seg.nodes],
                start + slot if candidates is None else cols[seg.nodes, slot],
                vs[slot, cut - 1],
                vs[slot, cut],
                at[slot[seg.node], seg.index],
                cut,
            )
            if start == 0:
                best = found
            else:  # a later chunk needs a gain >= 0, and higher
                better = (found[0] >= 0.0) & ~(found[0] <= best[0])
                best = tuple(np.where(better[seg.node] if i == 4 else better, new, old)
                             for i, (new, old) in enumerate(zip(found, best)))
        node_of[pos] = n
        return best

"""The tree grower shared by every tree family, on a dense training matrix.

Classification trees split on Gini impurity, the regression trees inside
the boosting model split on variance, and the extremely-randomised
variant draws one uniform threshold per candidate feature instead of
scanning.  What a leaf stores is up to the caller (positive fraction,
mean target, or a Newton step), supplied as a callback.

:meth:`TreeBuilder.build_many` is the one entry point: each tree comes
as a :class:`TreeJob` that carries its rows, targets, leaf rule and
generator, and goes out as its node columns in the tree-local layout of
:func:`~vandalstack.learners.tree.invalid_node`, which
:func:`node_table` joins into the model's one
:class:`~vandalstack.learners.tree.NodeTable`.

The models densify their training matrix once per fit.  All trees of a
forest grow together (a boosting round grows one): each step takes the
next node of every unfinished tree, each tree in its own depth-first
order with its own generator.  A step draws every tree's candidate
features and thresholds in one pass over raw words read ahead from the
trees' ``PCG64`` generators (:class:`_Streams`), and values its new
leaves together.  The draws reproduce numpy ``Generator`` streams bit
for bit, as ``choice(d, m, replace=False)`` then ``random(k)`` per node
would draw them, and leave each generator where those calls would;
``tests/test_draws.py::test_batched_draw_reads_each_stream_as_choice_then_random``
fails if a numpy upgrade moves them.  The random rule searches all of a
step's nodes as one segmented block.  The exact rule searches one node
at a time: every candidate column of the node, in the order of a
presort made once per tree, scanned over all boundaries between distinct
values (the exact greedy enumeration of XGBoost).  One gain formula per
criterion serves both rules, and the trees are bit for bit those grown
one at a time.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, NamedTuple, Optional

import numpy as np

from .tree import NodeTable


# cells searched at once: the trees grown together are grouped so that a
# step's block of candidate values (or, for the exact rule, the trees'
# presorts) stays within this many, and a single node over it is searched
# in column chunks.  A grove step's cost is mostly per call, so bigger
# groves are cheaper until their temporaries outgrow the cache.  Measured
# on the extra-trees and random-forest fits of two benchmark train-stack
# runs (14 fits, 120-181 rows; CPU s, best of 7, one core of a 2-core
# x86-64 host): 2^14 3.21, 2^15 2.76, 2^16 2.58, 2^17 2.71, 2^18 2.87.
# Trees are bit for bit the same at any value.
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


def split_gains(sl, nl, total, n, criterion: str) -> np.ndarray:
    """Impurity decrease of splits that send ``nl`` of ``n`` rows left.

    ``sl`` is the target sum on the left and ``total`` the sum over all
    ``n`` rows; the arguments broadcast, one entry per candidate split.
    Both split rules use this one formula.
    """
    nr = n - nl
    sr = total - sl
    if criterion == "gini":
        def gini(s, cnt):
            p = s / cnt
            return 2.0 * p * (1.0 - p)

        return gini(total, n) - (nl * gini(sl, nl) + nr * gini(sr, nr)) / n
    # variance criterion: decrease reduces to a sum-of-squares identity.  The
    # parent term is squared one float at a time: numpy squares an array by a
    # multiplication but a scalar with C pow, and the two differ in the last
    # bit on about one value in a thousand, enough to flip an exact tie
    mean_sq = np.array([m**2 for m in np.ravel(total / n).tolist()])
    return (sl * sl / nl + sr * sr / nr) / n - mean_sq.reshape(np.shape(total))


def exact_block_split(vs: np.ndarray, ts: np.ndarray, criterion: str):
    """Scan every boundary between distinct values in each row of ``vs``.

    A row of ``vs`` holds one candidate feature's values over the node's
    rows, sorted stably; ``ts`` holds the targets in the same order.
    Returns per row the gain of its best boundary and the boundary's
    index ``at``, between ``vs[at]`` and ``vs[at + 1]``, the lowest
    winning ties; the gain is ``-inf`` for a constant row.
    """
    c, n = vs.shape
    csum = ts.cumsum(axis=1)
    gains = split_gains(csum[:, :-1], np.arange(1.0, n), csum[:, -1:], n, criterion)
    gains[~(vs[:, 1:] > vs[:, :-1])] = -np.inf
    at = gains.argmax(axis=1)
    return gains[np.arange(c), at], at


def midpoint(lo: float, hi: float) -> float:
    """The threshold between adjacent distinct values ``lo < hi``.

    Their midpoint, or ``lo`` where the midpoint rounds onto ``hi``, so
    that ``x <= threshold`` still separates them.
    """
    threshold = 0.5 * (lo + hi)
    return threshold if lo <= threshold < hi else lo


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
    with np.errstate(divide="ignore", invalid="ignore"):
        gains = split_gains(
            sl, nl, np.add.reduceat(t, starts)[:, None], sizes[:, None], criterion
        )
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
    positions (into ``rows``) that land in a leaf.  ``None`` values a leaf
    at the mean of its targets, summed in row order with the grove step's
    other leaves: the sum of ``target[sel]``, bit for bit, when the targets
    are integers (the 0/1 labels of a forest).  ``rng``, a ``PCG64``
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
                yield from _Grove(self, X, group).grow(importances)
                group, cells = [], 0
            group.append(job)
            cells += job.rows.size * width
        if group:
            yield from _Grove(self, X, group).grow(importances)


def node_table(trees: Iterable[tuple]) -> NodeTable:
    """One table of grown trees' node columns, in order."""
    trees = list(trees)
    columns = (
        np.concatenate([np.zeros(0, dtype)] + [tree[i] for tree in trees])
        for i, dtype in enumerate((np.int64, np.float64, np.int64, np.float64))
    )
    return NodeTable(*columns, [tree[0].size for tree in trees])


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
        draws = (self.bounded(idx) >> 32).tolist()
        if self.tail:
            return np.array([_tail_shuffle(d, row) for row in draws], dtype=np.int64)
        chosen = []
        for row in draws:
            # Floyd: step j draws r <= j and adds it, or j if r is in already
            kept = set()
            for j, r in zip(range(d - m, d), row):
                kept.add(j if r in kept else r)
            chosen.append(sorted(kept))
        return np.array(chosen, dtype=np.int64)

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


class _Growing:
    """One tree while it grows: its stream row, its DFS stack and its nodes.

    Positions are the tree's offsets into its grove's concatenated rows.
    """

    __slots__ = (
        "row", "leaf_value", "base", "size", "pre", "vals", "stack", "n_nodes",
        "feature", "threshold", "right", "value", "n_splits", "split_features", "split_weights",
    )

    def __init__(self, job: TreeJob, row: int, base: int, nodes: tuple, splits: tuple):
        self.row = row
        self.leaf_value = job.leaf_value
        self.base = base
        self.size = job.rows.size
        # the nodes still to search, as (id, positions, depth), next on top
        self.stack: list[tuple[int, np.ndarray, int]] = []
        # per node: split feature (-1 at a leaf), threshold, right child, value
        self.n_nodes = 1
        self.feature, self.threshold, self.right, self.value = nodes
        # feature and weighted gain of each split, in depth-first order
        self.n_splits = 0
        self.split_features, self.split_weights = splits

    def split(self, nid: int, feature: int, threshold: float, weight: float) -> int:
        """Turn leaf ``nid`` into a split; returns its left child, the right is next."""
        left = self.n_nodes
        self.n_nodes += 2
        self.feature[nid], self.threshold[nid], self.right[nid] = feature, threshold, left + 1
        self.split_features[self.n_splits], self.split_weights[self.n_splits] = feature, weight
        self.n_splits += 1
        return left

    def columns(self) -> tuple:
        """The tree's ``(feature, threshold, right, value)``, copied out of the grove's arrays."""
        n = self.n_nodes
        return tuple(a[:n].copy() for a in (self.feature, self.threshold, self.right, self.value))


class _Grove:
    """Trees grown in lockstep over one dense ``X``.

    Each step pops the top node of every unfinished tree's own DFS stack
    and searches those nodes together.  A node goes on the stack only if
    it can split (two rows or more, targets not all equal, above
    ``max_depth``); any other node becomes a leaf at once, and a step
    values its new leaves together.  Each tree draws from its own
    generator in its own DFS order, all of a step's draws in one pass
    (:class:`_Streams`), so every tree comes out bit for bit as if grown
    alone, and its generator ends where that would leave it.
    """

    def __init__(self, builder: TreeBuilder, X: np.ndarray, jobs):
        self.builder = builder
        self.X = X
        sizes = [job.rows.size for job in jobs]
        bases = np.cumsum(sizes) - sizes
        self.rows = np.concatenate([job.rows for job in jobs])
        self.target = np.concatenate([job.target for job in jobs])
        # every tree's node and split arrays, in one allocation each: every
        # leaf holds a position, so a tree has fewer nodes than twice its
        # positions, and fewer splits than its positions
        n = self.rows.size
        nodes = (
            np.full(2 * n, -1, dtype=np.int64),
            np.full(2 * n, np.nan),
            np.full(2 * n, -1, dtype=np.int64),
            np.zeros(2 * n),
        )
        self.value = nodes[3]
        splits = (np.empty(n, dtype=np.intp), np.empty(n))
        self.trees = [
            _Growing(
                job,
                row,
                base,
                tuple(a[2 * base : 2 * (base + job.rows.size)] for a in nodes),
                tuple(a[base : base + job.rows.size] for a in splits),
            )
            for row, (job, base) in enumerate(zip(jobs, bases.tolist()))
        ]
        d, m = X.shape[1], builder.max_features
        if m is not None and m >= d:
            m = None  # every feature, none drawn
        self.streams = None
        if m is not None or builder.random_threshold:
            doubles = (m or d) if builder.random_threshold else 0
            self.streams = _Streams([job.rng for job in jobs], d, m, doubles)
        if not builder.random_threshold:
            self.member = np.zeros(self.rows.size, dtype=bool)
            columns = []
            for tree, job in zip(self.trees, jobs):
                presort = Presort.of(X, job.rows) if job.presort is None else job.presort
                columns.append(presort.columns)
                tree.pre = presort.order + tree.base if tree.base else presort.order
                tree.vals = presort.values
            self.columns = columns[0] if len(columns) == 1 else np.concatenate(columns, axis=1)

    def grow(self, importances: Optional[np.ndarray]) -> list[tuple[tuple, np.ndarray]]:
        """Per tree: its node columns and each position's leaf id, as ``build_many`` yields."""
        self.leaf_of = np.full(self.rows.size, -1, dtype=np.int64)
        try:
            self._place(
                [(tree, 0, np.arange(tree.base, tree.base + tree.size), 0) for tree in self.trees],
                [],
            )
            growing = [tree for tree in self.trees if tree.stack]
            while growing:
                nodes = [tree.stack.pop() for tree in growing]
                found = self.splits(growing, [sel for _, sel, _ in nodes])
                children, leaves = [], []  # the right child before the left, as DFS pushes them
                for tree, (nid, sel, depth), split in zip(growing, nodes, found):
                    if split is None:
                        leaves.append((tree, nid, sel))
                        continue
                    gain, j, thr, go_left = split
                    left = tree.split(nid, j, thr, (sel.size / tree.size) * gain)
                    children += [
                        (tree, left + 1, sel[~go_left], depth + 1),
                        (tree, left, sel[go_left], depth + 1),
                    ]
                self._place(children, leaves)
                growing = [tree for tree in growing if tree.stack]
        finally:
            self.finish()
        if importances is not None:
            for tree in self.trees:
                # unbuffered: one addition after another, in depth-first order
                k = tree.n_splits
                np.add.at(importances, tree.split_features[:k], tree.split_weights[:k])
        return [
            (tree.columns(), self.leaf_of[tree.base : tree.base + tree.size])
            for tree in self.trees
        ]

    def finish(self) -> None:
        """Leave every tree's generator where its draws so far end."""
        if self.streams is not None:
            self.streams.close()

    def _place(self, nodes: list, leaves: list) -> None:
        """Push each node that can split onto its tree's stack, in order; value the rest and ``leaves``."""
        max_depth = self.builder.max_depth
        rest = []
        for tree, nid, sel, depth in nodes:
            if sel.size >= 2 and (max_depth is None or depth < max_depth):
                rest.append((tree, nid, sel, depth))
            else:
                leaves.append((tree, nid, sel))
        if rest:
            sels = [sel for _, _, sel, _ in rest]
            sizes = np.array([sel.size for sel in sels])
            starts = sizes.cumsum() - sizes
            t = self.target[np.concatenate(sels)]
            mixed = np.minimum.reduceat(t, starts) != np.maximum.reduceat(t, starts)
            for (tree, nid, sel, depth), can_split in zip(rest, mixed.tolist()):
                if can_split:
                    tree.stack.append((nid, sel, depth))
                else:
                    leaves.append((tree, nid, sel))
        if leaves:
            self._value(leaves)

    def _value(self, leaves: list) -> None:
        """Value each ``(tree, nid, positions)`` leaf and mark its positions' leaf id.

        Leaves of a tree without a leaf rule take the mean of their targets,
        all summed in one pass.
        """
        means = []
        for tree, nid, sel in leaves:
            if tree.leaf_value is None:
                means.append((tree, nid, sel))
            else:
                tree.value[nid] = float(tree.leaf_value(sel - tree.base))
                self.leaf_of[sel] = nid
        if not means:
            return
        sels = [sel for _, _, sel in means]
        sizes = np.array([sel.size for sel in sels])
        at = np.concatenate(sels)
        nids = np.array([nid for _, nid, _ in means])
        value = np.add.reduceat(self.target[at], sizes.cumsum() - sizes) / sizes
        self.value[nids + np.array([2 * tree.base for tree, _, _ in means])] = value
        self.leaf_of[at] = np.repeat(nids, sizes)

    def splits(self, trees: list, sels: list) -> list:
        """The best split of node ``sels[i]`` of ``trees[i]``, or ``None``, each.

        A split is ``(gain, feature, threshold, go_left)``.  Among the
        candidates whose gain is >= 0 the highest gain wins, the lowest
        feature index on ties.  Zero-gain splits are kept: a boundary that
        does not reduce impurity can still expose one deeper down (the XOR
        pattern), so only constant columns and pure nodes stop the
        recursion.  Each tree draws its candidates, then its thresholds.
        """
        streams = self.streams
        candidates = None  # every feature
        if streams is not None:
            idx = np.array([tree.row for tree in trees])
            streams.reserve()
            if streams.m is not None:
                candidates = streams.choose(idx)
        if self.builder.random_threshold:
            return self._random_splits(sels, candidates, lambda live: streams.doubles(idx, live))
        return [
            self._exact_split(tree, sel, None if candidates is None else candidates[i])
            for i, (tree, sel) in enumerate(zip(trees, sels))
        ]

    def _random_splits(self, sels: list, candidates, uniform) -> list:
        # all nodes as one segmented block: node i's rows from starts[i] on
        nodes = np.concatenate(sels)
        rows, t = self.rows[nodes], self.target[nodes]
        sizes = np.array([sel.size for sel in sels])
        starts = sizes.cumsum() - sizes
        seg = np.repeat(np.arange(len(sels)), sizes)
        node = np.arange(len(sels))
        best_gain = np.full(len(sels), -np.inf)
        best_feature = np.zeros(len(sels), dtype=np.int64)
        best_threshold = np.zeros(len(sels))
        go = np.zeros(rows.size, dtype=bool)
        width = self.X.shape[1] if candidates is None else candidates.shape[1]
        step = max(1, SPLIT_BLOCK_CELLS // rows.size)
        for start in range(0, width, step):
            if candidates is None:
                block = self.X[rows, start : start + step]
            else:
                block = self.X[rows[:, None], candidates[:, start : start + step][seg]]
            gains, thresholds, go_left = random_block_split(
                block, t, starts, self.builder.criterion, uniform
            )
            gains = np.where(gains >= 0.0, gains, -np.inf)
            k = gains.argmax(axis=1)
            # the first best column wins, so a later chunk needs a higher gain
            better = gains[node, k] > best_gain
            best_gain[better] = gains[node, k][better]
            feature = start + k if candidates is None else candidates[node, start + k]
            best_feature[better] = feature[better]
            best_threshold[better] = thresholds[node, k][better]
            go = np.where(better[seg], go_left[np.arange(rows.size), k[seg]], go)
        return [
            (float(gain), int(j), float(thr), go[lo : lo + n]) if gain >= 0.0 else None
            for gain, j, thr, lo, n in zip(best_gain, best_feature, best_threshold, starts, sizes)
        ]

    def _exact_split(self, tree: _Growing, sel: np.ndarray, candidates):
        # the node's sorted order per feature, filtered from the tree's
        # presort: by value, ties by position, as a stable sort of the node
        member = self.member
        member[sel] = True
        width = self.X.shape[1] if candidates is None else candidates.size
        step = max(1, SPLIT_BLOCK_CELLS // tree.size)
        best = None
        for start in range(0, width, step):
            if candidates is None:
                cols = slice(start, start + step)
            else:
                cols = candidates[start : start + step]
            pre, vals = tree.pre[cols], tree.vals[cols]
            keep = member[pre]
            vs = vals[keep].reshape(pre.shape[0], sel.size)
            gains, at = exact_block_split(
                vs, self.target[pre[keep]].reshape(vs.shape), self.builder.criterion
            )
            gains = np.where(gains >= 0.0, gains, -np.inf)
            k = int(gains.argmax())
            gain = float(gains[k])
            if gain >= 0.0 and (best is None or gain > best[0]):
                j = start + k if candidates is None else int(candidates[start + k])
                lo, hi = vs[k, at[k]], vs[k, at[k] + 1]
                best = (gain, j, midpoint(float(lo), float(hi)))
        member[sel] = False
        if best is None:
            return None
        gain, j, thr = best
        return gain, j, thr, self.columns[j, sel] <= thr

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
order with its own generator.  The random rule searches all of a step's
nodes as one segmented block, drawing each node's thresholds in one
call.  The exact rule searches one node at a time: every candidate
column of the node, in the order of a presort made once per tree,
scanned over all boundaries between distinct values (the exact greedy
enumeration of XGBoost).  One gain formula per criterion serves both
rules, and the trees are bit for bit those grown one at a time.
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
    block: np.ndarray, t: np.ndarray, starts: np.ndarray, criterion: str, rngs
):
    """One uniform threshold in ``[min, max)`` per column — the extra-trees rule.

    ``block`` holds the rows of several nodes back to back, node ``i``'s
    from ``starts[i]`` on, by its candidate features; ``t`` holds their
    targets.  ``rngs[i]`` draws one double ``u`` per non-constant column
    of node ``i``, in column order, and the threshold is ``lo + (hi - lo)
    * u``, bit for bit what ``rng.uniform(lo, hi)`` returns.  Returns the
    ``(gain, threshold)`` arrays, one row per node, and the go-left mask
    of ``block``; the gain is ``-inf`` for a constant column.
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
        u[live] = np.concatenate([rng.random(k) for rng, k in zip(rngs, live.sum(axis=1))])
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
    positions (into ``rows``) that land in a leaf.  ``rng`` draws the
    tree's candidate features and thresholds; it may be ``None`` when
    nothing is drawn (the exact rule over every feature).  The exact rule
    makes ``presort`` (:meth:`Presort.of` of the grower's ``X`` and
    ``rows``) when it is not given.
    """

    rows: np.ndarray
    target: np.ndarray
    leaf_value: Callable[[np.ndarray], float]
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


class _Growing:
    """One tree while it grows: its generator, its DFS stack and its nodes.

    Positions are the tree's offsets into its grove's concatenated rows.
    """

    __slots__ = (
        "rng", "leaf_value", "base", "size", "pre", "vals", "stack", "n_nodes",
        "feature", "threshold", "right", "value", "n_splits", "split_features", "split_weights",
    )

    def __init__(self, job: TreeJob, base: int, nodes: tuple, splits: tuple):
        self.rng = job.rng
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
    ``max_depth``); any other node becomes a leaf at once.  Each tree
    draws from its own generator in its own DFS order, so every tree comes
    out bit for bit as if grown alone.
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
        splits = (np.empty(n, dtype=np.intp), np.empty(n))
        self.trees = [
            _Growing(
                job,
                base,
                tuple(a[2 * base : 2 * (base + job.rows.size)] for a in nodes),
                tuple(a[base : base + job.rows.size] for a in splits),
            )
            for job, base in zip(jobs, bases.tolist())
        ]
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
        self._place(
            [(tree, 0, np.arange(tree.base, tree.base + tree.size), 0) for tree in self.trees]
        )
        growing = [tree for tree in self.trees if tree.stack]
        while growing:
            nodes = [tree.stack.pop() for tree in growing]
            found = self.splits(growing, [sel for _, sel, _ in nodes])
            children = []  # the right child before the left, as DFS pushes them
            for tree, (nid, sel, depth), split in zip(growing, nodes, found):
                if split is None:
                    self._leaf(tree, nid, sel)
                    continue
                gain, j, thr, go_left = split
                left = tree.split(nid, j, thr, (sel.size / tree.size) * gain)
                children += [
                    (tree, left + 1, sel[~go_left], depth + 1),
                    (tree, left, sel[go_left], depth + 1),
                ]
            self._place(children)
            growing = [tree for tree in growing if tree.stack]
        if importances is not None:
            for tree in self.trees:
                # unbuffered: one addition after another, in depth-first order
                k = tree.n_splits
                np.add.at(importances, tree.split_features[:k], tree.split_weights[:k])
        return [
            (tree.columns(), self.leaf_of[tree.base : tree.base + tree.size])
            for tree in self.trees
        ]

    def _place(self, nodes: list) -> None:
        """Push each node that can split onto its tree's stack, in order; the rest are leaves."""
        max_depth = self.builder.max_depth
        rest = []
        for tree, nid, sel, depth in nodes:
            if sel.size >= 2 and (max_depth is None or depth < max_depth):
                rest.append((tree, nid, sel, depth))
            else:
                self._leaf(tree, nid, sel)
        if not rest:
            return
        sels = [sel for _, _, sel, _ in rest]
        sizes = np.array([sel.size for sel in sels])
        starts = sizes.cumsum() - sizes
        t = self.target[np.concatenate(sels)]
        mixed = np.minimum.reduceat(t, starts) != np.maximum.reduceat(t, starts)
        for (tree, nid, sel, depth), can_split in zip(rest, mixed.tolist()):
            if can_split:
                tree.stack.append((nid, sel, depth))
            else:
                self._leaf(tree, nid, sel)

    def _leaf(self, tree: _Growing, nid: int, sel: np.ndarray) -> None:
        tree.value[nid] = float(tree.leaf_value(sel - tree.base))
        self.leaf_of[sel] = nid

    def splits(self, trees: list, sels: list) -> list:
        """The best split of node ``sels[i]`` of ``trees[i]``, or ``None``, each.

        A split is ``(gain, feature, threshold, go_left)``.  Among the
        candidates whose gain is >= 0 the highest gain wins, the lowest
        feature index on ties.  Zero-gain splits are kept: a boundary that
        does not reduce impurity can still expose one deeper down (the XOR
        pattern), so only constant columns and pure nodes stop the
        recursion.  Each tree draws its candidates, then its thresholds.
        """
        d = self.X.shape[1]
        m = self.builder.max_features
        candidates = None  # every feature
        if m is not None and m < d:
            drawn = [tree.rng.choice(d, size=m, replace=False) for tree in trees]
            candidates = np.sort(np.array(drawn).reshape(len(trees), m), axis=1)
        if self.builder.random_threshold:
            return self._random_splits(trees, sels, candidates)
        return [
            self._exact_split(tree, sel, None if candidates is None else candidates[i])
            for i, (tree, sel) in enumerate(zip(trees, sels))
        ]

    def _random_splits(self, trees: list, sels: list, candidates) -> list:
        # all nodes as one segmented block: node i's rows from starts[i] on
        nodes = np.concatenate(sels)
        rows, t = self.rows[nodes], self.target[nodes]
        sizes = np.array([sel.size for sel in sels])
        starts = sizes.cumsum() - sizes
        seg = np.repeat(np.arange(len(sels)), sizes)
        rngs = [tree.rng for tree in trees]
        node = np.arange(len(trees))
        best_gain = np.full(len(trees), -np.inf)
        best_feature = np.zeros(len(trees), dtype=np.int64)
        best_threshold = np.zeros(len(trees))
        go = np.zeros(rows.size, dtype=bool)
        width = self.X.shape[1] if candidates is None else candidates.shape[1]
        step = max(1, SPLIT_BLOCK_CELLS // rows.size)
        for start in range(0, width, step):
            if candidates is None:
                block = self.X[rows, start : start + step]
            else:
                block = self.X[rows[:, None], candidates[:, start : start + step][seg]]
            gains, thresholds, go_left = random_block_split(
                block, t, starts, self.builder.criterion, rngs
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

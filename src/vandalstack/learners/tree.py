"""One CART-style binary tree, grown on a dense training matrix.

The same builder serves every tree family in the package: classification
trees split on Gini impurity, the regression trees inside the boosting
model split on variance, and the extremely-randomised variant draws one
uniform threshold per candidate feature instead of scanning.  What a leaf
stores is up to the caller (positive fraction, mean target, or a Newton
step), supplied as a callback.

The models densify their training matrix once per fit.  Each node gathers
the block of its rows and candidate features and searches all of them at
once: the exact rule sorts every column and scans all boundaries between
distinct values (the exact greedy enumeration of XGBoost), the random
rule draws all thresholds in one call.  One gain formula per criterion
serves both rules.

Prediction goes through :class:`NodeTable`, which compiles all trees of
an ensemble into one flat node table and walks them together.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..errors import DimensionMismatch
from .base import BaseModel


@dataclass
class Tree:
    """Flat-array binary tree.  ``feature[i] == -1`` marks a leaf.

    Node 0 is the root.  A split node ``i`` sends ``x[feature[i]] <=
    threshold[i]`` to ``left[i]`` and everything else, NaN included, to
    ``right[i] == left[i] + 1``, both after ``i``; a leaf reads
    ``-1 nan -1 -1``.  The grower produces exactly this layout and
    :func:`invalid_node` checks it.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.feature.size

    def predict_dense(self, Xd: np.ndarray) -> np.ndarray:
        """The leaf value every row of a dense block reaches."""
        table = NodeTable.from_trees([self])
        return table.value[table.leaf_ids(Xd)[:, 0]]


def invalid_node(
    feature: np.ndarray,
    threshold: np.ndarray,
    left: np.ndarray,
    right: np.ndarray,
    sizes: np.ndarray,
) -> Optional[tuple[int, str]]:
    """The first node that breaks the :class:`Tree` layout, and why.

    The arrays hold the nodes of ``len(sizes)`` trees back to back, each
    with tree-local child indices.  Children strictly after their parent,
    and one parent for every node but the root, make every tree a tree:
    acyclic, with each node on one path from the root.  The fixed-depth
    walk of :class:`NodeTable` relies on it.  Returns ``None`` when all
    nodes pass.
    """
    sizes = np.asarray(sizes, dtype=np.intp)
    if sizes.size and sizes.min() < 1:
        return int((np.cumsum(sizes) - sizes)[np.argmax(sizes < 1)]), "a tree needs a node"
    base = np.repeat(np.cumsum(sizes) - sizes, sizes)
    local = np.arange(feature.size) - base
    size = np.repeat(sizes, sizes)
    split = feature >= 0
    forward = split & (left > local) & (right == left + 1) & (right < size)
    children = np.concatenate(((left + base)[forward], (right + base)[forward]))
    parents = np.bincount(children, minlength=feature.size)
    checks = (
        (feature < -1, "feature index below -1"),
        (~split & ~((left == -1) & (right == -1) & np.isnan(threshold)),
         "a leaf must read -1 nan -1 -1"),
        (split & ~forward, "children must be two adjacent nodes after their parent"),
        (parents != (local > 0), "every node but the root needs exactly one parent"),
    )
    bad = [(int(np.argmax(mask)), why) for mask, why in checks if mask.any()]
    return min(bad) if bad else None


class NodeTable:
    """Every tree of one ensemble in a single flat node table.

    Tree ``t`` owns nodes ``roots[t]`` up to the next root; child indices
    are global.  All trees are walked together, ``depth`` vectorised steps
    for a block of rows, in the walk form: the block is padded with a
    leading column of zeros that every leaf tests against ``+inf`` and
    goes left to itself, so a walk that has reached its leaf stays there
    and the step needs no branch.  Only ``right`` is stored: the left
    child is ``right - 1``.  The comparison is the trees' own
    ``x <= threshold``, so NaN goes right.
    """

    # rows x trees cells walked per step: keeps every temporary in cache
    BLOCK_CELLS = 1 << 14

    def __init__(self, feature, threshold, right, value, sizes):
        """Compile trees from their tree-local arrays, concatenated.

        The trees must already pass :func:`invalid_node`, which makes every
        left child ``right - 1``.
        """
        sizes = np.asarray(sizes, dtype=np.intp)
        self.roots = np.cumsum(sizes) - sizes
        leaf = feature < 0
        own = np.arange(feature.size) + 1
        self.feature = np.where(leaf, 0, feature + 1)
        self.threshold = np.where(leaf, np.inf, threshold)
        self.right = np.where(leaf, own, right + np.repeat(self.roots, sizes))
        self.value = np.ascontiguousarray(value, dtype=np.float64)
        self.width = int(self.feature.max(initial=0))
        self.depth = self._max_depth()

    @classmethod
    def from_trees(cls, trees) -> "NodeTable":
        trees = list(trees)

        def joined(name, dtype):
            return np.concatenate([np.zeros(0, dtype)] + [getattr(t, name) for t in trees])

        feature, left, right = (joined(name, np.intp) for name in ("feature", "left", "right"))
        threshold, value = (joined(name, np.float64) for name in ("threshold", "value"))
        sizes = [t.n_nodes for t in trees]
        bad = invalid_node(feature, threshold, left, right, sizes)
        if bad is not None:
            raise ValueError(f"node {bad[0]} of the ensemble: {bad[1]}")
        return cls(feature, threshold, right, value, sizes)

    @property
    def n_trees(self) -> int:
        return self.roots.size

    def _max_depth(self) -> int:
        # level by level from the roots; in a tree each node is on one level
        depth = 0
        level = self.roots
        while True:
            level = level[self.feature[level] > 0]
            if level.size == 0:
                return depth
            right = self.right[level]
            level = np.concatenate((right - 1, right))
            depth += 1

    def trees(self) -> list[Tree]:
        """The trees as :class:`Tree` objects with tree-local indices."""
        bounds = np.append(self.roots, self.value.size)
        out = []
        for start, stop in zip(bounds[:-1], bounds[1:]):
            feature = self.feature[start:stop] - 1
            leaf = feature < 0
            right = np.where(leaf, -1, self.right[start:stop] - start)
            out.append(
                Tree(
                    feature=feature,
                    threshold=np.where(leaf, np.nan, self.threshold[start:stop]),
                    left=np.where(leaf, -1, right - 1),
                    right=right,
                    value=self.value[start:stop].copy(),
                )
            )
        return out

    def leaf_ids(self, X: np.ndarray) -> np.ndarray:
        """Global leaf index, shape ``(rows, trees)``, for a dense block."""
        n, d = X.shape
        if self.width > d:
            raise DimensionMismatch(
                f"trees split on column {self.width - 1}, input has {d} columns"
            )
        padded = np.zeros((n, d + 1))
        padded[:, 1:] = X
        flat = padded.ravel()
        # cell (row r, tree t) sits at r * trees + t
        row_base = np.repeat(np.arange(0, n * (d + 1), d + 1), self.n_trees)
        node = np.tile(self.roots, n)
        feature, threshold, right = self.feature, self.threshold, self.right
        for _ in range(self.depth):
            x = flat.take(row_base + feature.take(node))
            node = right.take(node) - (x <= threshold.take(node))
        return node.reshape(n, self.n_trees)

    def sum_leaves(self, X: np.ndarray, start: float, weight: float) -> np.ndarray:
        """``start + weight*v_1 + ... + weight*v_T`` per row of dense ``X``.

        ``v_t`` is the leaf value of tree ``t``.  The sum runs strictly in
        tree order, one addition after another, so it matches a loop over
        the trees bit for bit (pairwise summation would not).
        """
        n = X.shape[0]
        out = np.empty(n)
        step = max(1, self.BLOCK_CELLS // max(1, self.n_trees))
        for lo in range(0, n, step):
            block = X[lo : lo + step]
            terms = np.empty((block.shape[0], self.n_trees + 1))
            terms[:, 0] = start
            np.multiply(self.value[self.leaf_ids(block)], weight, out=terms[:, 1:])
            out[lo : lo + step] = np.add.accumulate(terms, axis=1)[:, -1]
        return out


class TreeEnsemble(BaseModel):
    """A model whose fitted trees are stored once, as the table ``nodes_``."""

    @property
    def trees_(self) -> list[Tree]:
        """The member trees, rebuilt from ``nodes_``; assigning recompiles."""
        return self.nodes_.trees()

    @trees_.setter
    def trees_(self, trees) -> None:
        self.nodes_ = NodeTable.from_trees(trees)


# cells of a node's candidate block searched at once: a wider block is
# searched in column chunks, so each float64 temporary stays within 512 KB
SPLIT_BLOCK_CELLS = 1 << 16


def split_gains(sl, nl, total, n: int, criterion: str) -> np.ndarray:
    """Impurity decrease of splits that send ``nl`` of ``n`` rows left.

    ``sl`` is the target sum on the left and ``total`` the column's sum
    over all ``n`` rows; the arguments broadcast, one column per candidate
    feature in the last axis.  Both split rules use this one formula.
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
    mean_sq = np.array([float(m) ** 2 for m in np.ravel(total / n)])
    return (sl * sl / nl + sr * sr / nr) / n - mean_sq.reshape(np.shape(total))


def exact_block_split(block: np.ndarray, t: np.ndarray, criterion: str):
    """Scan every boundary between distinct values in each column of ``block``.

    ``block`` holds the node's rows of its candidate features, ``t`` their
    targets.  Returns per column the ``(gain, threshold)`` arrays of its
    best boundary, the lowest threshold winning ties; the gain is ``-inf``
    for a constant column.
    """
    n, c = block.shape
    cols = np.arange(c)
    order = np.argsort(block, axis=0, kind="mergesort")
    vs = block[order, cols]
    csum = np.cumsum(t[order], axis=0)
    gains = split_gains(csum[:-1], np.arange(1.0, n)[:, None], csum[-1], n, criterion)
    gains[~(vs[1:] > vs[:-1])] = -np.inf
    at = np.argmax(gains, axis=0)
    lo, hi = vs[at, cols], vs[at + 1, cols]
    threshold = 0.5 * (lo + hi)
    threshold = np.where((lo <= threshold) & (threshold < hi), threshold, lo)
    return gains[at, cols], threshold


def random_block_split(
    block: np.ndarray, t: np.ndarray, criterion: str, rng: np.random.Generator
):
    """One uniform threshold in ``[min, max)`` per column — the extra-trees rule.

    Draws one double per non-constant column of ``block``, in column
    order.  Returns per column the ``(gain, threshold)`` arrays; the gain
    is ``-inf`` for a constant column.
    """
    n = block.shape[0]
    lo, hi = block.min(axis=0), block.max(axis=0)
    live = ~(lo == hi)
    threshold = lo.copy()
    drawn = rng.uniform(lo[live], hi[live])
    threshold[live] = np.where((lo[live] <= drawn) & (drawn < hi[live]), drawn, lo[live])
    go_left = block <= threshold
    nl = go_left.sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        gains = split_gains(
            np.where(go_left, t[:, None], 0.0).sum(axis=0), nl, t.sum(), n, criterion
        )
    # a constant column sends every row left; a drawn threshold, below the
    # maximum, never does
    gains[nl == n] = -np.inf
    return gains, threshold


class TreeBuilder:
    """Grows one tree.  Construction parameters, not fitted state.

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
        rng: np.random.Generator,
        random_threshold: bool = False,
    ):
        if criterion not in ("gini", "variance"):
            raise ValueError(f"unknown criterion {criterion!r}")
        self.criterion = criterion
        self.max_depth = max_depth
        self.max_features = max_features
        self.rng = rng
        self.random_threshold = random_threshold

    def build(
        self,
        X: np.ndarray,
        rows: np.ndarray,
        target: np.ndarray,
        leaf_value: Callable[[np.ndarray], float],
        importances: Optional[np.ndarray] = None,
    ) -> tuple[Tree, np.ndarray]:
        """Grow a tree over ``rows`` of dense ``X`` (repeats allowed, e.g. bootstrap).

        ``target[i]`` belongs to ``rows[i]``; ``leaf_value`` receives the
        positions (into ``rows``) that land in a leaf.  Returns the tree
        and, per position, the id of the leaf it reached.  When given,
        ``importances`` accumulates weighted impurity decreases per
        feature (caller normalises).
        """
        n_total = rows.size
        feature: list[int] = []
        threshold: list[float] = []
        left: list[int] = []
        right: list[int] = []
        value: list[float] = []
        leaf_of = np.full(n_total, -1, dtype=np.int64)

        def new_node() -> int:
            feature.append(-1)
            threshold.append(np.nan)
            left.append(-1)
            right.append(-1)
            value.append(0.0)
            return len(feature) - 1

        root = new_node()
        stack: list[tuple[int, np.ndarray, int]] = [
            (root, np.arange(n_total, dtype=np.int64), 0)
        ]
        while stack:
            nid, sel, depth = stack.pop()
            t = target[sel]
            can_split = (
                sel.size >= 2
                and (self.max_depth is None or depth < self.max_depth)
                and not (t == t[0]).all()
            )
            split = self._find_split(X, rows, sel, t) if can_split else None
            if split is None:
                value[nid] = float(leaf_value(sel))
                leaf_of[sel] = nid
                continue
            gain, j, thr, go_left = split
            if importances is not None:
                importances[j] += (sel.size / n_total) * gain
            feature[nid] = j
            threshold[nid] = thr
            left_id = new_node()
            right_id = new_node()
            left[nid] = left_id
            right[nid] = right_id
            stack.append((right_id, sel[~go_left], depth + 1))
            stack.append((left_id, sel[go_left], depth + 1))

        tree = Tree(
            feature=np.asarray(feature, dtype=np.int64),
            threshold=np.asarray(threshold, dtype=np.float64),
            left=np.asarray(left, dtype=np.int64),
            right=np.asarray(right, dtype=np.int64),
            value=np.asarray(value, dtype=np.float64),
        )
        return tree, leaf_of

    def _find_split(
        self, X: np.ndarray, rows: np.ndarray, sel: np.ndarray, t: np.ndarray
    ) -> Optional[tuple[float, int, float, np.ndarray]]:
        """The best split of the node's rows ``rows[sel]``, or ``None``.

        All candidate features are searched as one block of the node's
        rows (in column chunks when it is large).  Among candidates whose
        gain is >= 0 the highest gain wins, the lowest index on ties.
        """
        d = X.shape[1]
        if self.max_features is None or self.max_features >= d:
            candidates = np.arange(d)
        else:
            candidates = np.sort(
                self.rng.choice(d, size=self.max_features, replace=False)
            )
        node_rows = rows[sel]
        step = max(1, SPLIT_BLOCK_CELLS // node_rows.size)
        best: Optional[tuple[float, int, float]] = None
        for start in range(0, candidates.size, step):
            cols = candidates[start : start + step]
            block = X[node_rows[:, None], cols]
            if self.random_threshold:
                gains, thresholds = random_block_split(block, t, self.criterion, self.rng)
            else:
                gains, thresholds = exact_block_split(block, t, self.criterion)
            # zero-gain splits are kept: a boundary that does not reduce
            # impurity can still expose one deeper down (the XOR pattern),
            # so only constant columns and pure nodes stop the recursion
            gains = np.where(gains >= 0.0, gains, -np.inf)
            k = int(np.argmax(gains))
            # the first best column wins, so a later chunk needs a higher gain
            if gains[k] >= 0.0 and (best is None or gains[k] > best[0]):
                best = (float(gains[k]), int(cols[k]), float(thresholds[k]))
        if best is None:
            return None
        gain, j, thr = best
        return gain, j, thr, X[node_rows, j] <= thr

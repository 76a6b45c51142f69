"""One CART-style binary tree, grown directly on a sparse column matrix.

The same builder serves every tree family in the package: classification
trees split on Gini impurity, the regression trees inside the boosting
model split on variance, and the extremely-randomised variant draws one
uniform threshold per candidate feature instead of scanning.  What a leaf
stores is up to the caller (positive fraction, mean target, or a Newton
step), supplied as a callback.

Column values for the samples that reached a node are gathered on demand
from the CSC structure; the training matrix is never densified.

Prediction goes through :class:`NodeTable`, which compiles all trees of
an ensemble into one flat node table and walks them together.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy import sparse

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


def column_values(Xc: sparse.csc_matrix, j: int, row_ids: np.ndarray) -> np.ndarray:
    """Dense values of column ``j`` at ``row_ids`` (repeats allowed)."""
    start, stop = Xc.indptr[j], Xc.indptr[j + 1]
    out = np.zeros(row_ids.size, dtype=np.float64)
    if start == stop:
        return out
    col_rows = Xc.indices[start:stop]
    pos = np.searchsorted(col_rows, row_ids)
    hit = pos < col_rows.size
    hit[hit] = col_rows[pos[hit]] == row_ids[hit]
    out[hit] = Xc.data[start:stop][pos[hit]]
    return out


def _impurity_gain(t: np.ndarray, mask: np.ndarray, criterion: str) -> float:
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
        def gini(cnt: int, s: float) -> float:
            p = s / cnt
            return 2.0 * p * (1.0 - p)

        return gini(n, total) - (nl * gini(nl, sl) + nr * gini(nr, sr)) / n
    # variance criterion: decrease reduces to a sum-of-squares identity
    return (sl * sl / nl + sr * sr / nr) / n - (total / n) ** 2


def best_split_exact(
    v: np.ndarray, t: np.ndarray, criterion: str
) -> Optional[tuple[float, float]]:
    """Scan every boundary between consecutive distinct values of ``v``.

    Returns ``(gain, threshold)`` for the best boundary, preferring the
    lowest threshold on ties, or ``None`` when ``v`` is constant.
    """
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
        gains = (sl * sl / nl + sr * sr / nr) / n - (total / n) ** 2
    k = int(np.argmax(gains))
    lo, hi = vs[cut[k] - 1], vs[cut[k]]
    threshold = 0.5 * (lo + hi)
    if not lo <= threshold < hi:
        threshold = lo
    return float(gains[k]), float(threshold)


def random_split(
    v: np.ndarray, t: np.ndarray, criterion: str, rng: np.random.Generator
) -> Optional[tuple[float, float]]:
    """One uniform threshold in ``[min(v), max(v))`` — the extra-trees rule."""
    lo = float(v.min())
    hi = float(v.max())
    if lo == hi:
        return None
    threshold = float(rng.uniform(lo, hi))
    if not lo <= threshold < hi:
        threshold = lo
    gain = _impurity_gain(t, v <= threshold, criterion)
    if not np.isfinite(gain):
        return None
    return gain, threshold


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
        Xc: sparse.csc_matrix,
        rows: np.ndarray,
        target: np.ndarray,
        leaf_value: Callable[[np.ndarray], float],
        importances: Optional[np.ndarray] = None,
    ) -> tuple[Tree, np.ndarray]:
        """Grow a tree over ``rows`` of ``Xc`` (repeats allowed, e.g. bootstrap).

        ``target[i]`` belongs to ``rows[i]``; ``leaf_value`` receives the
        positions (into ``rows``) that land in a leaf.  Returns the tree
        and, per position, the id of the leaf it reached.  When given,
        ``importances`` accumulates weighted impurity decreases per
        feature (caller normalises).
        """
        n_total = rows.size
        d = Xc.shape[1]
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
                and not np.all(t == t[0])
            )
            split = self._find_split(Xc, rows, sel, t, d) if can_split else None
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
        self,
        Xc: sparse.csc_matrix,
        rows: np.ndarray,
        sel: np.ndarray,
        t: np.ndarray,
        d: int,
    ) -> Optional[tuple[float, int, float, np.ndarray]]:
        if self.max_features is None or self.max_features >= d:
            candidates = np.arange(d)
        else:
            candidates = np.sort(
                self.rng.choice(d, size=self.max_features, replace=False)
            )
        node_rows = rows[sel]
        best: Optional[tuple[float, int, float]] = None
        for j in candidates:
            v = column_values(Xc, int(j), node_rows)
            if self.random_threshold:
                found = random_split(v, t, self.criterion, self.rng)
            else:
                found = best_split_exact(v, t, self.criterion)
            if found is None:
                continue
            gain, thr = found
            # zero-gain splits are kept: a boundary that does not reduce
            # impurity can still expose one deeper down (the XOR pattern),
            # so only constant columns and pure nodes stop the recursion
            if gain >= 0.0 and (best is None or gain > best[0]):
                best = (gain, int(j), thr)
        if best is None:
            return None
        gain, j, thr = best
        go_left = column_values(Xc, j, node_rows) <= thr
        return gain, j, thr, go_left

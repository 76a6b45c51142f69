"""CART-style binary trees: their layout, and one evaluator for an ensemble.

Every tree family in the package grows its trees with
:mod:`vandalstack.learners.grower` into the :class:`Tree` layout.
Prediction goes through :class:`NodeTable`, which compiles all trees of
an ensemble into one flat node table and walks them together.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

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

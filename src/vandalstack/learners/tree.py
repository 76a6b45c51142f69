"""CART-style binary trees in one node table: the one fitted form of an ensemble.

Every tree family grows its trees with :mod:`vandalstack.learners.grower`
straight into the tree-local layout that :func:`invalid_node` checks and a
model file lists, and keeps them as one :class:`NodeTable` (``nodes_``).
The table compiles that layout into its walk form, walks all trees
together to predict, and alone turns the walk form back into the layout
(:meth:`NodeTable.local`), which :mod:`vandalstack.learners.io` formats.
A tree range (:meth:`NodeTable.trees`) is a table of some of a table's
trees on the same arrays, which records that table and its first tree
there: a loaded pipeline compiles each stage's tree models into one
table, each model's ``nodes_`` a range of it, so that a block of a few
rows walks the models whose ranges follow one another in one walk.
:func:`range_sums` is the one code that turns a range's leaves into
sums: of one model's trees for its own ``predict_proba``, and of a run
of a stage's models at once.
"""

from __future__ import annotations

import copy
from typing import Optional, Sequence

import numpy as np

from ..errors import DimensionMismatch


def invalid_node(
    feature: np.ndarray,
    threshold: np.ndarray,
    left: np.ndarray,
    right: np.ndarray,
    sizes: np.ndarray,
) -> Optional[tuple[int, str]]:
    """The first node that breaks the tree-local layout, and why.

    The arrays hold the nodes of ``len(sizes)`` trees back to back, each
    tree's from its root, node 0, with tree-local child indices.  A split
    node ``i`` sends ``x[feature[i]] <= threshold[i]`` to ``left[i]`` and
    everything else, NaN included, to ``right[i] == left[i] + 1``; a leaf
    reads ``-1 nan -1 -1``.  Children strictly after their parent, and one
    parent for every node but the root, make every tree a tree: acyclic,
    with each node on one path from the root.  The walk of
    :class:`NodeTable`, which takes at most the deepest tree's depth in
    steps, relies on it.  Returns ``None`` when all nodes pass.
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
    are global.  All trees are walked together, at most ``depth``
    vectorised steps for a block of rows, in the walk form: the block is
    padded with a leading column of zeros that every leaf tests against
    ``+inf`` and goes left to itself, so a cell (a row in a tree) that
    has reached its leaf stays there and the step needs no branch.  A
    block of at least :attr:`COMPACT_CELLS` cells sets its finished cells
    aside whenever they are at least half of the cells it walks, walks on
    with the rest, and stops when none moves.  Only ``right`` is stored:
    the left child is ``right - 1``.  The comparison is the trees' own
    ``x <= threshold``, so NaN goes right.

    :meth:`trees` makes a tree range: a table of some of the trees that
    shares the node arrays.  It records the table it was cut from
    (``table``) and the index of its first tree there (``first``), from
    which its nodes, ``span``, follow; a table is the range of all its
    trees.  A pipeline's loader compiles each stage's tree models into
    one table, and each model's ``nodes_`` is its range of it, so a block
    of a few rows can walk several models' trees in one walk.  The table
    walks and finds leaves; :func:`range_sums` alone sums their values.
    """

    # rows x trees cells walked per step: keeps every temporary in cache, and
    # a stage's models whose ranges follow one another are walked together
    # while their rows x trees stay within it.  predict_stack_batch with the
    # benchmark's seed-7 pipeline on blocks of 1 / 4 / 16 / 81 / 200 / 4,000
    # rows of its test split, in µs per block (CPU, best of 9, one core of a
    # 2-core x86-64 host): 2^13 429 / 787 / 1875 / 7445 / 17160 / 312100, 2^14
    # 419 / 744 / 1754 / 5834 / 14198 / 286852, 2^15 416 / 755 / 1847 / 7112 /
    # 16001 / 304881, 2^16 442 / 795 / 1908 / 7901 / 16588 / 314462.  Leaf ids
    # are the same at any value.
    BLOCK_CELLS = 1 << 14
    # cells a block needs before its walk sets finished cells aside.  Below
    # it a step costs its numpy calls more than its cells, and counting and
    # setting aside add calls.  Same runs, blocks of 1 / 2 / 4 / 8 / 16 /
    # 81 rows: 2^8 491 / 656 / 861 / 1250 / 2029 / 6972, 2^10 486 / 629 /
    # 850 / 1256 / 1979 / 7136, 2^11 547 / 636 / 849 / 1237 / 1992 / 7204,
    # 2^12 545 / 777 / 850 / 1278 / 1965 / 7046, never 547 / 753 / 1075 /
    # 2122 / 2889 / 8074.  A one-row block's first-stage group (1,800
    # cells) is above it.
    COMPACT_CELLS = 1 << 10

    def __init__(self, feature, threshold, right, value, sizes):
        """Compile trees from their tree-local columns, concatenated, and their sizes.

        The trees must pass :func:`invalid_node`, which makes every leaf's
        feature -1 and every left child ``right - 1``: the grower's trees
        do by construction, and the model loader checks a file's.  The
        table takes the columns as its own, so that it costs one copy of
        its trees: ``feature``, ``threshold`` and ``right`` are compiled
        into the walk form in place, and ``value`` is kept.  Only a column
        that is not a contiguous array of the table's type is copied.
        """
        sizes = np.asarray(sizes, dtype=np.intp)
        self.roots = np.cumsum(sizes) - sizes
        self.feature = np.ascontiguousarray(feature, dtype=np.intp)
        self.threshold = np.ascontiguousarray(threshold, dtype=np.float64)
        self.right = np.ascontiguousarray(right, dtype=np.intp)
        self.value = np.ascontiguousarray(value, dtype=np.float64)
        leaf = self.feature < 0
        self.feature += 1  # 0 at a leaf
        self.threshold[leaf] = np.inf
        self.right += np.repeat(self.roots, sizes)
        self.right[leaf] = np.flatnonzero(leaf) + 1  # a leaf goes left to itself
        self.table, self.first = self, 0  # a table is the range of all its trees
        # per tree: the widest input column it splits on, plus one, and its depth
        self.widths = (
            np.maximum.reduceat(self.feature, self.roots) if sizes.size else np.zeros(0, np.intp)
        )
        self.depths = self._tree_depths()
        self._measure()

    def _measure(self) -> None:
        self.width = int(self.widths.max(initial=0))
        self.depth = int(self.depths.max(initial=0))

    @property
    def span(self) -> tuple[int, int]:
        """The range's nodes in the shared arrays: its first root up to the next tree's, or the end."""
        bounds = np.append(self.table.roots, self.value.size)
        return int(bounds[self.first]), int(bounds[self.first + self.n_trees])

    def trees(self, lo: int, hi: int) -> "NodeTable":
        """Trees ``lo`` up to ``hi`` of this range, as a range of the table it was cut from."""
        table, lo, hi = self.table, self.first + lo, self.first + hi
        if (lo, hi) == (0, table.n_trees):
            return table
        part = copy.copy(table)
        part.first = lo
        part.roots, part.widths, part.depths = table.roots[lo:hi], table.widths[lo:hi], table.depths[lo:hi]
        part._measure()
        return part

    def local(self) -> tuple:
        """``(feature, threshold, right, value, sizes)``: the constructor's arguments.

        Undoes the walk form on whole columns of the table's ``span``: the
        feature index less one, tree-local right children, and ``-1 nan
        -1`` at a leaf.
        """
        start, stop = self.span
        sizes = np.diff(self.roots, append=stop)
        feature = self.feature[start:stop]
        leaf = feature == 0
        threshold = np.where(leaf, np.nan, self.threshold[start:stop])
        right = np.where(leaf, -1, self.right[start:stop] - np.repeat(self.roots, sizes))
        return feature - 1, threshold, right, self.value[start:stop], sizes

    @property
    def n_trees(self) -> int:
        return self.roots.size

    def _tree_depths(self) -> np.ndarray:
        """Splits on the longest root-to-leaf path, per tree."""
        # level by level from the roots; in a tree each node is on one level
        depths = np.zeros(self.n_trees, dtype=np.intp)
        level, owner, depth = self.roots, np.arange(self.n_trees), 0
        while level.size:
            split = self.feature[level] > 0
            right, owner = self.right[level[split]], owner[split]
            depth += 1
            depths[owner] = depth
            level, owner = np.concatenate((right - 1, right)), np.concatenate((owner, owner))
        return depths

    def leaf_ids(self, X: np.ndarray) -> np.ndarray:
        """Global leaf index, shape ``(trees, rows)``, for a dense block.

        The cells are laid out tree-major: cell ``t * rows + r`` is row
        ``r`` in tree ``t``, so one tree's leaves, and a tree range's, are
        contiguous rows of the result.
        """
        n, d = X.shape
        if self.width > d:
            raise DimensionMismatch(
                f"trees split on column {self.width - 1}, input has {d} columns"
            )
        padded = np.zeros((n, d + 1))
        padded[:, 1:] = X
        flat = padded.ravel()
        row_base = np.empty((self.n_trees, n), dtype=np.intp)
        row_base[:] = np.arange(0, n * (d + 1), d + 1)
        row_base = row_base.ravel()
        node = np.repeat(self.roots, n)
        feature, threshold, right = self.feature, self.threshold, self.right
        # `node` holds the walked cells; `cell` their indices once finished
        # cells have been set aside in `leaf`, or None while all are walked
        cell = None
        compact = node.size >= self.COMPACT_CELLS
        for _ in range(self.depth):
            f = feature.take(node)  # 0 at a leaf
            if compact and 2 * np.count_nonzero(f) <= node.size:
                moving = (f != 0).nonzero()[0]  # 4x faster than on int64 `f`
                if cell is None:
                    leaf, cell = node, moving
                else:
                    leaf[cell] = node
                    cell = cell[moving]
                node, row_base, f = node[moving], row_base[moving], f[moving]
                if not node.size:
                    break
            x = flat.take(row_base + f)
            node = right.take(node) - (x <= threshold.take(node))
        if cell is None:
            return node.reshape(self.n_trees, n)
        leaf[cell] = node
        return leaf.reshape(self.n_trees, n)


def range_sums(
    nodes: NodeTable, X: np.ndarray, sizes: Sequence[int], rules: Sequence[tuple]
) -> np.ndarray:
    """Per member, ``start + weight*v_1 + ... + weight*v_T`` at each row of dense ``X``: ``(members, rows)``.

    The one code that turns leaves into sums, for a tree model (a range
    of one member) and for a run of a stage's models alike.
    ``nodes`` is a tree range whose trees are its members' one after
    another: member ``k`` has the next ``sizes[k]`` trees, with leaf
    values ``v_t``, and ``rules[k]`` is its ``(start, weight)``.  ``X``
    is walked in chunks of rows of at most :attr:`NodeTable.BLOCK_CELLS`
    cells.  A chunk's terms are laid out as a table, a row a term: each
    member has a column per row of the chunk, which holds its start, its
    weighted leaf values in tree order, written straight there, then
    ``-0.0``, which adds nothing, down to the longest member's length.
    :func:`tree_order_sums` adds every member's at once, so each sum
    matches a loop over its trees bit for bit.
    """
    n, members, longest = X.shape[0], len(sizes), max(sizes, default=0)
    sums = np.empty((members, n))
    step = max(1, NodeTable.BLOCK_CELLS // max(1, nodes.n_trees))
    for lo in range(0, n, step):
        leaves = nodes.leaf_ids(X[lo : lo + step])
        values, rows = nodes.value.take(leaves), leaves.shape[1]
        # one member at one row gets a spare column: tree_order_sums needs two
        terms = np.zeros((longest + 1, max(2, members * rows)))
        layout = terms[:, : members * rows].reshape(-1, members, rows)
        end = 0
        for k, (start, weight) in enumerate(rules):
            size = sizes[k]
            layout[0, k] = start
            np.multiply(values[end : end + size], weight, out=layout[1 : 1 + size, k])
            if size < longest:
                layout[1 + size :, k] = -0.0
            end += size
        sums[:, lo : lo + rows] = tree_order_sums(terms)[: members * rows].reshape(members, rows)
    return sums


def tree_order_sums(terms: np.ndarray) -> np.ndarray:
    """The sum of each column of a table of terms at least two columns wide, added row by row.

    The one summation rule of tree scores, at every row count: each sum
    runs down its column, one addition after another.  ``np.add.reduce``
    over axis 0 adds whole rows in order while a row holds at least two
    cells, which the spare column of a one-column :func:`range_sums`
    table ensures: on one column numpy sees one contiguous run and sums
    it pairwise, as ``np.add.reduceat`` sums every segment at any width.
    The sums start from ``-0.0``, which adds nothing to any first term
    (numpy's default start, ``0.0``, would turn a sum of ``-0.0`` terms
    into ``0.0``).
    """
    return np.add.reduce(terms, axis=0, initial=-0.0)

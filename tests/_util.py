"""Shared test helpers: record factories and brute-force oracles."""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

import numpy as np
from hypothesis import strategies as st

from vandalstack.corpus import LabeledExample, Revision
from vandalstack.errors import MalformedLine
from vandalstack.featurize import FeatureSchema
from vandalstack.learners import (
    ExtraTreesClassifier,
    GradientBoostingClassifier,
    RandomForestClassifier,
)
from vandalstack.learners.grower import node_table
from vandalstack.learners.tree import NodeTable


def rev(rev_id, comment="", **kwargs):
    """Revision factory with quiet defaults."""
    return Revision(rev_id=rev_id, comment=comment, **kwargs)


def labeled(rev_id, label, comment="", **kwargs):
    return LabeledExample(rev(rev_id, comment, **kwargs), label)


def schema_of_width(width: int) -> FeatureSchema:
    """A schema of ``width`` numeric columns, for a pipeline fitted on synthetic matrices.

    Every pipeline file embeds its schema, so a saved pipeline needs one
    of its input's width.
    """
    return FeatureSchema(tuple(f"x{j:04d}" for j in range(width)), ())


def auc_bruteforce(labels, scores) -> float:
    """O(n^2) pair counting: 1 per win, 0.5 per tie, averaged."""
    labels = np.asarray(labels, dtype=bool)
    scores = np.asarray(scores, dtype=np.float64)
    pos = scores[labels]
    neg = scores[~labels]
    credit = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                credit += 1.0
            elif p == q:
                credit += 0.5
    return credit / (len(pos) * len(neg))


def random_scored_dataset(rng, max_n=200):
    """Random labels and scores with injected ties; both classes present."""
    n = int(rng.integers(2, max_n + 1))
    labels = rng.random(n) < rng.uniform(0.1, 0.9)
    if labels.all():
        labels[int(rng.integers(n))] = False
    if not labels.any():
        labels[int(rng.integers(n))] = True
    # quantized scores force plenty of exact ties
    levels = int(rng.integers(2, 12))
    scores = rng.integers(0, levels, size=n) / (levels - 1 + 1e-12)
    scores = np.clip(scores, 0.0, 1.0)
    return labels, scores


class LocalTree(NamedTuple):
    """One tree's tree-local node columns, as a model file's node lines list them.

    Node 0 is the root; a split sends ``x[feature] <= threshold`` to
    ``left`` and the rest to ``right == left + 1``; a leaf reads ``-1 nan
    -1 -1``.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    @classmethod
    def grown(cls, columns) -> "LocalTree":
        """The grower's ``(feature, threshold, right, value)`` of one tree."""
        feature, threshold, right, value = columns
        return cls(feature, threshold, np.where(right < 0, -1, right - 1), right, value)

    @classmethod
    def leaf(cls, value) -> "LocalTree":
        """A tree of one leaf."""
        return cls(
            feature=np.array([-1], dtype=np.int64),
            threshold=np.array([np.nan]),
            left=np.array([-1], dtype=np.int64),
            right=np.array([-1], dtype=np.int64),
            value=np.array([float(value)]),
        )

    @property
    def n_nodes(self) -> int:
        return self.feature.size


def table_of(members) -> NodeTable:
    """One node table of the members, joined as a model joins its numbered blocks, one tree a block."""
    return node_table((t.feature, t.threshold, t.right, t.value, [t.n_nodes]) for t in members)


def tree_loop_sums(nodes: NodeTable, X: np.ndarray, start: float, weight: float) -> np.ndarray:
    """``start``, then ``weight`` times each tree's leaf value, added one tree after another.

    The reference for :func:`~vandalstack.learners.tree.range_sums`,
    which every tree model's ``predict_proba`` and the stage walk share:
    each tree of ``nodes`` is walked alone, and its values are added to
    the running sums in a Python loop over the trees.
    """
    sums = np.full(X.shape[0], float(start))
    for t in range(nodes.n_trees):
        sums = sums + weight * nodes.value[nodes.trees(t, t + 1).leaf_ids(X)[0]]
    return sums


def reference_proba(model, X: np.ndarray) -> np.ndarray:
    """A tree model's P(positive) from :func:`tree_loop_sums`, finished by its family's rule."""
    sums = tree_loop_sums(model.nodes_, X, *model.leaf_rule())
    return model.proba_from_sums(sums, model.nodes_.n_trees)


def predict_dense(tree: LocalTree, X: np.ndarray) -> np.ndarray:
    """The leaf value every row of dense ``X`` reaches in one tree."""
    table = table_of([tree])
    return table.value[table.leaf_ids(X)[0]]


def reference_tree_lines(members) -> list[str]:
    """The ``trees``/``tree``/``node`` lines of :class:`LocalTree` members, node by node.

    The reference for the model writer's tree block, which formats the
    node table on whole columns instead.
    """
    lines = [f"trees {len(members)}"]
    for tree in members:
        lines.append(f"tree {tree.n_nodes}")
        for i in range(tree.n_nodes):
            lines.append(
                "node {} {} {} {} {}".format(
                    tree.feature[i],
                    repr(float(tree.threshold[i])),
                    tree.left[i],
                    tree.right[i],
                    repr(float(tree.value[i])),
                )
            )
    return lines


def trees_from_lines(lines) -> list[LocalTree]:
    """The member trees of a tree model's text, read node by node."""
    at = next(i for i, line in enumerate(lines) if line.startswith("trees "))
    members = []
    for _ in range(int(lines[at].split(" ")[1])):
        at += 1
        size = int(lines[at].split(" ")[1])
        rows = [line.split(" ")[1:] for line in lines[at + 1 : at + 1 + size]]
        at += size
        feature, threshold, left, right, value = zip(*rows)
        members.append(
            LocalTree(
                feature=np.array(feature, dtype=np.int64),
                threshold=np.array(threshold, dtype=np.float64),
                left=np.array(left, dtype=np.int64),
                right=np.array(right, dtype=np.int64),
                value=np.array(value, dtype=np.float64),
            )
        )
    return members


@st.composite
def fitted_tree_models(draw):
    """A forest, extra trees or boosting fit on small data with ties and constant columns."""
    n = draw(st.integers(1, 30))
    d = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = np.empty((n, d))
    for j, kind in enumerate(draw(st.lists(st.sampled_from(("few", "float", "constant")),
                                           min_size=d, max_size=d))):
        X[:, j] = {
            "few": rng.integers(0, 3, size=n),  # ties
            "float": rng.normal(size=n),
            "constant": np.full(n, 2.5),
        }[kind]
    y = rng.integers(0, 2, size=n)
    family = draw(st.sampled_from((RandomForestClassifier, ExtraTreesClassifier,
                                   GradientBoostingClassifier)))
    max_depth = draw(st.one_of(st.none(), st.integers(1, 4)))
    if family is GradientBoostingClassifier:
        model = family(n_estimators=draw(st.integers(0, 4)), max_depth=max_depth)
    else:
        model = family(n_estimators=draw(st.integers(1, 4)), max_depth=max_depth,
                       bootstrap=draw(st.booleans()), seed=draw(st.integers(0, 2**31)))
    return model.fit(X, y)


def whole_file_lines(source, undecodable=None) -> list[str]:
    """The line rule read the whole-file way, as the line layer once did: the reference for its chunked reader.

    ``source`` is a path, a text or bytes handle, or an iterable of lines.
    The whole text is decoded and split at once; on bytes that are not
    UTF-8 each line is decoded alone, to name or collect the bad ones.
    """
    if isinstance(source, (str, Path)):
        with open(source, "rb") as fh:
            data = fh.read()
    elif hasattr(source, "read"):
        data = source.read()
    else:
        data = "".join(line if line.endswith("\n") else line + "\n" for line in source)
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            if undecodable is None:
                raise MalformedLine("not valid UTF-8", data.count(b"\n", 0, exc.start) + 1) from None
            lines = []
            for line_no, raw in enumerate(data.split(b"\n"), start=1):
                try:
                    lines.append(raw.decode("utf-8"))
                except UnicodeDecodeError:
                    undecodable.add(line_no)
                    lines.append("")
            data = "\n".join(lines)
    if "\r" in data:
        data = data.replace("\r\n", "\n")
    lines = data.split("\n")
    if lines[-1] == "":  # the last line's LF, or an empty source
        lines.pop()
    return lines

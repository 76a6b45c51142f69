"""Shared test helpers: record factories and brute-force oracles."""

from __future__ import annotations

import numpy as np

from vandalstack.corpus import LabeledExample, Revision
from vandalstack.learners.tree import Tree


def rev(rev_id, comment="", **kwargs):
    """Revision factory with quiet defaults."""
    return Revision(rev_id=rev_id, comment=comment, **kwargs)


def labeled(rev_id, label, comment="", **kwargs):
    return LabeledExample(rev(rev_id, comment, **kwargs), label)


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


def reference_tree_lines(members) -> list[str]:
    """The ``trees``/``tree``/``node`` lines of :class:`Tree` objects, node by node.

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


def trees_from_lines(lines) -> list[Tree]:
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
            Tree(
                feature=np.array(feature, dtype=np.int64),
                threshold=np.array(threshold, dtype=np.float64),
                left=np.array(left, dtype=np.int64),
                right=np.array(right, dtype=np.int64),
                value=np.array(value, dtype=np.float64),
            )
        )
    return members

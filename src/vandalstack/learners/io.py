"""Versioned line-oriented text persistence for trained models.

Grammar (see docs/formats.md)::

    vandalstack-model v1
    family <name>
    dim <n_features>
    seed <int>
    param <name> <value>          (sorted by name, seed excluded)
    <family-specific fitted block>
    end

Floats are written with ``repr`` so loading restores them bit-for-bit and
a reloaded model predicts identically to the one saved.

A tree model's ``NodeTable`` (``nodes_``) is written by :func:`_tree_lines`
and read back by :func:`_nodes_from`, both on whole node columns.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..errors import MalformedLine, UnsupportedFamily
from ..lines import LineReader, Source, Target, parse_int, read_lines, write_lines
from .base import param_problem
from .boosting import GradientBoostingClassifier
from .forest import ExtraTreesClassifier, RandomForestClassifier
from .linear import LogisticRegression
from .mlp import MLPClassifier
from .tree import NodeTable, invalid_node

MODEL_HEADER = "vandalstack-model v1"

BUILTIN_FAMILIES = {
    "random_forest": RandomForestClassifier,
    "extra_trees": ExtraTreesClassifier,
    "gradient_boosting": GradientBoostingClassifier,
    "logistic_regression": LogisticRegression,
    "mlp": MLPClassifier,
}


def family_name(model) -> str:
    for name, cls in BUILTIN_FAMILIES.items():
        if type(model) is cls:
            return name
    raise UnsupportedFamily(f"cannot persist a {type(model).__name__}")


def _format_value(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse_value(token: str):
    if token == "None":
        return None
    if token == "True":
        return True
    if token == "False":
        return False
    value = parse_int(token)
    if value is not None:
        return value
    try:
        return float(token)
    except ValueError:
        return token


def _unscorable(split: np.ndarray, threshold: np.ndarray, value: np.ndarray) -> Optional[int]:
    """The first node whose split threshold or value is not finite, or None.

    The one rule for a node's fitted values, on write and on load.
    """
    bad = (split & ~np.isfinite(threshold)) | ~np.isfinite(value)
    return int(np.argmax(bad)) if bad.any() else None


def model_to_lines(model) -> list[str]:
    """The model file's lines; a value the loader would refuse is refused, naming its line.

    That covers a parameter outside its domain (set after ``fit``) and a
    non-finite fitted value.
    """
    model._check_is_fitted()
    family = family_name(model)
    lines = [MODEL_HEADER, f"family {family}", f"dim {model.n_features_}"]
    params = model.get_params()
    lines.append(f"seed {params.pop('seed')}")
    for name in sorted(params):
        problem = param_problem(type(model), name, params[name])
        if problem:
            raise MalformedLine(f"cannot write a parameter: {problem}", len(lines) + 1)
        lines.append(f"param {name} {_format_value(params[name])}")

    def floats(tag: str, values) -> None:
        values = np.ravel(values)
        if not np.isfinite(values).all():
            raise MalformedLine(f"cannot write a non-finite value on {tag!r}", len(lines) + 1)
        lines.append(tag + " " + " ".join(repr(float(v)) for v in values))

    if family in ("random_forest", "extra_trees", "gradient_boosting"):
        if family == "gradient_boosting":
            floats("base_score", model.base_score_)
        floats("importances", model.feature_importances_)
        nodes = model.nodes_
        bad = _unscorable(nodes.feature > 0, nodes.threshold, nodes.value)
        if bad is not None:
            # below the `trees` line, a `tree` line leads each tree's node lines
            tree = int(np.searchsorted(nodes.roots, bad, side="right"))
            raise MalformedLine("cannot write a non-finite tree node", len(lines) + 2 + tree + bad)
        lines.extend(_tree_lines(nodes))
    elif family == "logistic_regression":
        floats("bias", model.intercept_)
        floats("coef", model.coef_)
    else:  # mlp
        lines.append(f"layers {model.n_features_} {model.hidden_units}")
        floats("theta", model.theta_)
    lines.append("end")
    return lines


def _floats(reader: LineReader, tag: str, line: str, size: int) -> np.ndarray:
    """The fitted values on ``line``, just read: ``tag``, then ``size`` finite floats."""
    head, _, rest = line.partition(" ")
    if head != tag:
        raise MalformedLine(f"expected {tag!r}, got {line!r}", reader.line_no)
    try:
        values = np.asarray([float(tok) for tok in rest.split(" ") if rest], dtype=np.float64)
    except ValueError:
        raise MalformedLine(f"non-numeric value after {tag!r}", reader.line_no) from None
    if values.size != size:
        raise MalformedLine(f"{tag!r} holds {values.size} values, expected {size}", reader.line_no)
    if not np.isfinite(values).all():
        raise MalformedLine(f"non-finite value after {tag!r}", reader.line_no)
    return values


def model_from_lines(lines: Sequence[str], offset: int = 0):
    reader = LineReader(lines, offset)
    if reader.next() != MODEL_HEADER:
        raise MalformedLine(f"expected model header {MODEL_HEADER!r}", reader.line_no)
    family = reader.expect("family")
    cls = BUILTIN_FAMILIES.get(family)
    if cls is None:
        raise MalformedLine(f"unknown model family {family!r}", reader.line_no)
    dim = reader.expect_int("dim")
    seed = reader.expect_int("seed")
    params = {"seed": seed}
    while True:
        line = reader.next()
        if not line.startswith("param "):
            break
        name, _, token = line[len("param ") :].partition(" ")
        value = _parse_value(token)
        problem = param_problem(cls, name, value) if token else "no value"
        if problem:
            raise MalformedLine(f"bad {family} parameter line {line!r}: {problem}", reader.line_no)
        params[name] = value
    model = cls(**params)
    model.n_features_ = dim
    # `line` now holds the first line of the fitted block
    if family in ("random_forest", "extra_trees", "gradient_boosting"):
        if family == "gradient_boosting":
            model.base_score_ = float(_floats(reader, "base_score", line, 1)[0])
            line = reader.next()
        model.feature_importances_ = _floats(reader, "importances", line, dim)
        model.nodes_ = _nodes_from(reader, model)
    elif family == "logistic_regression":
        model.intercept_ = float(_floats(reader, "bias", line, 1)[0])
        model.coef_ = _floats(reader, "coef", reader.next(), dim)
    else:  # mlp
        h = model.hidden_units
        if line != f"layers {dim} {h}":
            raise MalformedLine(
                f"expected 'layers {dim} {h}' (dim, hidden_units), got {line!r}", reader.line_no
            )
        model.theta_ = _floats(reader, "theta", reader.next(), dim * h + 2 * h + 1)
    if reader.next() != "end":
        raise MalformedLine("model block missing 'end'", reader.line_no)
    if reader.pos != len(reader.lines):
        raise MalformedLine("trailing content after model block", reader.line_no)
    return model


_NODE_LINE = np.dtype(
    [
        ("tag", "U5"),
        ("feature", np.intp),
        ("threshold", np.float64),
        ("left", np.intp),
        ("right", np.intp),
        ("value", np.float64),
    ]
)


def _parse_nodes(lines: Sequence[str]) -> np.ndarray:
    """``node <feature> <threshold> <left> <right> <value>`` lines, in bulk."""
    if not lines:
        return np.zeros(0, dtype=_NODE_LINE)
    if not all(lines):  # loadtxt would skip an empty line, with a warning
        raise ValueError("empty node line")
    nodes = np.loadtxt(
        lines, dtype=_NODE_LINE, delimiter=" ", comments=None, quotechar=None, ndmin=1
    )
    if nodes.size != len(lines) or not np.all(nodes["tag"] == "node"):
        raise ValueError("not a node line")
    return nodes


def _tree_lines(nodes: NodeTable) -> list[str]:
    """The ``trees``, ``tree`` and ``node`` lines of a table; :func:`_nodes_from` reads them.

    Undoes the walk form on whole columns: the feature index less one,
    tree-local children with the left one ``right - 1``, and ``-1 nan -1
    -1`` at a leaf.  Only one tree's values are Python objects at a time.
    """
    starts, ends = nodes.roots, np.append(nodes.roots[1:], nodes.value.size)
    leaf = nodes.feature == 0
    right = np.where(leaf, -1, nodes.right - np.repeat(starts, ends - starts))
    columns = (
        nodes.feature - 1,
        np.where(leaf, np.nan, nodes.threshold),
        np.where(leaf, -1, right - 1),
        right,
        nodes.value,
    )
    lines = [f"trees {nodes.n_trees}"]
    for start, stop in zip(starts.tolist(), ends.tolist()):
        lines.append(f"tree {stop - start}")
        lines.extend(
            f"node {f} {t!r} {lo} {r} {v!r}"
            for f, t, lo, r, v in zip(*(c[start:stop].tolist() for c in columns))
        )
    return lines


def _nodes_from(reader: LineReader, model) -> NodeTable:
    """Read the ``trees`` line and its tree blocks into one table, parsing the nodes at once.

    The trees must be as many as the model's ``n_estimators`` and, when
    its ``max_depth`` is set, no deeper; each split's threshold and each
    node's value must be finite.
    """
    n_trees = reader.expect_int("trees")
    if n_trees != model.n_estimators:
        raise MalformedLine(f"trees must equal n_estimators {model.n_estimators}", reader.line_no)
    dim, max_depth = model.n_features_, model.max_depth
    sizes, firsts, lines = [], [], []
    for _ in range(n_trees):
        n_nodes = reader.expect_int("tree", 1)
        if reader.pos + n_nodes > len(reader.lines):
            raise MalformedLine("tree runs past the end of the model block", reader.line_no)
        firsts.append(reader.pos)
        sizes.append(n_nodes)
        lines.extend(reader.lines[reader.pos : reader.pos + n_nodes])
        reader.pos += n_nodes

    def line_of(k: int) -> int:
        # the 1-based file line of the model's k-th node line
        ends = np.cumsum(sizes)
        t = int(np.searchsorted(ends, k, side="right"))
        return reader.offset + firsts[t] + k - (ends[t] - sizes[t]) + 1

    try:
        nodes = _parse_nodes(lines)
    except ValueError:
        for k, line in enumerate(lines):
            try:
                _parse_nodes([line])
            except ValueError:
                raise MalformedLine(f"bad tree node line {line!r}", line_of(k))
        raise MalformedLine("bad tree node lines", line_of(0))
    feature, threshold = nodes["feature"], nodes["threshold"]
    left, right = nodes["left"], nodes["right"]
    problems = [invalid_node(feature, threshold, left, right, sizes)]
    wide = np.nonzero(feature >= dim)[0]
    if wide.size:
        problems.append((int(wide[0]), f"feature index not below dim {dim}"))
    unscorable = _unscorable(feature >= 0, threshold, nodes["value"])
    if unscorable is not None:
        problems.append((unscorable, "a split's threshold and a node's value must be finite"))
    bad = min((problem for problem in problems if problem is not None), default=None)
    if bad is not None:
        raise MalformedLine(f"bad tree node: {bad[1]}", line_of(bad[0]))
    table = NodeTable(feature, threshold, right, nodes["value"], sizes)
    if max_depth is not None and table.depth > max_depth:
        t = int(np.argmax(table.depths > max_depth))
        raise MalformedLine(  # named at the tree's `tree` line
            f"tree {t} is {table.depths[t]} deep, but max_depth is {max_depth}",
            reader.offset + firsts[t],
        )
    return table


def save_model(model, path: Target) -> None:
    write_lines(path, model_to_lines(model))


def load_model(path: Source):
    return model_from_lines(read_lines(path))

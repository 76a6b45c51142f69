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
"""

from __future__ import annotations

from pathlib import Path
from typing import IO, Iterator, Sequence, Union

import numpy as np

from ..errors import MalformedLine, UnsupportedFamily
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

# the parameters a model file may set on a `param` line, per family
_PARAM_NAMES = {
    name: frozenset(cls._param_names()) - {"seed"} for name, cls in BUILTIN_FAMILIES.items()
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
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        return token


def _floats_line(tag: str, values: np.ndarray) -> str:
    return tag + " " + " ".join(repr(float(v)) for v in values)


def model_to_lines(model) -> list[str]:
    model._check_is_fitted()
    family = family_name(model)
    lines = [MODEL_HEADER, f"family {family}", f"dim {model.n_features_}"]
    params = model.get_params()
    lines.append(f"seed {params.pop('seed')}")
    for name in sorted(params):
        lines.append(f"param {name} {_format_value(params[name])}")
    if family in ("random_forest", "extra_trees", "gradient_boosting"):
        if family == "gradient_boosting":
            lines.append(f"base_score {model.base_score_!r}")
        lines.append(_floats_line("importances", model.feature_importances_))
        lines.append(f"trees {len(model.trees_)}")
        for tree in model.trees_:
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
    elif family == "logistic_regression":
        lines.append(f"bias {model.intercept_!r}")
        lines.append(_floats_line("coef", model.coef_))
    else:  # mlp
        lines.append(f"layers {model.n_features_} {model.hidden_units}")
        lines.append(_floats_line("theta", model.theta_))
    lines.append("end")
    return lines


class _LineReader:
    """Sequential reader with one-token dispatch and error positions."""

    def __init__(self, lines: Sequence[str], offset: int = 0):
        self.lines = lines
        self.pos = 0
        self.offset = offset

    def next(self) -> str:
        if self.pos >= len(self.lines):
            raise MalformedLine("unexpected end of model block", self.line_no)
        line = self.lines[self.pos]
        self.pos += 1
        return line

    def expect(self, tag: str) -> str:
        line = self.next()
        head, _, rest = line.partition(" ")
        if head != tag:
            raise MalformedLine(f"expected {tag!r}, got {line!r}", self.line_no)
        return rest

    def expect_int(self, tag: str) -> int:
        rest = self.expect(tag)
        try:
            return int(rest)
        except ValueError:
            raise MalformedLine(f"expected an integer after {tag!r}, got {rest!r}", self.line_no)

    def floats(self, tag: str, rest: str, size: int) -> np.ndarray:
        """The ``size`` floats after ``tag`` on the line just read."""
        try:
            values = np.asarray([float(tok) for tok in rest.split(" ") if rest], dtype=np.float64)
        except ValueError:
            raise MalformedLine(f"non-numeric value after {tag!r}", self.line_no) from None
        if values.size != size:
            raise MalformedLine(
                f"{tag!r} holds {values.size} values, expected {size}", self.line_no
            )
        return values

    @property
    def line_no(self) -> int:
        return self.offset + self.pos


def model_from_lines(lines: Sequence[str], offset: int = 0):
    reader = _LineReader(lines, offset)
    if reader.next() != MODEL_HEADER:
        raise MalformedLine(f"expected model header {MODEL_HEADER!r}", reader.line_no)
    family = reader.expect("family")
    cls = BUILTIN_FAMILIES.get(family)
    if cls is None:
        raise UnsupportedFamily(f"unknown model family {family!r}")
    dim = reader.expect_int("dim")
    seed = reader.expect_int("seed")
    params = {"seed": seed}
    while True:
        line = reader.next()
        if not line.startswith("param "):
            break
        name, _, value = line[len("param ") :].partition(" ")
        if name not in _PARAM_NAMES[family] or not value:
            raise MalformedLine(f"bad {family} parameter line {line!r}", reader.line_no)
        params[name] = _parse_value(value)
    model = cls(**params)
    model.n_features_ = dim
    # `line` now holds the first line of the fitted block
    if family in ("random_forest", "extra_trees", "gradient_boosting"):
        if family == "gradient_boosting":
            head, _, rest = line.partition(" ")
            if head != "base_score":
                raise MalformedLine(f"expected base_score, got {line!r}", reader.line_no)
            model.base_score_ = float(reader.floats("base_score", rest, 1)[0])
            line = reader.next()
        head, _, rest = line.partition(" ")
        if head != "importances":
            raise MalformedLine(f"expected importances, got {line!r}", reader.line_no)
        model.feature_importances_ = reader.floats("importances", rest, dim)
        n_trees = reader.expect_int("trees")
        if n_trees < (0 if family == "gradient_boosting" else 1):
            raise MalformedLine(f"bad tree count {n_trees}", reader.line_no)
        model.nodes_ = _nodes_from(reader, n_trees, dim)
    elif family == "logistic_regression":
        head, _, rest = line.partition(" ")
        if head != "bias":
            raise MalformedLine(f"expected bias, got {line!r}", reader.line_no)
        model.intercept_ = float(reader.floats("bias", rest, 1)[0])
        model.coef_ = reader.floats("coef", reader.expect("coef"), dim)
    else:  # mlp
        h = model.hidden_units
        if type(h) is not int or h < 1 or line != f"layers {dim} {h}":
            raise MalformedLine(
                f"expected 'layers {dim} {h}' (dim, hidden_units), got {line!r}", reader.line_no
            )
        model.theta_ = reader.floats("theta", reader.expect("theta"), dim * h + 2 * h + 1)
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
    nodes = np.loadtxt(
        lines, dtype=_NODE_LINE, delimiter=" ", comments=None, quotechar=None, ndmin=1
    )
    if nodes.size != len(lines) or not np.all(nodes["tag"] == "node"):
        raise ValueError("not a node line")
    return nodes


def _nodes_from(reader: _LineReader, n_trees: int, dim: int) -> NodeTable:
    """Read ``n_trees`` tree blocks into one table, parsing their nodes at once."""
    sizes, firsts, lines = [], [], []
    for _ in range(n_trees):
        n_nodes = reader.expect_int("tree")
        if n_nodes < 1:
            raise MalformedLine(f"bad node count {n_nodes}", reader.line_no)
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
    bad = invalid_node(feature, threshold, left, right, sizes)
    wide = np.nonzero(feature >= dim)[0]
    if wide.size and (bad is None or wide[0] < bad[0]):
        bad = (int(wide[0]), f"feature index not below dim {dim}")
    if bad is not None:
        raise MalformedLine(f"bad tree node: {bad[1]}", line_of(bad[0]))
    return NodeTable(feature, threshold, right, nodes["value"], sizes)


def save_model(model, path: Union[str, Path, IO[str]]) -> None:
    text = "\n".join(model_to_lines(model)) + "\n"
    if hasattr(path, "write"):
        path.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def load_model(path: Union[str, Path, IO[str]]):
    if hasattr(path, "read"):
        text = path.read()
    else:
        with open(path, "r", encoding="utf-8", newline="\n") as fh:
            text = fh.read()
    return model_from_lines(text.splitlines())

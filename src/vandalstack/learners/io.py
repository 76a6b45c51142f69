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
a reloaded model predicts identically to the one saved.  Every number
read is ASCII text with no ``_`` and no whitespace: an integer is read by
:func:`~vandalstack.lines.parse_int`, and a float passes
:func:`~vandalstack.lines.is_plain` and ``float()``.

A tree model's ``NodeTable`` (``nodes_``) is written by :func:`_tree_lines`
and read back on whole tree-local node columns, which only the table
converts to and from its walk form.  :func:`read_model` parses and checks
a tree model's trees, a few thousand node lines at a time as they are
read, into the next rows of a :class:`TreeColumns`, which compiles the
trees of every model read into it with one constructor call:
:func:`model_from_lines` one model's, the pipeline loader a whole
stage's, each model's ``nodes_`` a range of that table.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from ..errors import MalformedLine, UnsupportedFamily
from ..lines import LineReader, Source, Target, is_plain, iter_lines, parse_int, write_lines
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
        return float(token) if is_plain(token) else token
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
        columns = model.nodes_.local()
        feature, threshold, _, value, sizes = columns
        bad = _unscorable(feature >= 0, threshold, value)
        if bad is not None:
            # the `trees` line comes next
            raise MalformedLine(
                "cannot write a non-finite tree node", len(lines) + 1 + _below_trees(sizes, bad)
            )
        lines.extend(_tree_lines(*columns))
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
        # each value is plain when the text, less its single spaces, is
        if rest and not is_plain(rest.replace(" ", "")):
            raise ValueError(rest)
        values = np.array(rest.split(" ") if rest else [], dtype=np.float64)
    except ValueError:
        raise MalformedLine(f"non-numeric value after {tag!r}", reader.line_no) from None
    if values.size != size:
        raise MalformedLine(f"{tag!r} holds {values.size} values, expected {size}", reader.line_no)
    if not np.isfinite(values).all():
        raise MalformedLine(f"non-finite value after {tag!r}", reader.line_no)
    return values


class TreeColumns:
    """The tree-local node columns of one or more tree models, filled as each is read.

    :func:`read_model` parses and checks a tree model's node lines a few
    thousand at a time, as they are read, straight into the next rows
    (:meth:`rows`), and :meth:`compile` compiles the rows filled into one
    table with one constructor call, so no model's trees are ever held
    twice.
    """

    def __init__(self):
        self.columns = (np.empty(0, np.intp), np.empty(0), np.empty(0, np.intp), np.empty(0))
        self.filled = 0
        # per model read: the model, its trees' sizes and its `trees` line
        self.models: list[tuple] = []

    def rows(self, count: int) -> tuple[np.ndarray, ...]:
        """The next ``count`` rows of the columns (feature, threshold, right, value), to be filled.

        The columns grow to hold them, by a quarter at least, with
        ``ndarray.resize``: a ``realloc``, by which the C library moves a
        large block by remapping its pages, not by copying them, so that
        no model's trees are held twice.  No view of a column may outlive
        the next call, nor :meth:`compile`, which trims the columns to
        the rows filled.
        """
        stop = self.filled + count
        if stop > self.columns[0].size:
            size = max(stop, self.columns[0].size * 5 // 4)
            for column in self.columns:
                column.resize(size, refcheck=False)
        rows = slice(self.filled, stop)
        self.filled = stop
        return tuple(column[rows] for column in self.columns)

    def compile(self) -> None:
        """Compile the trees filled in, in order, into one table, when any was.

        Each model's ``nodes_`` is its trees, a tree range of the table.  A
        tree deeper than its model's ``max_depth`` is refused, named at
        its ``tree`` line.
        """
        if not self.models:
            return
        for column in self.columns:
            column.resize(self.filled, refcheck=False)
        sizes = np.concatenate([sizes for _, sizes, _ in self.models])
        table = NodeTable(*self.columns, sizes)
        lo = 0
        for model, sizes, trees_line in self.models:
            nodes = table.trees(lo, lo + sizes.size)
            lo += sizes.size
            if model.max_depth is not None and nodes.depth > model.max_depth:
                t = int(np.argmax(nodes.depths > model.max_depth))
                raise MalformedLine(
                    f"tree {t} is {nodes.depths[t]} deep, but max_depth is {model.max_depth}",
                    trees_line + _below_trees(sizes, int(sizes[:t].sum())) - 1,
                )
            model.nodes_ = nodes


def model_from_lines(lines: Iterable[str]):
    """The model of a model file's lines, its trees (if any) compiled into its own table.

    The lines are read as a whole file: an end where a line is still due
    is named at the line past it, line 1 for no lines at all.
    """
    trees = TreeColumns()
    model, _ = read_model(LineReader(lines, whole_file=True), trees)
    trees.compile()
    return model


def read_model(reader: LineReader, trees: TreeColumns):
    """The model of the block ``reader`` reads, and the file line of each of its ``param`` lines by name.

    A tree model's trees go to ``trees``, to be compiled there.
    """
    if reader.next() != MODEL_HEADER:
        raise MalformedLine(f"expected model header {MODEL_HEADER!r}", reader.line_no)
    family = reader.expect("family")
    cls = BUILTIN_FAMILIES.get(family)
    if cls is None:
        raise MalformedLine(f"unknown model family {family!r}", reader.line_no)
    dim = reader.expect_int("dim")
    seed = reader.expect_int("seed")
    params = {"seed": seed}
    param_lines: dict[str, int] = {}
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
        param_lines.setdefault(name, reader.line_no)
    model = cls(**params)
    model.n_features_ = dim
    # `line` now holds the first line of the fitted block
    if family in ("random_forest", "extra_trees", "gradient_boosting"):
        if family == "gradient_boosting":
            model.base_score_ = float(_floats(reader, "base_score", line, 1)[0])
            line = reader.next()
        model.feature_importances_ = _floats(reader, "importances", line, dim)
        _read_trees(reader, model, trees)
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
    reader.expect_end("trailing content after model block")
    return model, param_lines


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
# node lines parsed at once: bounds the joined text and the parsed lines
# held together to a few hundred kB, whatever the size of a model
_PARSE_LINES = 4096


def _parse_nodes(lines: Sequence[str]) -> np.ndarray:
    """Node lines, at least one, parsed in bulk: a record array of :data:`_NODE_LINE`."""
    if not _bulk_parsable("\n".join(lines)):
        raise ValueError("not node lines in the file's number text")
    nodes = np.loadtxt(lines, dtype=_NODE_LINE, delimiter=" ", comments=None, quotechar=None, ndmin=1)
    if nodes.size != len(lines) or not np.all(nodes["tag"] == "node"):
        raise ValueError("not a node line")
    return nodes


def _bulk_parsable(text: str) -> bool:
    """Whether node lines, joined by LF, are fit for ``loadtxt``: it takes only what the rule does.

    ``loadtxt`` skips an empty line, and warns if every line is: a first
    one is refused here, a later one by the row count after the parse.
    It refuses ``_`` and non-ASCII digits itself, but takes whitespace
    around a field and a ``+`` before an integer.  So the text must be
    ASCII with no whitespace but the LFs and the single spaces between
    fields, and no field ``+``-signed but a float's (a threshold or
    value).  Each test runs over the whole text at once.
    """
    if not text.startswith("node ") or not text.isascii():
        return False
    if any(c in text for c in "\t\v\f\r\x1c\x1d\x1e\x1f"):
        return False
    at = text.find(" +") if "+" in text else -1
    while at >= 0:
        # the signed field's index on its line: 1, 3 and 4 are integers
        if text.count(" ", text.rfind("\n", 0, at) + 1, at + 1) in (1, 3, 4):
            return False
        at = text.find(" +", at + 1)
    return True


def _below_trees(sizes: Sequence[int], k: int) -> int:
    """How many lines below the ``trees`` line the ``k``-th node line is.

    Each tree's node lines follow its own ``tree`` line.
    """
    return k + 2 + int(np.searchsorted(np.cumsum(sizes), k, side="right"))


def _tree_lines(feature, threshold, right, value, sizes) -> list[str]:
    """The ``trees``, ``tree`` and ``node`` lines of tree-local columns, which :func:`read_model` reads.

    A node line also lists the left child: ``right - 1``, or ``-1`` at a
    leaf.  Only one tree's values are Python objects at a time.
    """
    columns = (feature, threshold, np.where(feature >= 0, right - 1, -1), right, value)
    ends = np.cumsum(sizes)
    lines = [f"trees {len(sizes)}"]
    for start, stop in zip((ends - sizes).tolist(), ends.tolist()):
        lines.append(f"tree {stop - start}")
        lines.extend(
            f"node {f} {t!r} {lo} {r} {v!r}"
            for f, t, lo, r, v in zip(*(c[start:stop].tolist() for c in columns))
        )
    return lines


def _read_trees(reader: LineReader, model, trees: TreeColumns) -> None:
    """Read the ``trees`` line and its tree blocks into ``trees``.

    The node lines are parsed whole trees at a time, as many as fit in
    :data:`_PARSE_LINES` lines (or one larger tree), so a model's lines are
    never all held.  The trees must be as many as the model's
    ``n_estimators``.
    """
    n_trees = reader.expect_int("trees")
    if n_trees != model.n_estimators:
        raise MalformedLine(f"trees must equal n_estimators {model.n_estimators}", reader.line_no)
    trees_line = reader.line_no
    sizes: list[int] = []
    piece: list[str] = []  # the node lines of trees `first` on, not parsed yet
    first = 0
    for _ in range(n_trees):
        n_nodes = reader.expect_int("tree", 1)
        at = reader.line_no
        if piece and len(piece) + n_nodes > _PARSE_LINES:
            _parse_trees(piece, sizes, first, model.n_features_, trees, trees_line)
            piece, first = [], len(sizes)
        lines = reader.take(n_nodes)
        if len(lines) < n_nodes:
            raise MalformedLine("tree runs past the end of the model block", at)
        sizes.append(n_nodes)
        piece += lines
    _parse_trees(piece, sizes, first, model.n_features_, trees, trees_line)
    trees.models.append((model, np.array(sizes, dtype=np.intp), trees_line))


def _parse_trees(
    lines: list[str], sizes: list[int], first: int, dim: int, trees: TreeColumns, trees_line: int
) -> None:
    """Parse and check the node lines of a model's trees ``first`` on into the next rows of ``trees``.

    Each feature index must be below ``dim``, and each split's threshold
    and each node's value finite.  The trees' depth is checked when they
    are compiled.
    """
    start = sum(sizes[:first])  # the model's index of their first node

    def line_of(k: int) -> int:
        # the file line of the model's k-th node line
        return trees_line + _below_trees(sizes, start + k)

    feature, threshold, right, value = trees.rows(len(lines))
    left = np.empty(len(lines), np.intp)
    # parsed a bounded number of lines at a time
    for lo in range(0, len(lines), _PARSE_LINES):
        chunk = lines[lo : lo + _PARSE_LINES]
        try:
            nodes = _parse_nodes(chunk)
        except ValueError:
            for k, line in enumerate(chunk, lo):
                try:
                    _parse_nodes([line])
                except ValueError:
                    raise MalformedLine(f"bad tree node line {line!r}", line_of(k))
            raise MalformedLine("bad tree node lines", line_of(lo))
        for column, name in zip((feature, threshold, left, right, value), _NODE_LINE.names[1:]):
            column[lo : lo + len(chunk)] = nodes[name]
    problems = [invalid_node(feature, threshold, left, right, sizes[first:])]
    wide = np.nonzero(feature >= dim)[0]
    if wide.size:
        problems.append((int(wide[0]), f"feature index not below dim {dim}"))
    unscorable = _unscorable(feature >= 0, threshold, value)
    if unscorable is not None:
        problems.append((unscorable, "a split's threshold and a node's value must be finite"))
    bad = min((problem for problem in problems if problem is not None), default=None)
    if bad is not None:
        raise MalformedLine(f"bad tree node: {bad[1]}", line_of(bad[0]))


def save_model(model, path: Target) -> None:
    write_lines(path, model_to_lines(model))


def load_model(path: Source):
    return model_from_lines(iter_lines(path))

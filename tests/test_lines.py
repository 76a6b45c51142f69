"""The line layer: one rule for what a line is, for every artifact file and protocol line."""

from __future__ import annotations

import ast
import copy
import dataclasses
import functools
import io
import os
import re
import socket
import sys
from itertools import chain
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tests._util import rev, sent
from vandalstack.config import parse_config_file
from vandalstack.corpus import format_line, load_corpus, load_labels
from vandalstack.errors import MalformedLine, UsageError
from vandalstack.evaluation import load_scores
from vandalstack.featurize import (
    FeatureSchema,
    build_schema,
    encode_matrix,
    extract_many,
    load_schema,
    save_schema,
    schema_to_lines,
)
from vandalstack.learners import LogisticRegression, ModelSpec, load_model, model_to_lines
from vandalstack import lines as line_layer
from vandalstack.lines import MAX_PROTOCOL_LINE, LineReader, iter_blocks, iter_lines, write_lines
from vandalstack.stacking import (
    StackConfig,
    fit_stack,
    load_pipeline,
    pipeline_to_lines,
    save_pipeline,
)

# the characters str.splitlines breaks at besides \n and \r
SPLITLINES_ONLY = "\v\f\x1c\x1d\x1e\x85\u2028\u2029"
SRC = Path(__file__).resolve().parents[1] / "src" / "vandalstack"


# --- iter_lines / iter_blocks / write_lines ------------------------------------

def read_all(data: bytes, undecodable=None) -> list[str]:
    return list(iter_lines(io.BytesIO(data), undecodable))


def test_a_line_ends_only_at_lf_and_one_cr_before_it_is_dropped():
    text = "a\r\nb\r\r\nc\rd\n" + "".join(f"x{c}y\n" for c in SPLITLINES_ONLY) + "last\r"
    expected = ["a", "b\r", "c\rd"] + [f"x{c}y" for c in SPLITLINES_ONLY] + ["last\r"]
    assert read_all(text.encode("utf-8")) == expected


def test_empty_sources_and_blank_lines():
    assert read_all(b"") == []
    assert read_all(b"\n") == [""]
    assert read_all(b"a") == ["a"]
    assert read_all(b"a\n\n") == ["a", ""]
    assert read_all(b"a\nb\nc\r\n") == ["a", "b", "c"]


def test_undecodable_lines_are_named_or_collected():
    data = b"ok\nbad \xff\nok\r\nalso \xfe bad\n"
    with pytest.raises(MalformedLine) as info:
        read_all(data)
    assert info.value.line_no == 2
    bad: set[int] = set()
    assert read_all(data, bad) == ["ok", "", "ok", ""]
    assert bad == {2, 4}


def test_a_socket_yields_each_line_once_complete():
    near, far = socket.socketpair()
    with near, far:
        near.settimeout(10.0)  # a read that waited for more would time out
        bad: set[int] = set()
        blocks = iter_blocks(near, bad, MAX_PROTOCOL_LINE)
        far.sendall(b"SCORE\t1\t0.5\r\nSCO")
        assert next(blocks) == ["SCORE\t1\t0.5"]
        far.sendall(b"RE\t2")
        far.sendall("\t0.25\nx\u2028y\n".encode() + b"\xff\n")
        assert next(blocks) == ["SCORE\t2\t0.25", "x\u2028y", ""]
        assert bad == {4}
        far.sendall(b"no end")
        far.shutdown(socket.SHUT_WR)
        assert list(blocks) == [["no end"]]  # the cut-off line comes at the end


@pytest.mark.parametrize("size", [1, 2, 3, line_layer._READ_BYTES])
def test_a_protocol_line_is_at_most_max_protocol_line_bytes_at_every_read_size(monkeypatch, size):
    monkeypatch.setattr(line_layer, "_READ_BYTES", size)
    longest = b"x" * (MAX_PROTOCOL_LINE - 1) + b"\n"
    for head in (b"", b"ok\n"):
        with sent(head + longest[:1000], longest[1000:] + b"ok\n") as near:
            lines = list(chain.from_iterable(iter_blocks(near, None, MAX_PROTOCOL_LINE)))
        assert lines == ["ok"] * bool(head) + ["x" * (MAX_PROTOCOL_LINE - 1), "ok"]
    # one byte more: its LF in the same write or a later one, after a line or none
    too_long = b"x" * MAX_PROTOCOL_LINE
    message = f"^protocol line longer than {MAX_PROTOCOL_LINE} bytes$"
    for pieces in ([too_long + b"\n"], [b"ok\n" + too_long + b"\n"], [too_long, b"\n"],
                   [b"ok\n" + too_long[:-3], too_long[-3:] + b"\n"]):
        with sent(*pieces) as near, pytest.raises(MalformedLine, match=message):
            list(iter_blocks(near, None, MAX_PROTOCOL_LINE))
    # and before its LF comes at all
    near, far = socket.socketpair()
    with near, far, pytest.raises(MalformedLine, match=message):
        near.settimeout(10.0)
        far.sendall(too_long)
        next(iter_blocks(near, None, MAX_PROTOCOL_LINE))


def test_write_lines_writes_lf_terminated_utf8(tmp_path):
    path = tmp_path / "out.txt"
    write_lines(path, ["a", "\u2028", ""])
    assert path.read_bytes() == "a\n\u2028\n\n".encode("utf-8")
    write_lines(path, [])
    assert path.read_bytes() == b""
    buf = io.StringIO()
    write_lines(buf, (s for s in ["x", "y"]))
    assert buf.getvalue() == "x\ny\n"
    assert list(iter_lines(path)) == []


def test_paths_that_cannot_be_opened_are_usage_errors(tmp_path):
    missing = tmp_path / "missing" / "file.txt"
    with pytest.raises(UsageError, match=re.escape(str(missing))):
        write_lines(missing, ["a"])
    with pytest.raises(UsageError, match=re.escape(str(missing))):
        list(iter_lines(missing))
    with pytest.raises(UsageError, match=re.escape(str(tmp_path))):
        list(iter_lines(tmp_path))  # a directory


def lines_then(exc, count):
    """``count`` lines, then ``exc`` raised."""
    yield from (f"new line {i}" for i in range(count))
    raise exc


@pytest.mark.parametrize("exc", [MalformedLine("refused value", 8), KeyboardInterrupt()])
def test_a_line_source_that_raises_partway_leaves_the_old_bytes_and_no_stray_file(tmp_path, exc):
    path = tmp_path / "out.txt"
    path.write_bytes(b"old\n")
    # more lines than one write takes: some were written before the raise
    with pytest.raises(type(exc)):
        write_lines(path, lines_then(exc, 10_000))
    assert path.read_bytes() == b"old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
    # a target that did not exist is not made
    with pytest.raises(type(exc)):
        write_lines(tmp_path / "new.txt", lines_then(exc, 10_000))
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_a_refused_pipeline_leaves_the_old_file(tmp_path):
    path = tmp_path / "pipeline.txt"
    pipeline = small_fit()[3]
    save_pipeline(pipeline, path)
    good = path.read_bytes()
    lines = good.decode().split("\n")
    # a refused model value is named by its line in the pipeline file: the
    # last `coef` and `param l2` lines belong to the last model section,
    # the second-stage logistic regression
    for tag, message in [
        ("coef", "cannot write a non-finite value on 'coef'"),
        ("param l2", "cannot write a parameter: l2"),
    ]:
        line_no = max(i for i, line in enumerate(lines, start=1) if line.startswith(tag + " "))
        bad = copy.deepcopy(pipeline)
        if tag == "coef":
            bad.second_models[-1].coef_[-1] = np.nan
        else:
            bad.second_models[-1].l2 = -1.0
        with pytest.raises(MalformedLine) as info:
            save_pipeline(bad, path)
        assert info.value.line_no == line_no
        assert str(info.value).startswith(f"line {line_no}: {message}")
        assert path.read_bytes() == good
        assert [p.name for p in tmp_path.iterdir()] == ["pipeline.txt"]
    assert lines[107].startswith("coef ")  # line 108


def test_a_symbolic_link_is_written_through(tmp_path):
    real = tmp_path / "real.txt"
    real.write_bytes(b"old\n")
    link = tmp_path / "link.txt"
    link.symlink_to(real)
    write_lines(link, ["new"])
    assert link.is_symlink() and os.readlink(link) == str(real)
    assert real.read_bytes() == b"new\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.txt", "real.txt"]
    # a link to a file not yet made makes that file
    dangling = tmp_path / "dangling.txt"
    dangling.symlink_to(tmp_path / "made.txt")
    write_lines(dangling, ["made"])
    assert dangling.is_symlink() and (tmp_path / "made.txt").read_bytes() == b"made\n"


def test_a_path_that_is_no_regular_file_is_written_in_place(tmp_path):
    write_lines(os.devnull, ["a", "b"])
    with pytest.raises(UsageError, match=re.escape(str(tmp_path))):
        write_lines(tmp_path, ["a"])  # a directory
    assert list(tmp_path.iterdir()) == []


def test_line_reader_positions():
    reader = LineReader(["k 3", "x", "n two"], offset=10)
    assert reader.expect_int("k", 1) == 3 and reader.line_no == 11
    with pytest.raises(MalformedLine) as info:
        reader.expect("k")
    assert info.value.line_no == 12
    with pytest.raises(MalformedLine) as info:
        reader.expect_int("n")
    assert info.value.line_no == 13
    with pytest.raises(MalformedLine) as info:
        reader.next()
    assert info.value.line_no == 13  # an embedded block ends at its last line
    reader = LineReader(["a"], whole_file=True)
    reader.next()
    with pytest.raises(MalformedLine) as info:
        reader.next()
    assert info.value.line_no == 2  # a whole file ends past its last line


def test_the_line_layer_imports_the_stdlib_alone():
    tree = ast.parse((SRC / "lines.py").read_text(encoding="utf-8"))
    absolute, relative = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            absolute.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level:
            relative.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.ImportFrom):
            absolute.add(node.module.split(".")[0])
    assert absolute and absolute <= sys.stdlib_module_names, absolute - sys.stdlib_module_names
    assert relative == {".errors"}


def test_only_the_line_layer_opens_files():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "lines.py":
            continue
        for n, line in enumerate(path.read_text(encoding="utf-8").split("\n"), start=1):
            if re.search(r"\bopen\(|\.splitlines\(", line):
                offenders.append(f"{path.relative_to(SRC)}:{n}: {line.strip()}")
    assert offenders == []


# --- every loader, one contract --------------------------------------------------

@functools.lru_cache(maxsize=None)
def small_fit():
    revisions = [
        rev(i, comment=f"SPAM {i}!!" if i % 3 == 0 else f"edit {i}", city=f"c{i % 4}")
        for i in range(1, 25)
    ]
    raws = extract_many(revisions)
    schema = build_schema(raws)
    X = encode_matrix(raws, schema)
    y = np.array([i % 3 == 0 for i in range(1, 25)])
    config = StackConfig(
        first_stage=(
            ModelSpec("logistic_regression", {"max_iter": 20}),
            ModelSpec("gradient_boosting", {"n_estimators": 2, "max_depth": 2}),
        ),
        second_stage=(ModelSpec("logistic_regression", {"max_iter": 20}),),
        k=2,
        seed=1,
    )
    pipeline = fit_stack(X, y, config, schema=schema, selected=(0, 1, 2))
    model = LogisticRegression(max_iter=20).fit(X, y)
    return revisions, schema, model, pipeline


def _corpus():
    return [format_line(r) for r in small_fit()[0][:5]]


LOADERS = {
    "corpus": (lambda src: load_corpus(src, "abort"), _corpus, lambda r: r),
    "truth": (load_labels, lambda: [f"{r.rev_id}\t{r.rev_id % 2}" for r in small_fit()[0][:5]], dict),
    "scores": (load_scores, lambda: ["1\t0.5", "2\t0.25", "3\t1", "4\t0"], dict),
    "schema": (load_schema, lambda: schema_to_lines(small_fit()[1]), lambda r: r),
    "model": (load_model, lambda: model_to_lines(small_fit()[2]), model_to_lines),
    "pipeline": (
        load_pipeline,
        lambda: list(pipeline_to_lines(small_fit()[3])),
        lambda p: list(pipeline_to_lines(p)),
    ),
    "config": (
        parse_config_file,
        lambda: ["corpus = c.tsv", "master_seed = 3", "stack.k = 4", "# done"],
        dict,
    ),
}


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_every_loader_names_a_missing_path(kind, tmp_path):
    load, _, _ = LOADERS[kind]
    missing = tmp_path / f"no-such-{kind}.txt"
    with pytest.raises(UsageError, match=re.escape(str(missing))):
        load(missing)


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_every_loader_names_a_non_utf8_line(kind, tmp_path):
    load, document, _ = LOADERS[kind]
    raw = [line.encode("utf-8") for line in document()]
    raw[2] = raw[2][:1] + b"\xff" + raw[2][1:]
    path = tmp_path / "doc.txt"
    path.write_bytes(b"".join(line + b"\n" for line in raw))
    with pytest.raises(MalformedLine) as info:
        load(path)
    assert info.value.line_no == 3


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_every_loader_reads_crlf_as_lf(kind, tmp_path):
    load, document, result = LOADERS[kind]
    lines = document()
    lf, crlf = tmp_path / "lf.txt", tmp_path / "crlf.txt"
    lf.write_bytes("".join(line + "\n" for line in lines).encode("utf-8"))
    crlf.write_bytes("".join(line + "\r\n" for line in lines).encode("utf-8"))
    assert result(load(crlf)) == result(load(lf))


def test_an_undecodable_corpus_line_is_malformed_like_any_other(tmp_path):
    lines = [line.encode("utf-8") for line in _corpus()]
    lines[1] = b"\xff" + lines[1]
    path = tmp_path / "corpus.tsv"
    path.write_bytes(b"\n".join(lines) + b"\n")
    loaded = load_corpus(path)
    assert loaded.malformed_count == 1
    assert [r.rev_id for r in loaded.revisions] == [1, 3, 4, 5]


# --- round trips with every splitlines-only separator ---------------------------

_CHARS = st.characters(exclude_categories=("Cs",), exclude_characters="\t\n\r")
TEXT = st.text(alphabet=st.one_of(st.sampled_from(SPLITLINES_ONLY), _CHARS), max_size=6)
NAME = st.text(
    alphabet=st.one_of(st.sampled_from(SPLITLINES_ONLY), st.characters(
        exclude_categories=("Cs",), exclude_characters="\t\n\r "
    )),
    min_size=1,
    max_size=6,
)
EVERY_SEPARATOR = FeatureSchema(
    ("a", "b\u2028"), tuple(sorted(("userCity", f"x{c}y") for c in SPLITLINES_ONLY))
)


@st.composite
def schemas(draw):
    numeric = draw(st.lists(NAME, min_size=3, max_size=5, unique=True))
    pairs = draw(st.lists(st.tuples(TEXT, TEXT), max_size=8, unique=True))
    return FeatureSchema(tuple(sorted(numeric)), tuple(sorted(pairs)))


@settings(max_examples=150, deadline=None)
@given(schemas())
@example(EVERY_SEPARATOR)
def test_schema_round_trips_through_bytes(schema):
    buf = io.StringIO()
    save_schema(schema, buf)
    text = buf.getvalue()
    loaded = load_schema(io.BytesIO(text.encode("utf-8")))
    assert loaded == schema
    again = io.StringIO()
    save_schema(loaded, again)
    assert again.getvalue() == text


@settings(max_examples=60, deadline=None)
@given(schemas())
@example(EVERY_SEPARATOR)
def test_pipeline_round_trips_through_bytes(schema):
    pipeline = dataclasses.replace(small_fit()[3], schema=schema)
    buf = io.StringIO()
    save_pipeline(pipeline, buf)
    text = buf.getvalue()
    loaded = load_pipeline(io.BytesIO(text.encode("utf-8")))
    assert loaded.schema == schema
    again = io.StringIO()
    save_pipeline(loaded, again)
    assert again.getvalue() == text

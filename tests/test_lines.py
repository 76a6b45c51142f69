"""The line layer: one rule for what a line is, for every artifact file."""

from __future__ import annotations

import dataclasses
import functools
import io
import re
import socket
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tests._util import rev
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
from vandalstack.lines import (
    MAX_PROTOCOL_LINE,
    LineReader,
    LineReceiver,
    decode_line,
    read_lines,
    write_lines,
)
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


# --- read_lines / decode_line / write_lines ------------------------------------

def test_a_line_ends_only_at_lf_and_one_cr_before_it_is_dropped():
    text = "a\r\nb\r\r\nc\rd\n" + "".join(f"x{c}y\n" for c in SPLITLINES_ONLY) + "last\r"
    expected = ["a", "b\r", "c\rd"] + [f"x{c}y" for c in SPLITLINES_ONLY] + ["last\r"]
    assert read_lines(io.StringIO(text)) == expected
    assert read_lines(io.BytesIO(text.encode("utf-8"))) == expected


def test_empty_sources_and_blank_lines():
    assert read_lines(io.StringIO("")) == []
    assert read_lines(io.StringIO("\n")) == [""]
    assert read_lines(io.StringIO("a")) == ["a"]
    assert read_lines(io.StringIO("a\n\n")) == ["a", ""]
    assert read_lines(["a\n", "b", "c\r\n"]) == ["a", "b", "c"]
    assert read_lines([]) == []


def test_undecodable_lines_are_named_or_collected():
    data = b"ok\nbad \xff\nok\r\nalso \xfe bad\n"
    with pytest.raises(MalformedLine) as info:
        read_lines(io.BytesIO(data))
    assert info.value.line_no == 2
    bad: set[int] = set()
    assert read_lines(io.BytesIO(data), bad) == ["ok", "", "ok", ""]
    assert bad == {2, 4}


def test_decode_line_uses_the_same_rule():
    assert decode_line(b"SCORE\t1\t0.5\r\n") == "SCORE\t1\t0.5"
    assert decode_line(b"x\r\r\n") == "x\r"
    assert decode_line("x\u2028y\n".encode("utf-8")) == "x\u2028y"
    assert decode_line(b"no end") == "no end"
    with pytest.raises(MalformedLine):
        decode_line(b"\xff\n")


def receive_all(receiver):
    """Every line up to the end of stream, one ``receive`` result per item."""
    got = []
    while (lines := receiver.receive()) is not None:
        got.append(lines)
    return got


def test_the_receiver_returns_each_line_once_complete():
    near, far = socket.socketpair()
    with near, far:
        receiver = LineReceiver(near)
        far.sendall(b"SCORE\t1\t0.5\r\nSCO")
        assert receiver.receive() == [b"SCORE\t1\t0.5\r\n"]
        far.sendall(b"RE\t2")
        assert receiver.receive() == []  # never waits for the rest
        far.sendall("\t0.25\nx\u2028y\n".encode() + b"\xff\n")
        lines = receiver.receive()
        assert lines == [b"SCORE\t2\t0.25\n", "x\u2028y\n".encode(), b"\xff\n"]
        assert [decode_line(raw) for raw in lines[:2]] == ["SCORE\t2\t0.25", "x\u2028y"]
        far.sendall(b"no end")
        far.shutdown(socket.SHUT_WR)
        assert receive_all(receiver) == [[], [b"no end"]]  # the cut-off line comes at the end


def test_the_receiver_caps_a_line_at_max_protocol_line_bytes():
    longest = b"x" * (MAX_PROTOCOL_LINE - 1) + b"\n"
    near, far = socket.socketpair()
    with near, far:
        far.sendall(longest + b"ok\n")
        far.shutdown(socket.SHUT_WR)
        assert b"".join(sum(receive_all(LineReceiver(near)), [])) == longest + b"ok\n"
    near, far = socket.socketpair()
    with near, far:
        far.sendall(b"ok\n" + b"x" * MAX_PROTOCOL_LINE + b"\n")
        far.shutdown(socket.SHUT_WR)
        with pytest.raises(MalformedLine, match=f"longer than {MAX_PROTOCOL_LINE} bytes"):
            receive_all(LineReceiver(near))


def test_write_lines_writes_lf_terminated_utf8(tmp_path):
    path = tmp_path / "out.txt"
    write_lines(path, ["a", "\u2028", ""])
    assert path.read_bytes() == "a\n\u2028\n\n".encode("utf-8")
    write_lines(path, [])
    assert path.read_bytes() == b""
    buf = io.StringIO()
    write_lines(buf, (s for s in ["x", "y"]))
    assert buf.getvalue() == "x\ny\n"
    assert read_lines(path) == []


def test_paths_that_cannot_be_opened_are_usage_errors(tmp_path):
    missing = tmp_path / "missing" / "file.txt"
    with pytest.raises(UsageError, match=re.escape(str(missing))):
        write_lines(missing, ["a"])
    with pytest.raises(UsageError, match=re.escape(str(missing))):
        read_lines(missing)
    with pytest.raises(UsageError, match=re.escape(str(tmp_path))):
        read_lines(tmp_path)  # a directory


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
    reader = LineReader(["a"], end_line=2)
    reader.next()
    with pytest.raises(MalformedLine) as info:
        reader.next()
    assert info.value.line_no == 2  # a whole file ends past its last line


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

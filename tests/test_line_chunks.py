"""The line layer reads a file or a socket a chunk at a time: the whole-file rule at any chunk size, and a load never holds its file."""

from __future__ import annotations

import functools
import io
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tests._util import rev, schema_of_width, sent, whole_file_lines
from vandalstack.corpus import format_line, load_corpus
from vandalstack import lines as line_layer
from vandalstack.errors import MalformedLine
from vandalstack.learners import ModelSpec
from vandalstack.lines import iter_lines
from vandalstack.stacking import (
    StackConfig,
    fit_stack,
    load_pipeline,
    pipeline_from_lines,
    pipeline_to_lines,
    save_pipeline,
)

SRC = Path(__file__).resolve().parents[1] / "src"
# the reads of one byte, two and three split every multibyte character and CRLF
CHUNK_SIZES = (1, 2, 3, line_layer._READ_BYTES)

# what the bytes are made of: every line end, multibyte UTF-8, a separator
# that is no line end, and bytes that are not UTF-8 (a lone lead or
# continuation byte, a cut-off sequence)
PIECES = st.sampled_from(
    [b"\n", b"\r", b"\r\n", b"a", b" ", "é".encode(), "€".encode(), "😀".encode(),
     "\u2028".encode(), b"\xff", b"\x80", b"\xc3", b"\xe2\x82"]
)
DATA = st.lists(PIECES, max_size=40).map(b"".join)


def outcome(read, source, collect: bool):
    """``read(source)``'s lines and undecodable set, or the line its MalformedLine names."""
    undecodable = set() if collect else None
    try:
        return list(read(source, undecodable)), undecodable
    except MalformedLine as exc:
        return "MalformedLine", exc.line_no


def reference(data: bytes, collect: bool):
    """:func:`outcome` of the whole-file reader on ``data``, less its one slip.

    The whole-file reader joined the lines it decoded alone, so an
    undecodable last line without an LF read as the empty text after a
    last LF, and was dropped though collected.  The chunked reader yields
    it, as the empty line it stands for.
    """
    expected = outcome(whole_file_lines, io.BytesIO(data), collect)
    last = data.count(b"\n") + 1
    if collect and not data.endswith(b"\n") and last in expected[1]:
        return expected[0] + [""], expected[1]
    return expected


def at_every_chunk_size(read):
    """``read()`` at each of :data:`CHUNK_SIZES`."""
    results = []
    for size in CHUNK_SIZES:
        with mock.patch.object(line_layer, "_READ_BYTES", size):
            results.append(read())
    return results


@settings(max_examples=300, deadline=None)
@given(DATA, st.booleans(), st.lists(st.integers(0, 60), max_size=6))
@example(b"", False, [])
@example(b"\n", False, [])
@example(b"a\r\nb\r\r\nc\rlast\r", False, [])
@example(b"ok\nbad \xff\nok\r\nalso \xfe bad\n", True, [])
@example(b"\xe2\x82\n\xac", True, [])
@example(b"SCORE\t1\t0.5\r\nx\r\r\n" + "x\u2028y\n".encode() + b"no end", False, [5, 14])
@example(b"ok\n\xff\n", False, [3])
@example(b"ok\n\xff\n", True, [4])
def test_chunked_lines_are_the_whole_file_lines(data, collect, cuts):
    expected = reference(data, collect)
    assert at_every_chunk_size(lambda: outcome(iter_lines, io.BytesIO(data), collect)) == [expected] * 4
    # the same bytes through a socket, written in pieces cut anywhere
    bounds = [0, *sorted(cut % (len(data) + 1) for cut in cuts), len(data)]
    pieces = [data[lo:hi] for lo, hi in zip(bounds, bounds[1:])]

    def from_socket():
        with sent(*pieces) as near:
            return outcome(iter_lines, near, collect)

    assert at_every_chunk_size(from_socket) == [expected] * 4


@pytest.mark.parametrize(
    "data",
    [b"", b"one", b"a\r\nb\n\n", b"x" * 200 + b"\r\n" + b"y" * 70, "é €\n".encode() * 30, b"ok\n\xff\nok"],
)
@pytest.mark.parametrize("collect", [False, True])
def test_a_path_reads_as_the_whole_file_did(tmp_path, data, collect):
    path = tmp_path / "lines.txt"
    path.write_bytes(data)
    expected = reference(data, collect)
    assert at_every_chunk_size(lambda: outcome(iter_lines, path, collect)) == [expected] * 4


def test_a_pipeline_loads_the_same_at_every_chunk_size(tmp_path):
    pipeline = fitted_pipeline(120, 4)
    path = tmp_path / "pipeline.txt"
    save_pipeline(pipeline, path)
    written = list(pipeline_to_lines(pipeline))
    loaded = at_every_chunk_size(lambda: list(pipeline_to_lines(load_pipeline(path))))
    assert loaded == [written] * 4


@functools.lru_cache(maxsize=None)
def fitted_pipeline(n: int, n_trees: int):
    """A stack of a random forest of ``n_trees`` and a logistic regression fitted on ``n`` noisy rows."""
    rng = np.random.default_rng(3)
    d = 6
    X = rng.normal(size=(n, d))
    y = (X[:, 0] + X[:, 1] * X[:, 2] + rng.normal(size=n)) > 0
    config = StackConfig(
        first_stage=(
            ModelSpec("random_forest", {"n_estimators": n_trees}),
            ModelSpec("logistic_regression", {"max_iter": 20}),
        ),
        second_stage=(ModelSpec("logistic_regression", {"max_iter": 20}),),
        k=2,
        seed=1,
    )
    return fit_stack(X, y, config, schema=schema_of_width(d), selected=tuple(range(d)))


def test_loading_a_pipeline_never_holds_its_file(tmp_path):
    # about 1.4 MB of pipeline file, whose trees hold about 1.5 MB loaded
    path = tmp_path / "pipeline.txt"
    save_pipeline(fitted_pipeline(1500, 100), path)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        pipeline = load_pipeline(path)
        held, peak = (value - before for value in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert pipeline.fold_models[0][0].nodes_.n_trees == 100
    # the file as bytes, as text and as a list of lines held at once read about 5x
    assert peak <= 2 * held, (peak, held)


def test_scoring_a_loaded_pipeline_never_imports_the_grower(tmp_path):
    path = tmp_path / "pipeline.txt"
    save_pipeline(fitted_pipeline(120, 4), path)
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from vandalstack.stacking import load_pipeline, predict_stack_batch\n"
        f"pipeline = load_pipeline({str(path)!r})\n"
        "predict_stack_batch(pipeline, np.zeros((1, pipeline.schema.total_dim)))\n"
        "print('vandalstack.learners.grower' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


def test_an_undecodable_last_line_without_its_lf_is_malformed_like_any_other(tmp_path):
    path = tmp_path / "corpus.tsv"
    path.write_bytes(format_line(rev(1, comment="edit")).encode("utf-8") + b"\n\xff")
    loaded = load_corpus(path)
    assert [r.rev_id for r in loaded.revisions] == [1] and loaded.malformed_count == 1


@pytest.mark.parametrize("cut", [1, 2, 15, 40])
def test_a_pipeline_cut_inside_a_node_line_is_a_truncated_section(tmp_path, cut):
    lines = list(pipeline_to_lines(fitted_pipeline(120, 4)))
    header = max(i for i, line in enumerate(lines) if line.startswith("section model first 0 "))
    last_node = header + int(lines[header].rsplit(" ", 1)[1]) - 1  # the section's line before its `end`
    assert lines[last_node].startswith("node ")
    text = "".join(line + "\n" for line in lines[:last_node]) + lines[last_node][:cut]
    path = tmp_path / "pipeline.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(MalformedLine) as info:
        load_pipeline(path)
    assert (info.value.reason, info.value.line_no) == (f"truncated section {lines[header][8:].rsplit(' ', 1)[0]!r}", header + 1)


def test_a_pipeline_cut_anywhere_in_a_section_is_that_section_truncated(tmp_path):
    # as when the file was read whole: a section the file ends within is
    # truncated, whatever fault its first lines show (a cut line, or none)
    lines = list(pipeline_to_lines(fitted_pipeline(120, 4)))
    path = tmp_path / "pipeline.txt"
    checked = 0
    for header, line in enumerate(lines):
        if not line.startswith("section "):
            continue
        name, count = line[len("section ") :].rsplit(" ", 1)
        for cut in range(header + 1, header + 1 + int(count)):
            # the file ends before line `cut`, or inside it when it is not the section's last
            texts = ["".join(row + "\n" for row in lines[:cut])]
            kept = [lines[:cut]]
            if cut < header + int(count):
                part = lines[cut][: len(lines[cut]) // 2]
                texts.append(texts[0] + part)
                kept.append(lines[:cut] + [part])
            for text, rows in zip(texts, kept):
                path.write_text(text, encoding="utf-8")
                # a path, a list of lines and an iterator over them take one path
                for load in (lambda: load_pipeline(path), lambda: pipeline_from_lines(rows),
                             lambda: pipeline_from_lines(iter(rows))):
                    with pytest.raises(MalformedLine) as info:
                        load()
                    assert (info.value.reason, info.value.line_no) == (f"truncated section {name!r}", header + 1)
                checked += 1
    assert checked > 400


@pytest.mark.parametrize("section", ["schema", "model first 0 0"])
def test_a_section_count_past_any_index_is_a_truncated_section(tmp_path, section):
    lines = list(pipeline_to_lines(fitted_pipeline(120, 4)))
    header = next(i for i, line in enumerate(lines) if line.startswith(f"section {section} "))
    lines[header] = f"section {section} {'9' * 30}"
    path = tmp_path / "pipeline.txt"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    for load in (lambda: load_pipeline(path), lambda: pipeline_from_lines(lines)):
        with pytest.raises(MalformedLine) as info:
            load()
        assert (info.value.reason, info.value.line_no) == (f"truncated section {section!r}", header + 1)

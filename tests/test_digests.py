"""``tools/digests.py``: the byte check of schema, pipeline, scores and reports, streamed or not."""

import hashlib
import importlib.util
from pathlib import Path

import numpy as np
from perfbench.corpusgen import CorpusSpec, write_labeled
from vandalstack import cli

TOOL = Path(__file__).resolve().parents[1] / "tools" / "digests.py"
SMALL = CorpusSpec(n=1000, holdout=0.5, q=0.004)


def load_tool():
    spec = importlib.util.spec_from_file_location("digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digests_are_the_sha256_of_the_files_the_commands_write(tmp_path, capsys):
    tool = load_tool()
    got = tool.digests(3, SMALL)
    assert capsys.readouterr().out == ""  # the commands' own output goes to stderr
    write_labeled(SMALL, 3, tmp_path)
    d = str(tmp_path)
    assert cli.main(["train-stack", "--corpus", f"{d}/train_corpus.tsv",
                     "--truth", f"{d}/train_truth.tsv", "--schema", f"{d}/schema.txt",
                     "--pipeline", f"{d}/pipeline.txt"]) == 0
    assert cli.main(["predict", "--pipeline", f"{d}/pipeline.txt",
                     "--input", f"{d}/test_corpus.tsv", "--output", f"{d}/scores.tsv"]) == 0
    assert cli.main(["analyze", "--scores", f"{d}/scores.tsv", "--truth", f"{d}/test_truth.tsv",
                     "--corpus", f"{d}/test_corpus.tsv", "--schema", f"{d}/schema.txt",
                     "--out-dir", f"{d}/analysis"]) == 0
    # the session's report is what `evaluate --report` makes of the streamed scores
    tool.stream(tmp_path / "pipeline.txt", tmp_path / "test_corpus.tsv",
                tmp_path / "test_truth.tsv", tmp_path)
    assert cli.main(["evaluate", "--scores", f"{d}/stream.tsv", "--truth", f"{d}/test_truth.tsv",
                     "--report", f"{d}/evaluated.txt"]) == 0
    evaluated = (tmp_path / "evaluated.txt").read_bytes()
    assert (tmp_path / "session.txt").read_bytes() == evaluated
    want = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("schema.txt", "pipeline.txt", "scores.tsv")
    }
    analysis = b"".join(
        (tmp_path / "analysis" / name).read_bytes()
        for name in ("report.txt", "histogram.tsv", "errors.tsv", "mds.tsv")
    )
    report = hashlib.sha256(analysis + evaluated).hexdigest()
    assert got == {**want, "stream.tsv": want["scores.tsv"], "report": report}


def section_lines(lines, stage, specs):
    """The ``section model <stage> <spec> <fold> <count>`` ... ``end`` lines of ``specs``, in order."""
    kept, inside = [], False
    for line in lines:
        if line.startswith("section "):
            words = line.split()
            inside = words[1:3] == ["model", stage] and int(words[3]) in specs
        if inside:
            kept.append(line)
            inside = line != "end"
    return kept


def test_grown_tree_sections_and_selection_are_pinned(tmp_path):
    # The first-stage trees (extra trees 1-2, gradient boosting 3-4) and the
    # selection take no BLAS product, so their bytes are the same on every
    # host.  The extra trees draw by the keyed rule of vandalstack.rng, which
    # depends on no library version; the boosting trees and the selection
    # draw nothing, and their digests are those the per-node grower wrote.
    write_labeled(SMALL, 3, tmp_path)
    d = str(tmp_path)
    assert cli.main(["train-stack", "--corpus", f"{d}/train_corpus.tsv",
                     "--truth", f"{d}/train_truth.tsv", "--schema", f"{d}/schema.txt",
                     "--pipeline", f"{d}/pipeline.txt"]) == 0
    lines = (tmp_path / "pipeline.txt").read_text().splitlines()
    for specs, count, digest in (
        ({1, 2}, 7036, "a0e95fe2c85ae89cd42eb1596acc869230122961450d84e642fdbfffa40fb438"),
        ({3, 4}, 5472, "6bada8cc8e267f164b99bc9cd7b84738493dafc73b628df6f3e1836a13e411d5"),
    ):
        trees = section_lines(lines, "first", specs)
        assert len(trees) == count
        assert hashlib.sha256(("\n".join(trees) + "\n").encode()).hexdigest() == digest
    [selected] = [line for line in lines if line.startswith("selected ")]
    assert hashlib.sha256((selected + "\n").encode()).hexdigest() == (
        "196dbea5eef6743327d16ba1331d433f762acb7a303b95c432d11441f1919136"
    )


def test_the_context_line_comes_before_the_seed_lines(monkeypatch, capsys):
    tool = load_tool()
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.setenv("OPENBLAS_CORETYPE", "Haswell")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    want = f"context numpy {np.__version__} blas {blas['name']} {blas['version']}"
    assert tool.context() == want + " OPENBLAS_CORETYPE=Haswell"
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    assert tool.context() == want + " OPENBLAS_NUM_THREADS=1 OPENBLAS_CORETYPE=Haswell"
    sums = {name: name.upper() for name in tool.OUTPUTS}
    monkeypatch.setattr(tool, "digests", lambda seed: sums)
    assert tool.main(["5"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        tool.context(),
        "seed 5 schema SCHEMA.TXT pipeline PIPELINE.TXT scores SCORES.TSV"
        " stream STREAM.TSV report REPORT",
    ]

"""The command-line surface, end to end on small corpora."""

import ast
import dataclasses
import os
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest

from tests._util import labeled
from vandalstack import cli
from vandalstack.benchmark import make_benchmark, write_split
from vandalstack.corpus import load_corpus, load_labels, write_corpus, write_labels
from vandalstack.featurize import load_schema
from vandalstack.learners.io import load_model
from vandalstack.serve import format_score


def write_tiny_corpus(tmp_path, n_pos=5, n_neg=100):
    examples = []
    for i in range(1, n_pos + n_neg + 1):
        vandal = i <= n_pos
        comment = f"SPAM {i}!!!" if vandal else f"fixed label number {i}"
        examples.append(labeled(i, vandal, comment=comment, registered=not vandal))
    corpus = tmp_path / "corpus.tsv"
    truth = tmp_path / "truth.tsv"
    write_corpus([ex.revision for ex in examples], corpus)
    write_labels(examples, truth)
    return corpus, truth, examples


@pytest.fixture(scope="module")
def stack_dir(tmp_path_factory):
    """A small trained pipeline shared by the predict/serve tests."""
    root = tmp_path_factory.mktemp("cli-stack")
    examples = make_benchmark(n=300, positive_rate=0.1, seed=3)
    write_split(examples, root, "small")
    rc = cli.main(
        [
            "train-stack",
            "--corpus", str(root / "small_corpus.tsv"),
            "--truth", str(root / "small_truth.tsv"),
            "--schema", str(root / "schema.txt"),
            "--pipeline", str(root / "pipeline.txt"),
            "--fraction", "1/3",
        ]
    )
    assert rc == 0
    return root


def test_version_string(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    out = capsys.readouterr().out.strip()
    assert out == "vandalstack 0.1.0 (schema v1, model v1, pipeline v1)"


def test_ingest_counts_and_normalised_output(tmp_path, capsys):
    corpus, truth, examples = write_tiny_corpus(tmp_path, n_pos=2, n_neg=3)
    # one malformed line and one unlabeled revision on top
    with open(corpus, "a", encoding="utf-8") as fh:
        fh.write("not a revision line\n")
        fh.write("999\tunlabeled edit\t1\t0,,,,,,,\n")
    out_copy = tmp_path / "normalised.tsv"
    rc = cli.main(
        ["ingest", "--corpus", str(corpus), "--truth", str(truth),
         "--output", str(out_copy)]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "revisions 6" in out
    assert "malformed 1" in out
    assert "labeled 5" in out
    assert "unlabeled 1" in out
    assert "positives 2" in out
    assert "negatives 3" in out
    assert len(load_corpus(out_copy).revisions) == 6


def test_ingest_abort_on_malformed(tmp_path):
    corpus, truth, _ = write_tiny_corpus(tmp_path, n_pos=1, n_neg=2)
    with open(corpus, "a", encoding="utf-8") as fh:
        fh.write("garbage\n")
    rc = cli.main(
        ["ingest", "--corpus", str(corpus), "--truth", str(truth),
         "--malformed", "abort"]
    )
    assert rc == 1  # MalformedLine is an operational error, not a usage error


def test_sample_undersamples_negatives(tmp_path, capsys):
    corpus, truth, _ = write_tiny_corpus(tmp_path, n_pos=5, n_neg=100)
    out_corpus = tmp_path / "sampled_corpus.tsv"
    out_truth = tmp_path / "sampled_truth.tsv"
    rc = cli.main(
        ["sample", "--corpus", str(corpus), "--truth", str(truth),
         "--output-corpus", str(out_corpus), "--output-truth", str(out_truth),
         "--fraction", "1/50", "--seed", "4"]
    )
    assert rc == 0
    assert "kept 7 examples (5 positive)" in capsys.readouterr().out
    labels = load_labels(out_truth)
    assert sum(labels.values()) == 5
    assert len(labels) == 7
    assert len(load_corpus(out_corpus).revisions) == 7


def test_sample_keeps_by_default_the_rows_train_stack_keeps(tmp_path):
    examples = make_benchmark(n=4000, positive_rate=0.02, seed=3)
    write_split(examples, tmp_path, "bench")
    corpus, truth = tmp_path / "bench_corpus.tsv", tmp_path / "bench_truth.tsv"

    def sample(*flags):
        out = tmp_path / "sampled_truth.tsv"
        assert cli.main(
            ["sample", "--corpus", str(corpus), "--truth", str(truth), *flags,
             "--output-corpus", str(tmp_path / "sampled_corpus.tsv"), "--output-truth", str(out)]
        ) == 0
        return list(load_labels(out))

    # the sampling seed derives from master seed 0, as in train-stack
    kept = cli._reduce(examples, cli.load_run_config(None, {}))
    assert sample() == [ex.revision.rev_id for ex in kept]
    assert sample("--seed", "0") != sample()


def test_train_writes_loadable_model(tmp_path):
    corpus, truth, _ = write_tiny_corpus(tmp_path, n_pos=10, n_neg=30)
    out = tmp_path / "model.txt"
    rc = cli.main(
        ["train", "--corpus", str(corpus), "--truth", str(truth),
         "--model", "extra_trees", "--output", str(out)]
    )
    assert rc == 0
    model = load_model(out)
    assert type(model).__name__ == "ExtraTreesClassifier"


def test_train_stack_is_reproducible(stack_dir):
    first_schema = (stack_dir / "schema.txt").read_bytes()
    first_pipeline = (stack_dir / "pipeline.txt").read_bytes()
    rc = cli.main(
        [
            "train-stack",
            "--corpus", str(stack_dir / "small_corpus.tsv"),
            "--truth", str(stack_dir / "small_truth.tsv"),
            "--schema", str(stack_dir / "schema2.txt"),
            "--pipeline", str(stack_dir / "pipeline2.txt"),
            "--fraction", "1/3",
        ]
    )
    assert rc == 0
    assert (stack_dir / "schema2.txt").read_bytes() == first_schema
    assert (stack_dir / "pipeline2.txt").read_bytes() == first_pipeline


def test_a_train_stack_that_fails_at_selection_leaves_schema_and_pipeline_unchanged(
    stack_dir, tmp_path, capsys
):
    schema, pipeline = tmp_path / "schema.txt", tmp_path / "pipeline.txt"
    schema.write_bytes(b"old schema\n")
    pipeline.write_bytes(b"old pipeline\n")
    rc = cli.main(
        [
            "train-stack",
            "--corpus", str(stack_dir / "small_corpus.tsv"),
            "--truth", str(stack_dir / "small_truth.tsv"),
            "--schema", str(schema),
            "--pipeline", str(pipeline),
            "--fraction", "1/3",
            "--threshold", "2",  # no importance reaches 2
        ]
    )
    assert rc == 2
    assert "feature selection removed every column" in capsys.readouterr().err
    assert schema.read_bytes() == b"old schema\n"
    assert pipeline.read_bytes() == b"old pipeline\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pipeline.txt", "schema.txt"]


def test_train_stack_requires_paths(tmp_path):
    assert cli.main(["train-stack", "--pipeline", str(tmp_path / "p.txt")]) == 2


def test_predict_output_format_and_determinism(stack_dir):
    scores_path = stack_dir / "scores.tsv"
    rc = cli.main(
        ["predict", "--pipeline", str(stack_dir / "pipeline.txt"),
         "--input", str(stack_dir / "small_corpus.tsv"),
         "--output", str(scores_path)]
    )
    assert rc == 0
    lines = scores_path.read_text().splitlines()
    assert len(lines) == 300
    for line in lines:
        rev_id, score_text = line.split("\t")
        assert rev_id.isdigit()
        assert score_text == format_score(float(score_text)) or 0 <= float(score_text) <= 1
        assert 0.0 <= float(score_text) <= 1.0
    again = stack_dir / "scores-again.tsv"
    rc = cli.main(
        ["predict", "--pipeline", str(stack_dir / "pipeline.txt"),
         "--input", str(stack_dir / "small_corpus.tsv"),
         "--output", str(again)]
    )
    assert rc == 0
    assert again.read_bytes() == scores_path.read_bytes()


def test_predict_rejects_pipeline_garbage(tmp_path):
    bad = tmp_path / "pipeline.txt"
    bad.write_text("not a pipeline\n")
    out = tmp_path / "scores.tsv"
    corpus = tmp_path / "c.tsv"
    corpus.write_text("1\thello\t0\t1,,,,,,,\n")
    rc = cli.main(
        ["predict", "--pipeline", str(bad), "--input", str(corpus),
         "--output", str(out)]
    )
    assert rc == 1


def test_predict_on_an_empty_corpus_scores_nothing(stack_dir, tmp_path, capsys):
    empty = tmp_path / "empty.tsv"
    empty.write_text("")
    out = tmp_path / "scores.tsv"
    rc = cli.main(
        ["predict", "--pipeline", str(stack_dir / "pipeline.txt"),
         "--input", str(empty), "--output", str(out)]
    )
    assert rc == 0
    assert f"scored 0 revisions -> {out}" in capsys.readouterr().out
    assert out.read_bytes() == b""


NO_SCIPY_SESSION = """
import socket, sys, threading, time
from pathlib import Path
from vandalstack import cli
from vandalstack.benchmark import make_benchmark, write_split

root = Path(sys.argv[1])
write_split(make_benchmark(n=300, positive_rate=0.1, seed=3), root, "small")
data = ["--corpus", str(root / "small_corpus.tsv"), "--truth", str(root / "small_truth.tsv")]
pipeline = str(root / "pipeline.txt")
assert cli.main(["train-stack", *data, "--schema", str(root / "schema.txt"),
                 "--pipeline", pipeline, "--fraction", "1/3"]) == 0
assert cli.main(["predict", "--pipeline", pipeline, "--input", str(root / "small_corpus.tsv"),
                 "--output", str(root / "scores.tsv")]) == 0
assert cli.main(["evaluate", "--scores", str(root / "scores.tsv"), "--truth", data[3],
                 "--report", str(root / "report.txt"), "--mds", str(root / "mds.tsv"),
                 "--corpus", data[1], "--schema", str(root / "schema.txt"),
                 "--threshold", "0.99"]) == 0
probe = socket.socket()
probe.bind(("127.0.0.1", 0))
port = probe.getsockname()[1]
probe.close()
served = {}
server = threading.Thread(target=lambda: served.update(rc=cli.main(
    ["serve", *data, "--listen", f"127.0.0.1:{port}", "--timeout", "30",
     "--report", str(root / "serve.txt")])), daemon=True)
server.start()
for _ in range(100):
    if cli.main(["client", "--pipeline", pipeline, "--connect", f"127.0.0.1:{port}",
                 "--timeout", "30"]) == 0:
        break
    time.sleep(0.1)
server.join(timeout=30)
assert served.get("rc") == 0
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_no_command_imports_scipy(tmp_path):
    src = Path(cli.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(NO_SCIPY_SESSION), str(tmp_path)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "mds.tsv").read_text() and (tmp_path / "serve.txt").read_text()


def test_no_learner_module_imports_scipy():
    learners = Path(cli.__file__).resolve().parent / "learners"
    offenders = []
    for path in sorted(learners.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            offenders += [f"{path.name}: {name}" for name in names if name.split(".")[0] == "scipy"]
    assert offenders == []


def write_scores(path, labels, good=0.9, bad=0.1):
    with open(path, "w", encoding="utf-8") as fh:
        for rev_id, label in sorted(labels.items()):
            fh.write(f"{rev_id}\t{good if label else bad}\n")


def test_evaluate_reports_auc(tmp_path, capsys):
    corpus, truth, _ = write_tiny_corpus(tmp_path, n_pos=3, n_neg=5)
    labels = load_labels(truth)
    scores = tmp_path / "scores.tsv"
    write_scores(scores, labels)
    report_path = tmp_path / "report.txt"
    rc = cli.main(
        ["evaluate", "--scores", str(scores), "--truth", str(truth),
         "--report", str(report_path)]
    )
    assert rc == 0
    assert "auc 1.0" in capsys.readouterr().out
    text = report_path.read_text()
    assert "examples 8" in text
    assert "auc 1.0" in text
    assert "fp_total 0" in text
    assert "histogram" in text
    assert "fp_distinct" not in text  # no vectors available


def test_evaluate_mds_needs_corpus_and_schema(tmp_path):
    corpus, truth, _ = write_tiny_corpus(tmp_path, n_pos=2, n_neg=2)
    labels = load_labels(truth)
    scores = tmp_path / "scores.tsv"
    write_scores(scores, labels)
    rc = cli.main(
        ["evaluate", "--scores", str(scores), "--truth", str(truth),
         "--report", str(tmp_path / "r.txt"), "--mds", str(tmp_path / "m.tsv")]
    )
    assert rc == 2


@pytest.mark.parametrize("bad", ["nan", "inf", "1.5", "-0.5"])
def test_evaluate_rejects_a_score_outside_the_unit_interval(tmp_path, capsys, bad):
    corpus, truth, _ = write_tiny_corpus(tmp_path, n_pos=3, n_neg=5)
    scores = tmp_path / "scores.tsv"
    write_scores(scores, load_labels(truth))
    lines = scores.read_text().splitlines()
    lines[1] = lines[1].split("\t")[0] + "\t" + bad
    scores.write_text("\n".join(lines) + "\n")
    # a typed error is reported and exits 1; anything else would raise here
    rc = cli.main(
        ["evaluate", "--scores", str(scores), "--truth", str(truth),
         "--report", str(tmp_path / "report.txt")]
    )
    assert rc == 1
    assert "error: line 2: bad score" in capsys.readouterr().err
    assert not (tmp_path / "report.txt").exists()


def test_evaluate_with_vectors_writes_mds_and_distinct_counts(stack_dir, tmp_path):
    labels = load_labels(stack_dir / "small_truth.tsv")
    scores = tmp_path / "scores.tsv"
    # misscore some examples so FP/FN sets are non-empty
    with open(scores, "w", encoding="utf-8") as fh:
        for rev_id, label in sorted(labels.items()):
            score = 0.2 if label else 0.8  # everything on the wrong side
            fh.write(f"{rev_id}\t{score}\n")
    report_path = tmp_path / "report.txt"
    mds_path = tmp_path / "mds.tsv"
    rc = cli.main(
        ["evaluate", "--scores", str(scores),
         "--truth", str(stack_dir / "small_truth.tsv"),
         "--report", str(report_path),
         "--corpus", str(stack_dir / "small_corpus.tsv"),
         "--schema", str(stack_dir / "schema.txt"),
         "--mds", str(mds_path)]
    )
    assert rc == 0
    text = report_path.read_text()
    assert "fp_distinct" in text and "fn_distinct" in text
    rows = [line.split("\t") for line in mds_path.read_text().splitlines()]
    assert rows, "mds file should not be empty"
    assert all(len(row) == 4 and row[3] in ("FP", "FN") for row in rows)
    for row in rows:
        float(row[1]), float(row[2])  # parseable coordinates


def test_analyze_writes_the_four_files(stack_dir, tmp_path):
    labels = load_labels(stack_dir / "small_truth.tsv")
    scores = tmp_path / "scores.tsv"
    with open(scores, "w", encoding="utf-8") as fh:
        for rev_id, label in sorted(labels.items()):
            fh.write(f"{rev_id}\t{0.2 if label else 0.8}\n")
    out_dir = tmp_path / "analysis"
    rc = cli.main(
        ["analyze", "--scores", str(scores),
         "--truth", str(stack_dir / "small_truth.tsv"),
         "--out-dir", str(out_dir),
         "--corpus", str(stack_dir / "small_corpus.tsv"),
         "--schema", str(stack_dir / "schema.txt")]
    )
    assert rc == 0
    assert (out_dir / "report.txt").exists()
    assert (out_dir / "histogram.tsv").exists()
    assert (out_dir / "errors.tsv").exists()
    assert (out_dir / "mds.tsv").exists()
    histogram_lines = (out_dir / "histogram.tsv").read_text().splitlines()
    assert len(histogram_lines) == 20
    error_lines = (out_dir / "errors.tsv").read_text().splitlines()
    assert all(line.split("\t")[1] in ("FP", "FN") for line in error_lines)


def test_analyze_without_vectors_skips_mds(tmp_path):
    corpus, truth, _ = write_tiny_corpus(tmp_path, n_pos=2, n_neg=2)
    labels = load_labels(truth)
    scores = tmp_path / "scores.tsv"
    write_scores(scores, labels)
    out_dir = tmp_path / "analysis"
    rc = cli.main(
        ["analyze", "--scores", str(scores), "--truth", str(truth),
         "--out-dir", str(out_dir)]
    )
    assert rc == 0
    assert (out_dir / "report.txt").exists()
    assert not (out_dir / "mds.tsv").exists()


def test_evaluate_and_analyze_write_the_same_report_and_mds(stack_dir, tmp_path, capsys):
    labels = load_labels(stack_dir / "small_truth.tsv")
    scores = tmp_path / "scores.tsv"
    with open(scores, "w", encoding="utf-8") as fh:
        for rev_id, label in sorted(labels.items()):
            fh.write(f"{rev_id}\t{0.3 if label == (rev_id % 4 == 0) else 0.7}\n")
    common = ["--scores", str(scores), "--truth", str(stack_dir / "small_truth.tsv"),
              "--threshold", "0.6"]
    vectors = ["--corpus", str(stack_dir / "small_corpus.tsv"),
               "--schema", str(stack_dir / "schema.txt")]
    report, mds, out_dir = tmp_path / "report.txt", tmp_path / "mds.tsv", tmp_path / "d"
    capsys.readouterr()
    assert cli.main(["evaluate", *common, "--report", str(report), "--mds", str(mds), *vectors]) == 0
    evaluated = capsys.readouterr().out
    assert cli.main(["analyze", *common, "--out-dir", str(out_dir), *vectors]) == 0
    assert capsys.readouterr().out == evaluated + f"wrote {out_dir}\n"
    assert report.read_bytes() == (out_dir / "report.txt").read_bytes()
    assert mds.read_bytes() == (out_dir / "mds.tsv").read_bytes()
    assert "fp_distinct" in report.read_text() and mds.read_text()

    bare = tmp_path / "bare"
    assert cli.main(["analyze", *common, "--out-dir", str(bare), "--schema",
                     str(stack_dir / "schema.txt")]) == 0
    assert sorted(p.name for p in bare.iterdir()) == ["errors.tsv", "histogram.tsv", "report.txt"]


def test_serve_and_client_commands(stack_dir, tmp_path):
    report_path = tmp_path / "serve-report.txt"
    listen = "127.0.0.1:0"
    result_holder = {}

    # the serve command prints the bound address to stderr; to avoid racing
    # on it, bind a fixed free port first by asking the OS for one
    import socket

    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()

    def serve():
        result_holder["rc"] = cli.main(
            ["serve", "--corpus", str(stack_dir / "small_corpus.tsv"),
             "--truth", str(stack_dir / "small_truth.tsv"),
             "--listen", f"127.0.0.1:{port}", "--window", "8",
             "--timeout", "30", "--report", str(report_path)]
        )

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()

    import time

    rc = None
    for _ in range(100):  # wait for the listener; refusals surface as rc 1
        rc = cli.main(
            ["client", "--pipeline", str(stack_dir / "pipeline.txt"),
             "--connect", f"127.0.0.1:{port}", "--timeout", "30"]
        )
        if rc == 0:
            break
        time.sleep(0.1)
    thread.join(timeout=30)
    assert not thread.is_alive()
    assert rc == 0
    assert result_holder["rc"] == 0
    text = report_path.read_text()
    assert text.startswith("examples 300")
    assert "auc" in text


@pytest.mark.parametrize("n_pos, n_neg", [(0, 5), (4, 0)])
def test_serve_refuses_a_one_class_session_before_binding(tmp_path, capsys, n_pos, n_neg):
    corpus, truth, _ = write_tiny_corpus(tmp_path, n_pos=n_pos, n_neg=n_neg)
    rc = cli.main(
        ["serve", "--corpus", str(corpus), "--truth", str(truth),
         "--listen", "127.0.0.1:0", "--timeout", "5"]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{n_pos} positive and {n_neg} negative" in err
    assert "listening on" not in err


def test_train_stack_and_predict_with_a_line_separator_in_a_city(tmp_path):
    examples = [
        dataclasses.replace(
            ex, revision=dataclasses.replace(ex.revision, city=f"Sao\u2028Paulo{i % 2}")
        )
        for i, ex in enumerate(make_benchmark(n=300, positive_rate=0.1, seed=3))
    ]
    write_split(examples, tmp_path, "odd")
    pipeline, scores = tmp_path / "pipeline.txt", tmp_path / "scores.tsv"
    assert cli.main(
        ["train-stack", "--corpus", str(tmp_path / "odd_corpus.tsv"),
         "--truth", str(tmp_path / "odd_truth.tsv"), "--pipeline", str(pipeline),
         "--fraction", "1/3"]
    ) == 0
    assert ("userCity", "Sao\u2028Paulo1") in load_schema(tmp_path / "pipeline.txt.schema").categorical_vocab
    assert cli.main(
        ["predict", "--pipeline", str(pipeline), "--input", str(tmp_path / "odd_corpus.tsv"),
         "--output", str(scores)]
    ) == 0
    assert len(scores.read_text(encoding="utf-8").split("\n")) == 301


def test_paths_that_cannot_be_opened_exit_2_naming_the_path(stack_dir, tmp_path, capsys):
    missing = tmp_path / "nope.tsv"
    assert cli.main(
        ["predict", "--pipeline", str(stack_dir / "pipeline.txt"), "--input", str(missing),
         "--output", str(tmp_path / "scores.tsv")]
    ) == 2
    assert str(missing) in capsys.readouterr().err
    unwritable = tmp_path / "no-dir" / "scores.tsv"
    assert cli.main(
        ["predict", "--pipeline", str(stack_dir / "pipeline.txt"),
         "--input", str(stack_dir / "small_corpus.tsv"), "--output", str(unwritable)]
    ) == 2
    assert str(unwritable) in capsys.readouterr().err


def test_train_stack_bad_config_values_exit_2_naming_the_key(stack_dir, tmp_path, capsys):
    base = ["train-stack", "--corpus", str(stack_dir / "small_corpus.tsv"),
            "--truth", str(stack_dir / "small_truth.tsv"), "--pipeline", str(tmp_path / "p.txt")]
    assert cli.main(base + ["--k", "abc"]) == 2
    assert "stack.k" in capsys.readouterr().err
    assert cli.main(base + ["--threshold", "nan"]) == 2
    assert "selection.threshold" in capsys.readouterr().err
    config = tmp_path / "run.cfg"
    config.write_text("master_seed = 1\nsampling.window = soon\n", encoding="utf-8")
    assert cli.main(base + ["--config", str(config)]) == 2
    assert f"{config}:2: config sampling.window" in capsys.readouterr().err


def test_a_cr_or_a_bad_byte_in_a_corpus_line_is_counted_as_malformed(tmp_path, capsys):
    corpus, truth, _ = write_tiny_corpus(tmp_path, n_pos=2, n_neg=3)
    with open(corpus, "ab") as fh:
        fh.write(b"7\tab\rcd\t0\t0,,,,,,\n")
        fh.write(b"8\tc\t0\t0,,,,,A\rB,\n")
        fh.write(b"9\t\xff\t0\t0,,,,,,\n")
    out_copy = tmp_path / "normalised.tsv"
    assert cli.main(
        ["ingest", "--corpus", str(corpus), "--truth", str(truth), "--output", str(out_copy)]
    ) == 0
    assert "malformed 3" in capsys.readouterr().out
    assert out_copy.read_bytes() == b"".join(
        line + b"\n" for line in corpus.read_bytes().split(b"\n")[:5]
    )
    assert cli.main(
        ["ingest", "--corpus", str(corpus), "--truth", str(truth), "--malformed", "abort"]
    ) == 1
    assert "line 6:" in capsys.readouterr().err


def test_train_stack_skips_cities_with_a_cr(tmp_path, capsys):
    examples = make_benchmark(n=300, positive_rate=0.1, seed=3)
    write_split(examples, tmp_path, "small")
    corpus = tmp_path / "small_corpus.tsv"
    lines = corpus.read_bytes().split(b"\n")
    for i in range(0, len(lines) - 1, 2):
        head, _, meta = lines[i].rpartition(b"\t")
        fields = meta.split(b",")
        fields[5] = b"A\rB"
        lines[i] = head + b"\t" + b",".join(fields)
    corpus.write_bytes(b"\n".join(lines))
    assert cli.main(
        ["train-stack", "--corpus", str(corpus), "--truth", str(tmp_path / "small_truth.tsv"),
         "--pipeline", str(tmp_path / "p.txt"), "--fraction", "1/3"]
    ) == 0
    assert cli.main(
        ["ingest", "--corpus", str(corpus), "--truth", str(tmp_path / "small_truth.tsv")]
    ) == 0
    assert "malformed 150" in capsys.readouterr().out


@pytest.mark.parametrize(
    "flag, value, key",
    [("--window", "abc", "sampling.window"), ("--seed", "x", "sampling.seed"),
     ("--fraction", "1/0", "sampling.fraction")],
)
def test_sample_bad_values_exit_2_naming_the_key(tmp_path, capsys, flag, value, key):
    corpus, truth, _ = write_tiny_corpus(tmp_path, n_pos=1, n_neg=1)
    rc = cli.main(
        ["sample", "--corpus", str(corpus), "--truth", str(truth),
         "--output-corpus", str(tmp_path / "c.tsv"), "--output-truth", str(tmp_path / "t.tsv"),
         flag, value]
    )
    assert rc == 2
    assert f"config {key}: bad value {value!r}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, config_text, flags, message",
    [
        ("train-stack", "sampling.fraction = 2", [],
         "{cfg}:1: sampling.fraction must be in (0, 1], got 2"),
        ("train-stack", "sampling.window = -5", [], "{cfg}:1: sampling.window must be >= 0, got -5"),
        ("train-stack", "", ["--fraction", "0"], "sampling.fraction must be in (0, 1], got 0"),
        ("sample", "", ["--fraction", "3/2"], "sampling.fraction must be in (0, 1], got 3/2"),
    ],
)
def test_a_bad_sampling_value_is_reported_before_a_missing_corpus(
    tmp_path, capsys, command, config_text, flags, message
):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(config_text + "\n", encoding="utf-8")
    outputs = {
        "train-stack": ["--pipeline", str(tmp_path / "p.txt"), "--config", str(cfg)],
        "sample": ["--output-corpus", str(tmp_path / "c.tsv"), "--output-truth", str(tmp_path / "t")],
    }
    args = [command, "--corpus", str(tmp_path / "missing_corpus.tsv"),
            "--truth", str(tmp_path / "missing_truth.tsv"), *outputs[command], *flags]
    assert cli.main(args) == 2
    assert capsys.readouterr().err == f"error: {message.format(cfg=cfg)}\n"


@pytest.mark.parametrize("command", ["evaluate", "analyze"])
def test_a_scored_rev_id_missing_from_the_corpus_exits_2_naming_it(
    stack_dir, tmp_path, capsys, command
):
    truth = stack_dir / "small_truth.tsv"
    scores = tmp_path / "scores.tsv"
    write_scores(scores, load_labels(truth), good=0.2, bad=0.8)  # every example an error
    lines = (stack_dir / "small_corpus.tsv").read_text(encoding="utf-8").split("\n")
    dropped = lines.pop(5).split("\t")[0]
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text("\n".join(lines), encoding="utf-8")
    out = ["--report", str(tmp_path / "r.txt")] if command == "evaluate" else [
        "--out-dir", str(tmp_path / "d")]
    rc = cli.main(
        [command, "--scores", str(scores), "--truth", str(truth), *out,
         "--corpus", str(corpus), "--schema", str(stack_dir / "schema.txt")]
    )
    assert rc == 2
    assert f"scored rev_id {dropped} is not in --corpus {corpus}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["evaluate", "analyze"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_a_non_finite_threshold_exits_2(tmp_path, capsys, command, value):
    corpus, truth, _ = write_tiny_corpus(tmp_path, n_pos=2, n_neg=2)
    scores = tmp_path / "scores.tsv"
    write_scores(scores, load_labels(truth))
    out = ["--report", str(tmp_path / "r.txt")] if command == "evaluate" else [
        "--out-dir", str(tmp_path / "d")]
    rc = cli.main(
        [command, "--scores", str(scores), "--truth", str(truth), *out, f"--threshold={value}"]
    )
    assert rc == 2
    assert "--threshold must be finite" in capsys.readouterr().err
    assert not (tmp_path / "r.txt").exists() and not (tmp_path / "d").exists()


def test_analyze_out_dir_naming_a_file_exits_2_naming_it(tmp_path, capsys):
    corpus, truth, _ = write_tiny_corpus(tmp_path, n_pos=2, n_neg=2)
    scores = tmp_path / "scores.tsv"
    write_scores(scores, load_labels(truth))
    afile = tmp_path / "afile"
    afile.write_text("keep\n", encoding="utf-8")
    rc = cli.main(
        ["analyze", "--scores", str(scores), "--truth", str(truth), "--out-dir", str(afile)]
    )
    assert rc == 2
    assert f"cannot create {afile}" in capsys.readouterr().err
    assert afile.read_text(encoding="utf-8") == "keep\n"


@pytest.mark.parametrize(
    "listen, message",
    [
        ("127.0.0.1:99999", "port of 0-65535"),
        ("127.0.0.1:65536", "port of 0-65535"),
        ("192.0.2.1:0", "cannot listen on --listen 192.0.2.1:0"),  # not this host's
    ],
)
def test_serve_refuses_an_address_it_cannot_listen_on(tmp_path, capsys, listen, message):
    corpus, truth, _ = write_tiny_corpus(tmp_path, n_pos=2, n_neg=2)
    rc = cli.main(
        ["serve", "--corpus", str(corpus), "--truth", str(truth),
         "--listen", listen, "--timeout", "5"]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert message in err and "listening on" not in err


def test_client_refuses_a_port_out_of_range(stack_dir, capsys):
    # not dialled modulo 65536 (99999 would be port 34463)
    rc = cli.main(
        ["client", "--pipeline", str(stack_dir / "pipeline.txt"),
         "--connect", "127.0.0.1:99999", "--timeout", "5"]
    )
    assert rc == 2
    assert "port of 0-65535" in capsys.readouterr().err


def test_train_model_choices_are_the_builtin_families(capsys):
    with pytest.raises(SystemExit):
        cli.main(["train", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    families = "random_forest,extra_trees,gradient_boosting,logistic_regression,mlp"
    assert f"--model {{{families}}}" in help_text


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
def test_serve_and_client_refuse_a_bad_timeout(stack_dir, tmp_path, capsys, value):
    corpus, truth, _ = write_tiny_corpus(tmp_path, n_pos=2, n_neg=2)
    rc = cli.main(
        ["serve", "--corpus", str(corpus), "--truth", str(truth),
         "--listen", "127.0.0.1:0", "--timeout", value]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "timeout must be finite and > 0" in err and "listening on" not in err
    rc = cli.main(
        ["client", "--pipeline", str(stack_dir / "pipeline.txt"),
         "--connect", "127.0.0.1:9", "--timeout", value]
    )
    assert rc == 2
    assert "timeout must be finite and > 0" in capsys.readouterr().err


NUMBER_FLAG_ARGS = {
    "evaluate": ["--scores", "s", "--truth", "t", "--report", "r"],
    "analyze": ["--scores", "s", "--truth", "t", "--out-dir", "d"],
    "serve": ["--corpus", "c", "--truth", "t"],
    "client": ["--pipeline", "p", "--connect", "127.0.0.1:9"],
    "train": ["--corpus", "c", "--truth", "t", "--model", "mlp", "--output", "o"],
}


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("evaluate", "--threshold", "0_5"),
        ("evaluate", "--threshold", "٠.٥"),
        ("evaluate", "--threshold", " 0.5"),
        ("analyze", "--threshold", "0.5\t"),
        ("serve", "--window", "1_6"),
        ("serve", "--window", "+16"),
        ("serve", "--timeout", "6_0"),
        ("client", "--timeout", "٦٠"),
        ("train", "--seed", "+3"),
        ("train", "--seed", "٣"),
        ("train", "--seed", "1.0"),
    ],
)
def test_a_number_flag_takes_only_the_config_files_spelling(capsys, command, flag, value):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, *NUMBER_FLAG_ARGS[command], f"{flag}={value}"])
    assert exc.value.code == 2
    assert f"argument {flag}: invalid" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flag, value, parsed",
    [
        ("evaluate", "--threshold", "5e-1", 0.5),
        ("analyze", "--threshold", "-0.25", -0.25),
        ("serve", "--window", "8", 8),
        ("serve", "--timeout", "1.5", 1.5),
        ("client", "--timeout", "30", 30.0),
        ("train", "--seed", "-3", -3),
    ],
)
def test_a_number_flag_reads_a_plain_number(command, flag, value, parsed):
    args = cli._build_parser().parse_args([command, *NUMBER_FLAG_ARGS[command], flag, value])
    assert getattr(args, flag.lstrip("-")) == parsed

"""The command-line surface, end to end on small corpora."""

import threading
from pathlib import Path

import numpy as np
import pytest

from tests._util import labeled
from vandalstack import cli
from vandalstack.benchmark import make_benchmark, write_split
from vandalstack.corpus import load_corpus, load_labels, write_corpus, write_labels
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

"""The benchmark's corpus family: q=0 is the package's own benchmark output."""

from __future__ import annotations

import os
import subprocess
import sys

from perfbench import sut
from perfbench.corpusgen import CorpusSpec, flip_labels, flip_rng, write_labeled
from vandalstack.benchmark import make_benchmark

FILES = ["train_corpus.tsv", "train_truth.tsv", "test_corpus.tsv", "test_truth.tsv"]


def test_q0_is_byte_identical_to_package_benchmark(tmp_path):
    ours, theirs = tmp_path / "ours", tmp_path / "theirs"
    counts = write_labeled(CorpusSpec(n=900, holdout=2 / 3, q=0.0), 11, ours)
    subprocess.run(
        [sys.executable, "-m", "vandalstack.benchmark", "--out", str(theirs),
         "--n", "900", "--seed", "11", "--holdout", str(2 / 3)],
        check=True, capture_output=True, env=dict(os.environ, PYTHONPATH=str(sut.SRC)),
    )
    assert counts["train_flips"] == counts["test_flips"] == 0
    for name in FILES:
        assert (ours / name).read_bytes() == (theirs / name).read_bytes(), name


def test_flips_are_seeded_and_touch_only_labels():
    examples = make_benchmark(2000, 0.02, 3)
    once, n_once = flip_labels(examples, 0.05, flip_rng(3, "train"))
    again, n_again = flip_labels(examples, 0.05, flip_rng(3, "train"))
    other, _ = flip_labels(examples, 0.05, flip_rng(4, "train"))
    assert once == again and n_once == n_again
    assert once != other
    changed = [a for a, b in zip(examples, once) if a.label != b.label]
    assert len(changed) == n_once == 100
    assert [a.revision for a in examples] == [b.revision for b in once]

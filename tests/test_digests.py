"""``tools/digests.py``: the byte check of schema, pipeline and scores, streamed or not."""

import hashlib
import importlib.util
from pathlib import Path

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
    got = load_tool().digests(3, SMALL)
    assert capsys.readouterr().out == ""  # the commands' own output goes to stderr
    write_labeled(SMALL, 3, tmp_path)
    d = str(tmp_path)
    assert cli.main(["train-stack", "--corpus", f"{d}/train_corpus.tsv",
                     "--truth", f"{d}/train_truth.tsv", "--schema", f"{d}/schema.txt",
                     "--pipeline", f"{d}/pipeline.txt"]) == 0
    assert cli.main(["predict", "--pipeline", f"{d}/pipeline.txt",
                     "--input", f"{d}/test_corpus.tsv", "--output", f"{d}/scores.tsv"]) == 0
    want = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("schema.txt", "pipeline.txt", "scores.tsv")
    }
    assert got == {**want, "stream.tsv": want["scores.tsv"]}

"""Print the sha256 of the schema, pipeline, scores and reports written on benchmark splits.

Usage, from the root of a checkout::

    PYTHONPATH=src:. python tools/digests.py [SEED ...]

For each seed (7 and 1 when none is given) it writes the split with
``perfbench.corpusgen.write_labeled(SPEC, seed, dir)`` into a temporary
directory, runs ``train-stack`` on its train files, ``predict`` on its
test corpus and ``analyze --corpus --schema`` on those scores through
``vandalstack.cli.main``, then streams the test corpus through a loopback
``ScoringServer`` session answered by ``run_client``.  It writes the
answers as a scores file in corpus order, and the session's report as
``serve --report`` writes it.  It prints one line::

    seed 7 schema <sha256> pipeline <sha256> scores <sha256> stream <sha256> report <sha256>

Before those lines it prints what besides the code fixes the bytes: the
numpy version, the BLAS numpy was built with, and ``OPENBLAS_NUM_THREADS``
and ``OPENBLAS_CORETYPE`` when they are set, as in::

    context numpy 2.4.6 blas scipy-openblas 0.3.31.188.0 OPENBLAS_NUM_THREADS=1

The ``report`` digest, for one, differs with the OpenBLAS thread count,
so digests are comparable only under the same context.

``stream`` equals ``scores`` when streaming scores every revision exactly
as ``predict`` does.  ``report`` is the sha256 of the files in
:data:`REPORTS`, one after another: what ``analyze`` writes, then the
session's report.

Two checkouts write the same bytes when they print the same lines; run
the script with each checkout's ``src`` first on ``PYTHONPATH``.  It only
reads ``perfbench/``.  The commands' own output goes to stderr.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

import vandalstack
from perfbench.corpusgen import write_labeled
from perfbench.workloads import SPEC
from vandalstack import cli
from vandalstack.corpus import load_corpus, load_labels
from vandalstack.lines import write_lines
from vandalstack.serve import ScoringServer, format_score, run_client

OUTPUTS = ("schema.txt", "pipeline.txt", "scores.tsv", "stream.tsv", "report")
# the environment variables that change OpenBLAS's arithmetic, printed when set
BLAS_SETTINGS = ("OPENBLAS_NUM_THREADS", "OPENBLAS_CORETYPE")
# the files hashed together as `report`: analyze's out-dir, then the session's report
REPORTS = (
    "analysis/report.txt",
    "analysis/histogram.tsv",
    "analysis/errors.tsv",
    "analysis/mds.tsv",
    "session.txt",
)


def sha256_of(paths) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(Path(path).read_bytes())
    return digest.hexdigest()


def context() -> str:
    """The line that says what besides the code fixed the digests' bytes."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    words = ["context", "numpy", np.__version__, "blas", blas["name"], blas["version"]]
    words += [f"{name}={os.environ[name]}" for name in BLAS_SETTINGS if name in os.environ]
    return " ".join(words)


def digests(seed: int, spec=SPEC) -> dict[str, str]:
    """sha256 of each file in :data:`OUTPUTS`, written on the ``spec`` split of ``seed``."""
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        write_labeled(spec, seed, d)
        commands = (
            ["train-stack", "--corpus", str(d / "train_corpus.tsv"),
             "--truth", str(d / "train_truth.tsv"),
             "--schema", str(d / "schema.txt"), "--pipeline", str(d / "pipeline.txt")],
            ["predict", "--pipeline", str(d / "pipeline.txt"),
             "--input", str(d / "test_corpus.tsv"), "--output", str(d / "scores.tsv")],
            ["analyze", "--scores", str(d / "scores.tsv"), "--truth", str(d / "test_truth.tsv"),
             "--corpus", str(d / "test_corpus.tsv"), "--schema", str(d / "schema.txt"),
             "--out-dir", str(d / "analysis")],
        )
        for argv in commands:
            with contextlib.redirect_stdout(sys.stderr):
                status = cli.main(argv)
            if status != 0:
                raise SystemExit(f"{argv[0]} exited with {status}")
        stream(d / "pipeline.txt", d / "test_corpus.tsv", d / "test_truth.tsv", d)
        sums = {name: sha256_of([d / name]) for name in OUTPUTS[:-1]}
        return {**sums, "report": sha256_of(d / name for name in REPORTS)}


def stream(pipeline: Path, corpus: Path, truth: Path, out_dir: Path) -> None:
    """Score ``corpus`` in one loopback session, then write its answers and its report.

    The answers go to ``stream.tsv`` in corpus order, and the report to
    ``session.txt`` as ``serve --report`` writes it.
    """
    revisions = load_corpus(corpus).revisions
    server = ScoringServer(revisions, load_labels(truth))
    host, port = server.bind()
    try:
        with ThreadPoolExecutor(1) as pool:
            session = pool.submit(server.serve_one)
            status = run_client(pipeline, f"{host}:{port}")
            result = session.result()
    finally:
        server.close()
    if status != 0:
        raise SystemExit(f"client exited with {status}")
    answers = result.scores
    write_lines(
        out_dir / "stream.tsv",
        (f"{rev.rev_id}\t{format_score(answers[rev.rev_id])}" for rev in revisions),
    )
    write_lines(out_dir / "session.txt", cli._report_lines(result.report))


def main(argv: list[str]) -> int:
    print(f"vandalstack from {Path(vandalstack.__file__).parent}", file=sys.stderr)
    print(context())
    for seed in [int(arg) for arg in argv] or [7, 1]:
        sums = digests(seed)
        print(f"seed {seed} " + " ".join(f"{Path(n).stem} {sums[n]}" for n in OUTPUTS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

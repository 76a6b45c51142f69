"""Print the sha256 of the schema, pipeline and scores written on benchmark splits.

Usage, from the root of a checkout::

    PYTHONPATH=src:. python tools/digests.py [SEED ...]

For each seed (7 and 1 when none is given) it writes the split with
``perfbench.corpusgen.write_labeled(SPEC, seed, dir)`` into a temporary
directory, runs ``train-stack`` on its train files and ``predict`` on its
test corpus through ``vandalstack.cli.main``, and prints one line::

    seed 7 schema <sha256> pipeline <sha256> scores <sha256>

Two checkouts write the same bytes when they print the same lines; run
the script with each checkout's ``src`` first on ``PYTHONPATH``.  It only
reads ``perfbench/``.  The commands' own output goes to stderr.
"""

from __future__ import annotations

import contextlib
import hashlib
import sys
import tempfile
from pathlib import Path

import vandalstack
from perfbench.corpusgen import write_labeled
from perfbench.workloads import SPEC
from vandalstack import cli

OUTPUTS = ("schema.txt", "pipeline.txt", "scores.tsv")


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
        )
        for argv in commands:
            with contextlib.redirect_stdout(sys.stderr):
                status = cli.main(argv)
            if status != 0:
                raise SystemExit(f"{argv[0]} exited with {status}")
        return {name: hashlib.sha256((d / name).read_bytes()).hexdigest() for name in OUTPUTS}


def main(argv: list[str]) -> int:
    print(f"vandalstack from {Path(vandalstack.__file__).parent}", file=sys.stderr)
    for seed in [int(arg) for arg in argv] or [7, 1]:
        sums = digests(seed)
        print(f"seed {seed} " + " ".join(f"{Path(n).stem} {sums[n]}" for n in OUTPUTS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Compare the holdout AUC of two source trees, paired by data seed.

Usage, from the root of a checkout::

    PYTHONPATH=src:. python tools/paired_auc.py PARENT_SRC CHANGE_SRC SEED [SEED ...]

PARENT_SRC and CHANGE_SRC are the ``src`` directories of two checkouts;
the script loads the package from each under its own module name
(``tools/fit_cpu.load_package``).  For each data seed it writes the
benchmark's split (``perfbench.corpusgen.write_labeled(SPEC, seed,
dir)``) into a temporary directory, and with each package runs
``train-stack`` on the train files and ``predict`` on the test corpus,
with the benchmark's arguments.  It scores the predictions against the
test truth as the benchmark's ``holdout_auc`` does, and prints one line
per seed::

    seed 563 parent 0.912340 change 0.908760 diff -0.003580

then the median of the paired differences (change minus parent) and the
number of seeds on which the change scored lower, and the sign-test
interval of the median difference with its coverage::

    median diff -0.001230 lower 9 of 20
    interval [-0.002100, +0.004300] coverage 0.9586

The interval is ``[d(k), d(n-k+1)]`` of the n sorted differences, with
``k`` the largest for which P(Binom(n, 1/2) <= k-1) <= 0.025; it holds
the median difference with probability ``1 - 2 P(Binom(n, 1/2) <= k-1)``
whatever the differences' distribution.  Below 6 seeds no ``k`` qualifies
and the line reads ``interval none``.  A two-sided sign test at 5% finds
the change worse on 20 seeds only if it is lower on 15 or more.  It only
reads ``perfbench/``.  The commands' own output goes to stderr.
"""

from __future__ import annotations

import contextlib
import importlib
import math
import statistics
import sys
import tempfile
from pathlib import Path
from typing import Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

from fit_cpu import load_package  # noqa: E402
from perfbench.corpusgen import CorpusSpec, write_labeled  # noqa: E402
from perfbench.workloads import SPEC, check_scores, predict_args, read_truth, scores_auc, train_args  # noqa: E402


def holdout_auc(package, data: Path, out: Path) -> float:
    """The holdout AUC of ``package``'s ``train-stack`` and ``predict`` on the split in ``data``."""
    cli = importlib.import_module(package.__name__ + ".cli")
    out.mkdir()
    args = train_args(data)
    # each side writes its own schema and pipeline
    args[args.index("--schema") + 1] = str(out / "schema.txt")
    args[args.index("--pipeline") + 1] = str(out / "pipeline.txt")
    with contextlib.redirect_stdout(sys.stderr):
        if cli.main(args) != 0:
            raise SystemExit(f"{package.__name__}: train-stack exited non-zero")
        if cli.main(predict_args(out / "pipeline.txt", data / "test_corpus.tsv", out / "scores.tsv")) != 0:
            raise SystemExit(f"{package.__name__}: predict exited non-zero")
    truth = read_truth(data / "test_truth.tsv")
    scores, failed = check_scores((out / "scores.tsv").read_text(encoding="utf-8"), truth)
    if failed:
        raise SystemExit(f"{package.__name__}: {failed} revisions scored badly")
    return scores_auc(scores, truth)


def paired(sides: tuple, seeds: list[int], spec: CorpusSpec = SPEC) -> list[tuple[int, float, float]]:
    """``(seed, parent AUC, change AUC)`` per data seed."""
    rows = []
    for seed in seeds:
        with tempfile.TemporaryDirectory() as tmp:
            data = Path(tmp)
            write_labeled(spec, seed, data)
            aucs = [holdout_auc(side, data, data / name) for side, name in zip(sides, ("parent", "change"))]
        rows.append((seed, *aucs))
    return rows


def summary(rows: list[tuple[int, float, float]]) -> tuple[float, int]:
    """The median paired difference (change minus parent), and the seeds where the change was lower."""
    diffs = [change - parent for _, parent, change in rows]
    return statistics.median(diffs), sum(d < 0 for d in diffs)


def sign_interval(diffs: list[float]) -> Optional[tuple[float, float, float]]:
    """``(low, high, coverage)``: the sign-test interval of the median of ``diffs``, or ``None`` when too few."""
    n = len(diffs)
    # tail[j] = P(Binom(n, 1/2) <= j)
    tail = [sum(math.comb(n, i) for i in range(j + 1)) / 2**n for j in range(n)]
    k = sum(1 for j in range(n) if tail[j] <= 0.025)
    if k == 0:
        return None
    ordered = sorted(diffs)
    return ordered[k - 1], ordered[n - k], 1.0 - 2.0 * tail[k - 1]


def interval_line(diffs: list[float]) -> str:
    found = sign_interval(diffs)
    if found is None:
        return "interval none"
    low, high, coverage = found
    return f"interval [{low:+.6f}, {high:+.6f}] coverage {coverage:.4f}"


def main(argv: list[str]) -> int:
    if len(argv) < 3:
        print("\n\n".join(__doc__.split("\n\n")[1:3]), file=sys.stderr)
        return 2
    sides = (load_package(Path(argv[0]), "parent_vandalstack"),
             load_package(Path(argv[1]), "change_vandalstack"))
    rows = paired(sides, [int(seed) for seed in argv[2:]])
    for seed, parent, change in rows:
        print(f"seed {seed} parent {parent:.6f} change {change:.6f} diff {change - parent:+.6f}")
    median, lower = summary(rows)
    print(f"median diff {median:+.6f} lower {lower} of {len(rows)}")
    print(interval_line([change - parent for _, parent, change in rows]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

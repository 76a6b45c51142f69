"""Session fixtures: the synthetic benchmark corpus and a trained pipeline.

The ``bench`` fixture generates the standard benchmark split once, trains
one stacked pipeline through the real CLI flow, and scores the holdout.
The acceptance tests (and anything else that wants a realistic trained
artifact) share it.  ``pytest_terminal_summary`` prints one PASS/FAIL
line per acceptance criterion at the end of the run.
"""

from __future__ import annotations

import re
import time
import warnings
from types import SimpleNamespace

import pytest

# Hypothesis imports this module (and libcst, which warns on import) when
# it reports a failing example.  Under a module's ``filterwarnings("error")``
# that warning would end the whole run with INTERNALERROR, so it is
# imported here once, its warnings ignored.
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

from vandalstack import cli
from vandalstack.benchmark import make_benchmark, split_holdout, write_split

ACCEPTANCE_LABELS = {
    1: "AUC oracle equivalence",
    2: "feature-extraction ground truth",
    3: "byte-identical retraining",
    4: "sampling contract",
    5: "out-of-fold purity",
    6: "synthetic end-to-end benchmark",
    7: "gradient checks",
    8: "MDS exactness",
    9: "serve parity",
    10: "reference-results documentation",
}


@pytest.fixture(scope="session")
def bench(tmp_path_factory):
    """Benchmark files + a pipeline trained and scored via the CLI."""
    root = tmp_path_factory.mktemp("bench")
    examples = make_benchmark(n=20000, positive_rate=0.02, seed=7)
    train, holdout = split_holdout(examples, 0.25)
    write_split(train, root, "train")
    write_split(holdout, root, "holdout")

    started = time.monotonic()
    rc = cli.main(
        [
            "train-stack",
            "--corpus", str(root / "train_corpus.tsv"),
            "--truth", str(root / "train_truth.tsv"),
            "--schema", str(root / "schema.txt"),
            "--pipeline", str(root / "pipeline.txt"),
        ]
    )
    assert rc == 0, "benchmark pipeline training failed"
    rc = cli.main(
        [
            "predict",
            "--pipeline", str(root / "pipeline.txt"),
            "--input", str(root / "holdout_corpus.tsv"),
            "--output", str(root / "holdout_scores.tsv"),
        ]
    )
    assert rc == 0, "benchmark holdout scoring failed"
    elapsed = time.monotonic() - started

    return SimpleNamespace(
        root=root,
        examples=examples,
        train=train,
        holdout=holdout,
        train_corpus=root / "train_corpus.tsv",
        train_truth=root / "train_truth.tsv",
        holdout_corpus=root / "holdout_corpus.tsv",
        holdout_truth=root / "holdout_truth.tsv",
        schema_path=root / "schema.txt",
        pipeline_path=root / "pipeline.txt",
        holdout_scores=root / "holdout_scores.tsv",
        train_seconds=elapsed,
    )


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One PASS/FAIL line per acceptance criterion."""
    results = {}
    for outcome in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(outcome, []):
            if getattr(report, "when", "call") != "call" and outcome != "error":
                continue
            match = re.search(r"test_criterion_(\d+)", getattr(report, "nodeid", ""))
            if match:
                number = int(match.group(1))
                verdict = "PASS" if outcome == "passed" else "FAIL"
                # a later failure report for the same criterion wins
                if results.get(number) != "FAIL":
                    results[number] = verdict
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(results):
        label = ACCEPTANCE_LABELS.get(number, "")
        terminalreporter.write_line(
            f"criterion {number:2d} ({label}): {results[number]}"
        )

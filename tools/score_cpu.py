"""Time scoring and the client's featurize step by block size under two source trees, in one process.

Usage, from the root of a checkout::

    PYTHONPATH=src:. python tools/score_cpu.py PARENT_SRC CHANGE_SRC [SEED [PAIRS]]

PARENT_SRC and CHANGE_SRC are the ``src`` directories of two checkouts;
SEED, a non-negative integer, defaults to 7 (the seed of the pipeline
the benchmark's ``batch`` and ``stream`` score with) and PAIRS, a
positive one, to 20.  The script loads the package from each tree under
its own module name.  It writes the benchmark's split of SEED
(``perfbench.corpusgen.write_labeled(SPEC, seed, dir)``) into a
temporary directory, runs ``train-stack`` on its train files with
CHANGE_SRC's package, and reads the test corpus.  Each side then loads
the pipeline with its own ``load_pipeline``.  For each block size in
:data:`BLOCKS` it takes the first revisions of the test corpus in blocks
of that size, at least :data:`ROWS` rows when the block is smaller, and
times, PAIRS times with both packages, alternating which goes first, in
CPU seconds (``time.process_time``; pin the process to one CPU for
steady figures):

* the streaming client's featurize step: ``extract_features`` per
  revision, then ``encode_matrix`` of the block with the side's schema;
* ``predict_stack_batch`` on those blocks of the test corpus as the
  change encodes it, hot: one block after another;
* for the block sizes in :data:`COLD_SIZES`, the same scoring cold, as
  the benchmark's open loop scores: its first :data:`COLD_BLOCKS`
  blocks, each timed alone after sleeping the open loop's spacing
  between revisions (:data:`SPACING`, from ``perfbench``'s
  ``OPEN_RATE``).

Per block size it prints one line::

    block 1 rows 400 parent 843.2 [830.1 851.0] change 590.6 [585.3 597.2] diff -251.7 won 1.00 same True featurize parent 27.0 [26.8 27.5] change 15.1 [15.0 15.3] diff -11.9 won 1.00 same True cold rows 20 parent 1210.4 [1187.2 1240.8] change 1187.9 [1170.3 1215.5] diff -20.3 won 0.70 same True

with, for hot scoring, for featurize and, at a cold size, for cold
scoring, the median CPU µs per revision on each side and, in brackets,
its quartiles (the spread a difference must clear to be told from
noise), the median of the paired differences (change minus parent), the
share of pairs the change was faster in, and whether both sides gave
the same scores (the same encoded matrices), bit for bit, for every
block.  It only reads ``perfbench/``.

It exits 0 when every figure on every line reads ``same True``, 1 (after
the table) when any reads ``same False``, and 2 on a bad argument.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from fit_cpu import load_package, paired_summary  # noqa: E402
from perfbench.corpusgen import write_labeled  # noqa: E402
from perfbench.workloads import OPEN_RATE, SPEC, train_args  # noqa: E402

# the streaming client's blocks (1-16 rows), the last block size whose
# groups can hold two first-stage models (81), and batch-sized blocks
BLOCKS = (1, 2, 4, 8, 16, 32, 81, 200, 4000)
# rows scored per measurement at the least, in whole blocks
ROWS = 400
# block sizes also timed cold: the open loop's one-row blocks and the
# closed loop's 16-row windows
COLD_SIZES = (1, 16)
# blocks per cold measurement, each after SPACING idle
COLD_BLOCKS = 20
# seconds between revisions in the benchmark's open loop
SPACING = 1.0 / OPEN_RATE


def prepare(package, seed: int, tmp: Path) -> tuple[Path, list]:
    """The path of a pipeline trained on the seed's train split, and the revisions of its test corpus."""
    cli = importlib.import_module(package.__name__ + ".cli")
    corpus = importlib.import_module(package.__name__ + ".corpus")
    write_labeled(SPEC, seed, tmp)
    with contextlib.redirect_stdout(sys.stderr):
        status = cli.main(train_args(tmp))
    if status != 0:
        raise SystemExit(f"train-stack exited with {status}")
    return tmp / "pipeline.txt", corpus.load_corpus(tmp / "test_corpus.tsv").revisions


def blocks_of(X, size: int) -> list:
    """Whole blocks of ``size`` rows from the top of ``X``: at least :data:`ROWS` rows, or all of ``X``."""
    count = max(1, min(ROWS, len(X)) // size)
    return [X[lo : lo + size] for lo in range(0, count * size, size)]


def score_once(package, pipeline, blocks: list[np.ndarray]) -> tuple[float, np.ndarray]:
    """CPU seconds of scoring ``blocks`` one after another with ``package``, and the scores."""
    stacking = importlib.import_module(package.__name__ + ".stacking")
    start = time.process_time()
    scores = [stacking.predict_stack_batch(pipeline, block) for block in blocks]
    return time.process_time() - start, np.concatenate(scores)


def score_cold(package, pipeline, blocks: list[np.ndarray]) -> tuple[float, np.ndarray]:
    """CPU seconds of scoring ``blocks`` with ``package``, each timed alone after :data:`SPACING` asleep, and the scores."""
    stacking = importlib.import_module(package.__name__ + ".stacking")
    seconds, scores = 0.0, []
    for block in blocks:
        time.sleep(SPACING)
        start = time.process_time()
        scores.append(stacking.predict_stack_batch(pipeline, block))
        seconds += time.process_time() - start
    return seconds, np.concatenate(scores)


def featurize_once(package, schema, blocks: list) -> tuple[float, np.ndarray]:
    """CPU seconds of the client's featurize step on blocks of revisions, and the encoded rows."""
    featurize = importlib.import_module(package.__name__ + ".featurize")
    start = time.process_time()
    rows = [
        featurize.encode_matrix([featurize.extract_features(rev) for rev in block], schema)
        for block in blocks
    ]
    return time.process_time() - start, np.concatenate(rows)


def paired(run, blocks: list, pairs: int) -> dict:
    """The paired summary of ``run(side, blocks)`` in CPU µs per row over ``pairs`` alternating pairs."""
    n = sum(len(block) for block in blocks)
    times, same = ([], []), True
    for pair in range(pairs):
        outputs = [None, None]
        for side in (0, 1) if pair % 2 == 0 else (1, 0):
            seconds, outputs[side] = run(side, blocks)
            times[side].append(seconds * 1e6 / n)
        same = same and outputs[0].shape == outputs[1].shape and np.array_equal(
            outputs[0].view(np.uint64), outputs[1].view(np.uint64)
        )
    quartiles = {name: np.percentile(side, [25, 75]) for name, side in zip(("parent", "change"), times)}
    return {**paired_summary(*times), "quartiles": quartiles, "rows": n, "same": same}


def summary(row: dict) -> str:
    """``row``'s medians, each with its quartiles, its paired difference, share won and sameness."""
    sides = " ".join(f"{name} {row[name]:.1f} [{q1:.1f} {q3:.1f}]" for name, (q1, q3) in row["quartiles"].items())
    return f"{sides} diff {row['diff']:+.1f} won {row['won']:.2f} same {row['same']}"


def compare(sides: tuple, pipelines: tuple, X: np.ndarray, sizes, pairs: int, cold: bool = False) -> dict[int, dict]:
    """Per block size, the paired summary of scoring ``X`` in blocks of that size.

    Cold, it scores the first :data:`COLD_BLOCKS` blocks with :func:`score_cold`.
    """
    score = score_cold if cold else score_once
    return {
        size: paired(
            lambda k, blocks: score(sides[k], pipelines[k], blocks),
            blocks_of(X, size)[: COLD_BLOCKS if cold else None],
            pairs,
        )
        for size in sizes
    }


def compare_featurize(sides: tuple, schemas: tuple, revisions: list, sizes, pairs: int) -> dict[int, dict]:
    """Per block size, the paired summary of featurizing ``revisions`` in blocks of that size."""
    return {
        size: paired(lambda k, blocks: featurize_once(sides[k], schemas[k], blocks), blocks_of(revisions, size), pairs)
        for size in sizes
    }


def main(argv: list[str]) -> int:
    numbers = argv[2:] + ["7", "20"][len(argv) - 2 :]  # SEED and PAIRS, defaults filled in
    if not (2 <= len(argv) <= 4 and all(n.isascii() and n.isdigit() for n in numbers) and int(numbers[1]) > 0):
        print("\n\n".join(__doc__.split("\n\n")[1:3]), file=sys.stderr)
        return 2
    seed, pairs = map(int, numbers)
    sides = (load_package(Path(argv[0]), "parent_vandalstack"),
             load_package(Path(argv[1]), "change_vandalstack"))
    with tempfile.TemporaryDirectory() as tmp:
        path, revisions = prepare(sides[1], seed, Path(tmp))
        pipelines = tuple(
            importlib.import_module(side.__name__ + ".stacking").load_pipeline(path) for side in sides
        )
    schemas = tuple(pipeline.schema for pipeline in pipelines)
    featurized = compare_featurize(sides, schemas, revisions, BLOCKS, pairs)
    X = featurize_once(sides[1], schemas[1], [revisions])[1]
    rows = compare(sides, pipelines, X, BLOCKS, pairs)
    cold = compare(sides, pipelines, X, [size for size in COLD_SIZES if size in BLOCKS], pairs, cold=True)
    for size, row in rows.items():
        line = f"block {size} rows {row['rows']} {summary(row)} featurize {summary(featurized[size])}"
        if size in cold:
            line += f" cold rows {cold[size]['rows']} {summary(cold[size])}"
        print(line)
    results = [*rows.values(), *featurized.values(), *cold.values()]
    return 0 if all(row["same"] for row in results) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Seeded benchmark corpora: ``make_benchmark`` output plus label flips.

The package's synthetic corpus is separable, so holdout AUC sits at 1.0
and cannot show a quality regression.  This module flips a share ``q`` of
the truth labels, chosen by the benchmark's own RNG, so the task gets
noisy without touching the package.  With ``q == 0`` no flip is drawn and
the files written are byte-identical to
``python -m vandalstack.benchmark --holdout``.

The number of flips is fixed at ``round(q * n)`` rather than drawn label
by label: ``train-stack`` time grows with it (the flipped labels let noise
columns through selection), and with independent draws, 8 to 24 flips in
4,000 training revisions, it spread the fit time of ten seeds by a fifth.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from vandalstack.benchmark import make_benchmark, split_holdout, write_split
from vandalstack.corpus import LabeledExample

# the package benchmark's default share of vandalism
POSITIVE_RATE = 0.02


@dataclass(frozen=True)
class CorpusSpec:
    """One member of the benchmark's corpus family."""

    n: int
    holdout: float
    q: float


def flip_labels(
    examples: list[LabeledExample], q: float, rng: np.random.Generator
) -> tuple[list[LabeledExample], int]:
    """Flip ``round(q * len(examples))`` labels, chosen uniformly; returns (examples, flips)."""
    if q == 0.0:
        return list(examples), 0
    chosen = set(rng.choice(len(examples), size=round(q * len(examples)), replace=False).tolist())
    out = [replace(ex, label=not ex.label) if i in chosen else ex for i, ex in enumerate(examples)]
    return out, len(chosen)


def flip_rng(seed: int, stream: str) -> np.random.Generator:
    """The benchmark's own RNG for one named stream of one workload seed."""
    return np.random.default_rng([seed & 0xFFFFFFFF, zlib.crc32(stream.encode())])


def write_labeled(spec: CorpusSpec, seed: int, out_dir: Path) -> dict:
    """Write ``train_*`` and ``test_*`` corpus/truth files; returns counts."""
    out_dir.mkdir(parents=True, exist_ok=True)
    examples = make_benchmark(spec.n, POSITIVE_RATE, seed)
    train, test = split_holdout(examples, spec.holdout)
    train, train_flips = flip_labels(train, spec.q, flip_rng(seed, "train"))
    test, test_flips = flip_labels(test, spec.q, flip_rng(seed, "test"))
    write_split(train, out_dir, "train")
    write_split(test, out_dir, "test")
    return {
        "train_rows": len(train),
        "test_rows": len(test),
        "train_flips": train_flips,
        "test_flips": test_flips,
    }


def write_scored(n: int, q: float, seed: int, out_dir: Path) -> None:
    """Write ``score_corpus.tsv`` and its flipped ``score_truth.tsv``.

    A corpus to score, not to train on: the program sees only the corpus,
    and the benchmark keeps the truth to compute AUC.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    examples, _ = flip_labels(make_benchmark(n, POSITIVE_RATE, seed), q, flip_rng(seed, "score"))
    write_split(examples, out_dir, "score")

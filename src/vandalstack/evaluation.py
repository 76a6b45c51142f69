"""AUC-ROC, score-difference analysis, error sets and classical MDS.

``auc_roc`` is the Mann-Whitney statistic computed from rank sums with
average ranks on ties — O(n log n) and exact: tied-rank averages are
multiples of 0.5, so the rank sum is an exact float for any realistic n
and matches brute-force pair counting to the last bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .corpus import Source, _iter_lines, _strip_eol
from .errors import DuplicateConflict, EmptyDataset, MalformedLine, SingleClass
from .featurize import FeatureVector, vectors_to_csr

MDS_CAP = 2000
N_BINS = 20


@dataclass(frozen=True)
class ScoredExample:
    rev_id: int
    score: float
    label: bool

    def __post_init__(self):
        if not np.isfinite(self.score) or not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score must be finite in [0,1], got {self.score!r}")


@dataclass
class EvalReport:
    auc: float
    histogram: np.ndarray
    misclassified_count: int
    fp_total: int
    fp_distinct: Optional[int]
    fn_total: int
    fn_distinct: Optional[int]
    n: int
    positives: int
    negatives: int


@dataclass
class ErrorSets:
    """rev_id sets (sorted tuples): raw FP/FN and their distinct-vector reductions."""

    fp: tuple[int, ...]
    fn: tuple[int, ...]
    fp_distinct: tuple[int, ...]
    fn_distinct: tuple[int, ...]


def auc_from_arrays(labels: np.ndarray, scores: np.ndarray) -> float:
    labels = np.asarray(labels, dtype=bool)
    scores = np.asarray(scores, dtype=np.float64)
    n = labels.size
    n_pos = int(labels.sum())
    n_neg = n - n_pos
    if n_pos == 0 or n_neg == 0:
        raise SingleClass("AUC needs at least one positive and one negative")
    order = np.argsort(scores, kind="mergesort")
    sorted_scores = scores[order]
    # average 1-based rank per tie group
    new_group = np.empty(n, dtype=bool)
    new_group[0] = True
    new_group[1:] = sorted_scores[1:] != sorted_scores[:-1]
    group_id = np.cumsum(new_group) - 1
    counts = np.bincount(group_id)
    starts = np.cumsum(counts) - counts
    average_rank = starts + (counts - 1) / 2.0 + 1.0
    ranks = np.empty(n)
    ranks[order] = average_rank[group_id]
    rank_sum = ranks[labels].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def auc_roc(scored: Sequence[ScoredExample]) -> float:
    """P(random positive outranks random negative), ties credited 0.5."""
    labels = np.fromiter((ex.label for ex in scored), dtype=bool, count=len(scored))
    scores = np.fromiter(
        (ex.score for ex in scored), dtype=np.float64, count=len(scored)
    )
    return auc_from_arrays(labels, scores)


def score_diff_histogram(
    scored: Sequence[ScoredExample],
) -> tuple[np.ndarray, int]:
    """20-bin histogram of |label - score| and the count above 0.5.

    Bins are equal width over [0,1], right-open except the last.
    """
    histogram = np.zeros(N_BINS, dtype=np.int64)
    misclassified = 0
    for ex in scored:
        diff = abs((1.0 if ex.label else 0.0) - ex.score)
        histogram[min(int(diff * N_BINS), N_BINS - 1)] += 1
        if diff > 0.5:
            misclassified += 1
    return histogram, misclassified


def histogram_rows(histogram: np.ndarray) -> list[tuple[float, float, int]]:
    """(bin_lo, bin_hi, count) rows for serialisation."""
    return [
        (i / N_BINS, (i + 1) / N_BINS, int(histogram[i])) for i in range(N_BINS)
    ]


def error_sets(
    scored: Sequence[ScoredExample],
    threshold: float = 0.5,
    vectors: Optional[Mapping[int, FeatureVector]] = None,
) -> ErrorSets:
    """FP/FN rev_id sets plus their content-distinct reductions.

    FP = negatives scored >= threshold; FN = positives scored < threshold.
    The distinct sets keep one representative (lowest rev_id) per distinct
    encoded feature vector; without ``vectors`` every example counts as
    distinct.
    """
    fp = sorted(ex.rev_id for ex in scored if not ex.label and ex.score >= threshold)
    fn = sorted(ex.rev_id for ex in scored if ex.label and ex.score < threshold)

    def distinct(ids: list[int]) -> tuple[int, ...]:
        if vectors is None:
            return tuple(ids)
        best: dict[object, int] = {}
        for rev_id in ids:
            key = vectors[rev_id]
            if key not in best or rev_id < best[key]:
                best[key] = rev_id
        return tuple(sorted(best.values()))

    return ErrorSets(tuple(fp), tuple(fn), distinct(fp), distinct(fn))


def evaluate_scored(
    scored: Sequence[ScoredExample],
    vectors: Optional[Mapping[int, FeatureVector]] = None,
    threshold: float = 0.5,
) -> EvalReport:
    """Assemble the full report: AUC, histogram, error counts."""
    histogram, misclassified = score_diff_histogram(scored)
    errors = error_sets(scored, threshold, vectors)
    positives = sum(1 for ex in scored if ex.label)
    return EvalReport(
        auc=auc_roc(scored),
        histogram=histogram,
        misclassified_count=misclassified,
        fp_total=len(errors.fp),
        fp_distinct=len(errors.fp_distinct) if vectors is not None else None,
        fn_total=len(errors.fn),
        fn_distinct=len(errors.fn_distinct) if vectors is not None else None,
        n=len(scored),
        positives=positives,
        negatives=len(scored) - positives,
    )


def load_scores(source: Source) -> dict[int, float]:
    """Read a ``rev_id <TAB> score`` file into a mapping.

    Repeating a rev_id with the same score is tolerated; a contradiction
    raises :class:`DuplicateConflict`.
    """
    scores: dict[int, float] = {}
    for line_no, raw in enumerate(_iter_lines(source), start=1):
        line = _strip_eol(raw)
        if line == "":
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise MalformedLine(
                f"expected 2 tab-separated fields, got {len(parts)}", line_no
            )
        if not (parts[0].isascii() and parts[0].isdigit()):
            raise MalformedLine(f"bad rev_id {parts[0]!r}", line_no)
        rev_id = int(parts[0])
        try:
            score = float(parts[1])
        except ValueError:
            score = np.nan
        if not 0.0 <= score <= 1.0:
            raise MalformedLine(f"bad score {parts[1]!r}, expected a number in [0, 1]", line_no)
        if rev_id in scores and scores[rev_id] != score:
            raise DuplicateConflict(f"rev_id {rev_id} scored twice, differently", line_no)
        scores[rev_id] = score
    return scores


def classical_mds(
    vectors: Sequence[FeatureVector] | np.ndarray, target_dim: int = 2
) -> np.ndarray:
    """Torgerson MDS of Euclidean distances onto ``target_dim`` axes.

    Double-centers the squared-distance matrix, takes the top eigenpairs
    of the symmetric Gram matrix, and scales eigenvectors by
    sqrt(max(eigenvalue, 0)).  The output is centered at the origin, and
    each axis's sign is fixed so its largest-magnitude coordinate is
    positive — distances are invariant, bytes are deterministic.
    """
    if isinstance(vectors, np.ndarray):
        dense = np.asarray(vectors, dtype=np.float64)
    else:
        if len(vectors) == 0:
            raise EmptyDataset("classical_mds needs at least one point")
        dense = np.asarray(vectors_to_csr(list(vectors)).todense())
    n = dense.shape[0]
    if n == 1:
        return np.zeros((1, target_dim))
    gram = dense @ dense.T
    norms = np.diag(gram).copy()
    squared = norms[:, None] + norms[None, :] - 2.0 * gram
    np.maximum(squared, 0.0, out=squared)
    centered = squared - squared.mean(axis=0) - squared.mean(axis=1)[:, None]
    centered += squared.mean()
    b_matrix = -0.5 * centered
    eigenvalues, eigenvectors = np.linalg.eigh(b_matrix)
    top = np.argsort(eigenvalues)[::-1][:target_dim]
    coords = np.zeros((n, target_dim))
    for axis, idx in enumerate(top):
        scale = np.sqrt(max(float(eigenvalues[idx]), 0.0))
        coords[:, axis] = eigenvectors[:, idx] * scale
    coords -= coords.mean(axis=0)
    for axis in range(target_dim):
        column = coords[:, axis]
        peak = int(np.argmax(np.abs(column)))
        if column[peak] < 0:
            coords[:, axis] = -column
    return coords

"""AUC-ROC, score-difference analysis, error sets and classical MDS.

A scored set is three aligned arrays in rev_id order, as
:func:`join_scored` returns them: rev_ids, scores and labels.

``auc_from_arrays`` is the Mann-Whitney statistic computed from rank sums
with average ranks on ties — O(n log n) and exact: tied-rank averages are
multiples of 0.5, so the rank sum is an exact float for any realistic n
and matches brute-force pair counting to the last bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from .corpus import split_keyed
from .errors import DuplicateConflict, EmptyDataset, MalformedLine, SingleClass
from .lines import Source, is_plain, iter_lines

MDS_CAP = 2000
N_BINS = 20


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
    """rev_id sets (sorted tuples): raw FP/FN and their distinct-content reductions."""

    fp: tuple[int, ...]
    fn: tuple[int, ...]
    fp_distinct: tuple[int, ...]
    fn_distinct: tuple[int, ...]


def auc_from_arrays(labels: np.ndarray, scores: np.ndarray) -> float:
    """P(random positive outranks random negative), ties credited 0.5."""
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


def score_diff_histogram(scores: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, int]:
    """20-bin histogram of |label - score| and the count above 0.5.

    Bins are equal width over [0,1], right-open except the last.
    """
    diff = np.abs(labels.astype(np.float64) - scores)
    bins = np.minimum((diff * N_BINS).astype(np.int64), N_BINS - 1)
    return np.bincount(bins, minlength=N_BINS), int(np.count_nonzero(diff > 0.5))


def histogram_rows(histogram: np.ndarray) -> list[tuple[float, float, int]]:
    """(bin_lo, bin_hi, count) rows for serialisation."""
    return [
        (i / N_BINS, (i + 1) / N_BINS, int(histogram[i])) for i in range(N_BINS)
    ]


def join_scored(
    scores: Mapping[int, float], labels: Mapping[int, bool]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The scored rev_ids that have a label, as one scored set.

    Returns ``(rev_ids, scores, labels)``: aligned int64, float64 and
    bool arrays in rev_id order.  Every score must be finite and in [0, 1].
    """
    joined = [rev_id for rev_id in sorted(scores) if rev_id in labels]
    rev_ids = np.array(joined, dtype=np.int64)
    values = np.array([scores[rev_id] for rev_id in joined], dtype=np.float64)
    bad = ~((values >= 0.0) & (values <= 1.0))  # NaN fails both
    if bad.any():
        raise ValueError(f"score must be finite in [0,1], got {float(values[np.argmax(bad)])!r}")
    flags = np.array([bool(labels[rev_id]) for rev_id in joined], dtype=bool)
    return rev_ids, values, flags


def error_sets(
    rev_ids: np.ndarray,
    scores: np.ndarray,
    labels: np.ndarray,
    threshold: float = 0.5,
    rows: Optional[Mapping[int, np.ndarray]] = None,
) -> ErrorSets:
    """FP/FN rev_id sets of a scored set plus their content-distinct reductions.

    FP = negatives scored >= threshold; FN = positives scored < threshold.
    The distinct sets keep one representative (lowest rev_id) per distinct
    encoded row, compared by its bytes: an encoding holds no ``-0.0`` and
    no NaN, so equal bytes mean equal values.  Without ``rows`` every
    example counts as distinct.
    """
    fp = rev_ids[~labels & (scores >= threshold)].tolist()
    fn = rev_ids[labels & (scores < threshold)].tolist()

    def distinct(ids: list[int]) -> tuple[int, ...]:
        if rows is None:
            return tuple(ids)
        first: dict[bytes, int] = {}
        for rev_id in ids:  # ascending, so the first seen is the lowest
            first.setdefault(rows[rev_id].tobytes(), rev_id)
        return tuple(sorted(first.values()))

    return ErrorSets(tuple(fp), tuple(fn), distinct(fp), distinct(fn))


def evaluate_scored(
    scores: np.ndarray, labels: np.ndarray, errors: ErrorSets, distinct: bool
) -> EvalReport:
    """Assemble the full report of a scored set: AUC, histogram and the counts of ``errors``.

    ``distinct`` says whether ``errors`` was reduced by content, so that
    its distinct counts are reported.
    """
    histogram, misclassified = score_diff_histogram(scores, labels)
    positives = int(np.count_nonzero(labels))
    return EvalReport(
        auc=auc_from_arrays(labels, scores),
        histogram=histogram,
        misclassified_count=misclassified,
        fp_total=len(errors.fp),
        fp_distinct=len(errors.fp_distinct) if distinct else None,
        fn_total=len(errors.fn),
        fn_distinct=len(errors.fn_distinct) if distinct else None,
        n=labels.size,
        positives=positives,
        negatives=labels.size - positives,
    )


def parse_score(text: str, line_no: int | None = None) -> float:
    """A score's text: a float in [0, 1]; ``nan`` and ``±inf`` are refused.

    The text is ASCII with no ``_`` and no whitespace, though ``float()``
    takes all three; an exponent is allowed.
    """
    try:
        score = float(text) if is_plain(text) else math.nan
    except ValueError:
        score = math.nan
    if not 0.0 <= score <= 1.0:  # NaN fails both
        raise MalformedLine(f"bad score {text!r}, expected a number in [0, 1]", line_no)
    return score


def load_scores(source: Source) -> dict[int, float]:
    """Read a ``rev_id <TAB> score`` file into a mapping.

    Blank lines are skipped.  Repeating a rev_id with the same score is
    tolerated; a contradiction raises :class:`DuplicateConflict`.
    """
    scores: dict[int, float] = {}
    for line_no, line in enumerate(iter_lines(source), start=1):
        if line == "":
            continue
        rev_id, text = split_keyed(line, line_no)
        score = parse_score(text, line_no)
        if rev_id in scores and scores[rev_id] != score:
            raise DuplicateConflict(f"rev_id {rev_id} scored twice, differently", line_no)
        scores[rev_id] = score
    return scores


def classical_mds(points: np.ndarray) -> np.ndarray:
    """2-D Torgerson MDS of the Euclidean distances between the rows of ``points``.

    Double-centers the squared-distance matrix, takes the top two eigenpairs
    of the symmetric Gram matrix, and scales eigenvectors by
    sqrt(max(eigenvalue, 0)).  The output is centered at the origin, and
    each axis's sign is fixed so its largest-magnitude coordinate is
    positive — distances are invariant, bytes are deterministic.
    """
    dense = np.asarray(points, dtype=np.float64)
    n = dense.shape[0]
    if n == 0:
        raise EmptyDataset("classical_mds needs at least one point")
    if n == 1:
        return np.zeros((1, 2))
    gram = dense @ dense.T
    norms = np.diag(gram).copy()
    squared = norms[:, None] + norms[None, :] - 2.0 * gram
    np.maximum(squared, 0.0, out=squared)
    centered = squared - squared.mean(axis=0) - squared.mean(axis=1)[:, None]
    centered += squared.mean()
    b_matrix = -0.5 * centered
    eigenvalues, eigenvectors = np.linalg.eigh(b_matrix)
    top = np.argsort(eigenvalues)[::-1][:2]
    coords = np.zeros((n, 2))
    for axis, idx in enumerate(top):
        scale = np.sqrt(max(float(eigenvalues[idx]), 0.0))
        coords[:, axis] = eigenvectors[:, idx] * scale
    coords -= coords.mean(axis=0)
    for axis in range(2):
        column = coords[:, axis]
        peak = int(np.argmax(np.abs(column)))
        if column[peak] < 0:
            coords[:, axis] = -column
    return coords

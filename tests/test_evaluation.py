"""AUC, score-difference analysis, error sets and MDS."""

import io

import numpy as np
import pytest

from tests._util import auc_bruteforce, dense_to_vectors, random_scored_dataset
from vandalstack.errors import (
    DuplicateConflict,
    EmptyDataset,
    MalformedLine,
    SingleClass,
)
from vandalstack.evaluation import (
    ErrorSets,
    ScoredExample,
    auc_from_arrays,
    auc_roc,
    classical_mds,
    error_sets,
    evaluate_scored,
    histogram_rows,
    load_scores,
    score_diff_histogram,
)
from vandalstack.featurize import FeatureVector


def se(rev_id, score, label):
    return ScoredExample(rev_id=rev_id, score=score, label=label)


def test_scored_example_validates_score():
    se(1, 0.0, True)
    se(2, 1.0, False)
    with pytest.raises(ValueError):
        se(3, 1.5, True)
    with pytest.raises(ValueError):
        se(4, -0.1, False)
    with pytest.raises(ValueError):
        se(5, float("nan"), True)


def test_auc_hand_computed():
    scored = [se(1, 0.8, True), se(2, 0.4, True), se(3, 0.6, False), se(4, 0.2, False)]
    assert auc_roc(scored) == 0.75


def test_auc_perfect_and_tied():
    perfect = [se(1, 0.9, True), se(2, 0.1, False), se(3, 0.95, True)]
    assert auc_roc(perfect) == 1.0
    tied = [se(1, 0.5, True), se(2, 0.5, False), se(3, 0.5, True)]
    assert auc_roc(tied) == 0.5


def test_auc_reversal_identity():
    rng = np.random.default_rng(0)
    for _ in range(50):
        labels, scores = random_scored_dataset(rng, max_n=60)
        forward = auc_from_arrays(labels, scores)
        backward = auc_from_arrays(labels, 1.0 - scores)
        assert abs(forward + backward - 1.0) < 1e-12


def test_auc_matches_bruteforce_pair_counting():
    rng = np.random.default_rng(1)
    for _ in range(200):
        labels, scores = random_scored_dataset(rng, max_n=60)
        fast = auc_from_arrays(labels, scores)
        slow = auc_bruteforce(labels, scores)
        assert abs(fast - slow) < 1e-12


def test_auc_single_class_rejected():
    with pytest.raises(SingleClass):
        auc_roc([se(1, 0.5, True), se(2, 0.6, True)])


def test_histogram_bin_placement():
    scored = [
        se(1, 1.0, True),     # diff 0.0   -> bin 0
        se(2, 0.75, True),    # diff 0.25  -> bin 5
        se(3, 0.5, True),     # diff 0.5   -> bin 10, not misclassified
        se(4, 0.75, False),   # diff 0.75  -> bin 15, misclassified
        se(5, 1.0, False),    # diff 1.0   -> bin 19 (last bin closed)
    ]
    histogram, misclassified = score_diff_histogram(scored)
    assert histogram.sum() == 5
    assert histogram[0] == 1
    assert histogram[5] == 1
    assert histogram[10] == 1
    assert histogram[15] == 1
    assert histogram[19] == 1
    assert misclassified == 2


def test_histogram_rows_layout():
    histogram, _ = score_diff_histogram([se(1, 1.0, True)])
    rows = histogram_rows(histogram)
    assert len(rows) == 20
    assert rows[0] == (0.0, 0.05, 1)
    assert rows[19] == (0.95, 1.0, 0)
    assert all(hi == pytest.approx(lo + 0.05) for lo, hi, _ in rows)


def test_error_sets_threshold_is_inclusive_for_fp():
    scored = [
        se(1, 0.5, False),   # FP: score == threshold counts
        se(2, 0.49, False),  # true negative
        se(3, 0.5, True),    # true positive (score >= threshold)
        se(4, 0.49, True),   # FN
    ]
    errors = error_sets(scored)
    assert errors.fp == (1,)
    assert errors.fn == (4,)
    assert errors.fp_distinct == (1,)
    assert errors.fn_distinct == (4,)


def test_error_sets_distinct_keeps_lowest_rev_id():
    same = FeatureVector(dim=3, entries=((0, 1.0),))
    other = FeatureVector(dim=3, entries=((1, 2.0),))
    vectors = {10: same, 7: same, 9: other, 3: other, 5: same}
    scored = [
        se(10, 0.9, False),
        se(7, 0.8, False),
        se(9, 0.7, False),
        se(3, 0.1, True),
        se(5, 0.2, True),
    ]
    errors = error_sets(scored, vectors=vectors)
    assert errors.fp == (7, 9, 10)
    assert errors.fp_distinct == (7, 9)  # 10 collapses onto 7
    assert errors.fn == (3, 5)
    assert errors.fn_distinct == (3, 5)  # different vectors stay apart


def test_evaluate_scored_assembles_report():
    scored = [
        se(1, 0.75, True),
        se(2, 0.25, True),   # FN, diff 0.75 -> misclassified
        se(3, 0.25, False),
        se(4, 0.75, False),  # FP, diff 0.75 -> misclassified
    ]
    report = evaluate_scored(scored)
    assert report.n == 4
    assert report.positives == 2 and report.negatives == 2
    assert report.auc == 0.5
    assert report.fp_total == 1 and report.fn_total == 1
    assert report.fp_distinct is None and report.fn_distinct is None
    assert report.misclassified_count == 2
    assert report.histogram.sum() == 4

    vectors = {i: FeatureVector(dim=2, entries=((0, float(i)),)) for i in range(1, 5)}
    with_vectors = evaluate_scored(scored, vectors=vectors)
    assert with_vectors.fp_distinct == 1 and with_vectors.fn_distinct == 1


def test_load_scores_round_trip_and_errors(tmp_path):
    path = tmp_path / "scores.tsv"
    path.write_text("5\t0.25\n3\t0.5\n5\t0.25\n")
    assert load_scores(path) == {5: 0.25, 3: 0.5}
    assert load_scores(io.StringIO("1\t1.0\n")) == {1: 1.0}

    with pytest.raises(DuplicateConflict):
        load_scores(io.StringIO("5\t0.25\n5\t0.3\n"))
    with pytest.raises(MalformedLine):
        load_scores(io.StringIO("5\t0.25\textra\n"))
    with pytest.raises(MalformedLine):
        load_scores(io.StringIO("abc\t0.25\n"))
    with pytest.raises(MalformedLine):
        load_scores(io.StringIO("5\tnot-a-float\n"))


@pytest.mark.parametrize(
    "bad", ["nan", "-nan", "inf", "-inf", "1.5", "-0.25", "1e400", "0x1p-1"]
)
def test_load_scores_rejects_scores_outside_the_unit_interval(bad):
    with pytest.raises(MalformedLine) as info:
        load_scores(io.StringIO(f"1\t0.5\n2\t{bad}\n"))
    assert info.value.line_no == 2


def test_load_scores_rejects_rev_ids_int_refuses():
    with pytest.raises(MalformedLine) as info:
        load_scores(io.StringIO("1²\t0.5\n"))
    assert info.value.line_no == 1


def pairwise(coords):
    diff = coords[:, None, :] - coords[None, :, :]
    return np.sqrt((diff ** 2).sum(axis=2))


def test_mds_recovers_collinear_points():
    X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    coords = classical_mds(X)
    assert coords.shape == (3, 2)
    assert np.max(np.abs(pairwise(coords) - pairwise(X))) < 1e-6
    # a line needs one axis; the second must be (numerically) flat
    assert np.max(np.abs(coords[:, 1])) < 1e-6


def test_mds_recovers_planar_configurations():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(2, 40))
        planar = rng.normal(size=(n, 2)) * rng.uniform(0.5, 3.0)
        # embed the plane isometrically into 7 dimensions
        basis, _ = np.linalg.qr(rng.normal(size=(7, 2)))
        X = planar @ basis.T
        coords = classical_mds(X)
        assert np.max(np.abs(pairwise(coords) - pairwise(planar))) < 1e-6


def test_mds_single_point_maps_to_origin():
    assert np.array_equal(classical_mds(np.array([[3.0, 4.0, 5.0]])), np.zeros((1, 2)))
    one = [FeatureVector(dim=3, entries=((1, 2.0),))]
    assert np.array_equal(classical_mds(one), np.zeros((1, 2)))


def test_mds_deterministic_and_sign_fixed():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(12, 5))
    a = classical_mds(X)
    b = classical_mds(X)
    assert np.array_equal(a, b)
    for axis in range(a.shape[1]):
        peak = int(np.argmax(np.abs(a[:, axis])))
        assert a[peak, axis] >= 0


def test_mds_vector_input_matches_dense_input():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(8, 4)) * (rng.random((8, 4)) < 0.7)
    assert np.allclose(classical_mds(X), classical_mds(dense_to_vectors(X)), atol=1e-12)


def test_mds_empty_input_rejected():
    with pytest.raises(EmptyDataset):
        classical_mds([])

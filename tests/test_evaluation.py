"""AUC, score-difference analysis, error sets and MDS."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests._util import auc_bruteforce, random_scored_dataset, rev
from vandalstack.errors import (
    DuplicateConflict,
    EmptyDataset,
    MalformedLine,
    SingleClass,
)
from vandalstack.evaluation import (
    N_BINS,
    auc_from_arrays,
    classical_mds,
    error_sets,
    evaluate_scored,
    histogram_rows,
    join_scored,
    load_scores,
    score_diff_histogram,
)
from vandalstack.featurize import build_schema, encode, encode_matrix, extract_many


def joined(*examples):
    """The scored set of ``(rev_id, score, label)`` examples, as join_scored builds it."""
    return join_scored(
        {rev_id: score for rev_id, score, _ in examples},
        {rev_id: label for rev_id, _, label in examples},
    )


def test_join_scored_validates_score():
    joined((1, 0.0, True))
    joined((2, 1.0, False))
    with pytest.raises(ValueError):
        joined((3, 1.5, True))
    with pytest.raises(ValueError):
        joined((4, -0.1, False))
    with pytest.raises(ValueError):
        joined((5, float("nan"), True))


def test_join_scored_aligns_labelled_rev_ids_in_order():
    rev_ids, scores, labels = join_scored({9: 0.25, 2: 0.75, 5: 0.5}, {5: False, 9: True, 7: True})
    assert rev_ids.tolist() == [5, 9]
    assert scores.tolist() == [0.5, 0.25]
    assert labels.tolist() == [False, True]
    assert (rev_ids.dtype, scores.dtype, labels.dtype) == (np.int64, np.float64, bool)


def test_auc_hand_computed():
    _, scores, labels = joined((1, 0.8, True), (2, 0.4, True), (3, 0.6, False), (4, 0.2, False))
    assert auc_from_arrays(labels, scores) == 0.75


def test_auc_perfect_and_tied():
    _, scores, labels = joined((1, 0.9, True), (2, 0.1, False), (3, 0.95, True))
    assert auc_from_arrays(labels, scores) == 1.0
    _, scores, labels = joined((1, 0.5, True), (2, 0.5, False), (3, 0.5, True))
    assert auc_from_arrays(labels, scores) == 0.5


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
    _, scores, labels = joined((1, 0.5, True), (2, 0.6, True))
    with pytest.raises(SingleClass):
        auc_from_arrays(labels, scores)


def test_histogram_bin_placement():
    _, scores, labels = joined(
        (1, 1.0, True),     # diff 0.0   -> bin 0
        (2, 0.75, True),    # diff 0.25  -> bin 5
        (3, 0.5, True),     # diff 0.5   -> bin 10, not misclassified
        (4, 0.75, False),   # diff 0.75  -> bin 15, misclassified
        (5, 1.0, False),    # diff 1.0   -> bin 19 (last bin closed)
    )
    histogram, misclassified = score_diff_histogram(scores, labels)
    assert histogram.sum() == 5
    assert histogram[0] == 1
    assert histogram[5] == 1
    assert histogram[10] == 1
    assert histogram[15] == 1
    assert histogram[19] == 1
    assert misclassified == 2


def test_histogram_rows_layout():
    _, scores, labels = joined((1, 1.0, True))
    histogram, _ = score_diff_histogram(scores, labels)
    rows = histogram_rows(histogram)
    assert len(rows) == 20
    assert rows[0] == (0.0, 0.05, 1)
    assert rows[19] == (0.95, 1.0, 0)
    assert all(hi == pytest.approx(lo + 0.05) for lo, hi, _ in rows)


def test_error_sets_threshold_is_inclusive_for_fp():
    errors = error_sets(
        *joined(
            (1, 0.5, False),   # FP: score == threshold counts
            (2, 0.49, False),  # true negative
            (3, 0.5, True),    # true positive (score >= threshold)
            (4, 0.49, True),   # FN
        )
    )
    assert errors.fp == (1,)
    assert errors.fn == (4,)
    assert errors.fp_distinct == (1,)
    assert errors.fn_distinct == (4,)


def test_error_sets_distinct_keeps_lowest_rev_id():
    same = np.array([1.0, 0.0, 0.0])
    other = np.array([0.0, 2.0, 0.0])
    rows = {10: same, 7: same.copy(), 9: other, 3: other, 5: same}
    scored = joined(
        (10, 0.9, False),
        (7, 0.8, False),
        (9, 0.7, False),
        (3, 0.1, True),
        (5, 0.2, True),
    )
    errors = error_sets(*scored, rows=rows)
    assert errors.fp == (7, 9, 10)
    assert errors.fp_distinct == (7, 9)  # 10 collapses onto 7
    assert errors.fn == (3, 5)
    assert errors.fn_distinct == (3, 5)  # different vectors stay apart


def test_evaluate_scored_assembles_report():
    rev_ids, scores, labels = joined(
        (1, 0.75, True),
        (2, 0.25, True),   # FN, diff 0.75 -> misclassified
        (3, 0.25, False),
        (4, 0.75, False),  # FP, diff 0.75 -> misclassified
    )
    report = evaluate_scored(scores, labels, error_sets(rev_ids, scores, labels), distinct=False)
    assert report.n == 4
    assert report.positives == 2 and report.negatives == 2
    assert report.auc == 0.5
    assert report.fp_total == 1 and report.fn_total == 1
    assert report.fp_distinct is None and report.fn_distinct is None
    assert report.misclassified_count == 2
    assert report.histogram.sum() == 4

    rows = {i: np.array([float(i), 0.0]) for i in range(1, 5)}
    errors = error_sets(rev_ids, scores, labels, rows=rows)
    with_rows = evaluate_scored(scores, labels, errors, distinct=True)
    assert with_rows.fp_distinct == 1 and with_rows.fn_distinct == 1


# scores on a coarse grid, so that ties, the bin edges and 0.5 come up often
grid_scores = st.integers(0, 40).map(lambda k: k / 40)
scored_sets = st.dictionaries(
    st.integers(1, 10**6), st.tuples(grid_scores, st.booleans()), min_size=1, max_size=60
)


@settings(max_examples=200, deadline=None)
@given(scored_sets, grid_scores)
def test_the_array_forms_match_a_per_example_reference(examples, threshold):
    rev_ids, scores, labels = joined(*((r, s, l) for r, (s, l) in examples.items()))
    order = sorted(examples)
    assert rev_ids.tolist() == order
    histogram, misclassified = score_diff_histogram(scores, labels)
    want = [0] * N_BINS
    for rev_id in order:
        score, label = examples[rev_id]
        diff = abs((1.0 if label else 0.0) - score)
        want[min(int(diff * N_BINS), N_BINS - 1)] += 1
    assert histogram.tolist() == want
    assert misclassified == sum(
        abs((1.0 if label else 0.0) - score) > 0.5 for score, label in examples.values()
    )
    errors = error_sets(rev_ids, scores, labels, threshold)
    negatives = [r for r in order if not examples[r][1]]
    positives = [r for r in order if examples[r][1]]
    assert errors.fp == tuple(r for r in negatives if examples[r][0] >= threshold)
    assert errors.fn == tuple(r for r in positives if examples[r][0] < threshold)
    if labels.all() or not labels.any():
        with pytest.raises(SingleClass):
            auc_from_arrays(labels, scores)
        return
    pairs = [
        1.0 if p > n else 0.5 if p == n else 0.0
        for p, lp in examples.values() if lp
        for n, ln in examples.values() if not ln
    ]
    assert auc_from_arrays(labels, scores) == sum(pairs) / len(pairs)


def test_load_scores_round_trip_and_errors(tmp_path):
    path = tmp_path / "scores.tsv"
    path.write_text("5\t0.25\n3\t0.5\n5\t0.25\n")
    assert load_scores(path) == {5: 0.25, 3: 0.5}
    assert load_scores(io.BytesIO("1\t1.0\n".encode())) == {1: 1.0}

    with pytest.raises(DuplicateConflict):
        load_scores(io.BytesIO("5\t0.25\n5\t0.3\n".encode()))
    with pytest.raises(MalformedLine):
        load_scores(io.BytesIO("5\t0.25\textra\n".encode()))
    with pytest.raises(MalformedLine):
        load_scores(io.BytesIO("abc\t0.25\n".encode()))
    with pytest.raises(MalformedLine):
        load_scores(io.BytesIO("5\tnot-a-float\n".encode()))


@pytest.mark.parametrize(
    "bad",
    ["nan", "-nan", "inf", "-inf", "1.5", "-0.25", "1e400", "0x1p-1", "٠.٥", "0.2_5", " 0.5 "],
)
def test_load_scores_rejects_scores_outside_the_unit_interval(bad):
    with pytest.raises(MalformedLine) as info:
        load_scores(io.BytesIO(f"1\t0.5\n2\t{bad}\n".encode()))
    assert info.value.line_no == 2


def test_load_scores_rejects_rev_ids_int_refuses():
    with pytest.raises(MalformedLine) as info:
        load_scores(io.BytesIO("1²\t0.5\n".encode()))
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


def test_mds_deterministic_and_sign_fixed():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(12, 5))
    a = classical_mds(X)
    b = classical_mds(X)
    assert np.array_equal(a, b)
    for axis in range(a.shape[1]):
        peak = int(np.argmax(np.abs(a[:, axis])))
        assert a[peak, axis] >= 0


def test_equal_row_bytes_mean_equal_feature_vectors():
    # the distinct-content key of error_sets is an encoded row's bytes
    revisions = [
        rev(1, "[[a]] hi"),
        rev(2, "[[a]] hi"),
        rev(3, "[[a]] hi!", registered=True),
        rev(4, "", country="DE"),
        rev(5, "", country="DE"),
        rev(6, "", country="FR"),
        rev(7, "HELLO"),
        rev(8, "hello"),
    ]
    raws = extract_many(revisions)
    schema = build_schema(raws[:-1])  # the last row's values fall outside it
    X = encode_matrix(raws, schema)
    vectors = [encode(raw, schema) for raw in raws]
    for i in range(len(raws)):
        for j in range(len(raws)):
            assert (X[i].tobytes() == X[j].tobytes()) == (vectors[i] == vectors[j])
    assert X[0].tobytes() == X[1].tobytes() and X[3].tobytes() == X[4].tobytes()


def test_mds_empty_input_rejected():
    with pytest.raises(EmptyDataset):
        classical_mds([])

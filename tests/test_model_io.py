"""Text persistence of trained models: round trips must be exact."""

import io

import numpy as np
import pytest

from vandalstack.errors import MalformedLine
from vandalstack.learners import (
    ExtraTreesClassifier,
    GradientBoostingClassifier,
    LogisticRegression,
    MLPClassifier,
    RandomForestClassifier,
)
from vandalstack.learners.io import (
    MODEL_HEADER,
    load_model,
    model_from_lines,
    model_to_lines,
    save_model,
)


def fitted_models():
    rng = np.random.default_rng(0)
    X = rng.random((60, 5)) * (rng.random((60, 5)) < 0.6)
    y = (X[:, 0] + X[:, 1] > 0.5).astype(np.int64)
    models = [
        RandomForestClassifier(n_estimators=3, max_depth=3, seed=1).fit(X, y),
        ExtraTreesClassifier(n_estimators=3, max_depth=4, seed=2).fit(X, y),
        GradientBoostingClassifier(n_estimators=4, max_depth=2, seed=3).fit(X, y),
        LogisticRegression(l2=0.5).fit(X, y),
        MLPClassifier(hidden_units=4, max_epochs=20, seed=4).fit(X, y),
    ]
    return models, X


def test_round_trip_predictions_are_bitwise_equal():
    models, X = fitted_models()
    for model in models:
        loaded = model_from_lines(model_to_lines(model))
        assert type(loaded) is type(model)
        assert np.array_equal(loaded.predict_proba(X), model.predict_proba(X))


def test_round_trip_text_is_byte_stable():
    models, _ = fitted_models()
    for model in models:
        lines = model_to_lines(model)
        again = model_to_lines(model_from_lines(lines))
        assert again == lines


def test_hyperparameters_survive_round_trip():
    models, _ = fitted_models()
    for model in models:
        loaded = model_from_lines(model_to_lines(model))
        assert loaded.get_params() == model.get_params()


def test_save_and_load_via_path_and_stream(tmp_path):
    models, X = fitted_models()
    model = models[2]
    path = tmp_path / "model.txt"
    save_model(model, path)
    assert path.read_text().splitlines()[0] == MODEL_HEADER
    loaded = load_model(path)
    assert np.array_equal(loaded.predict_proba(X), model.predict_proba(X))

    buffer = io.StringIO()
    save_model(model, buffer)
    buffer.seek(0)
    loaded2 = load_model(buffer)
    assert np.array_equal(loaded2.predict_proba(X), model.predict_proba(X))


def test_tampered_header_rejected():
    models, _ = fitted_models()
    lines = model_to_lines(models[3])
    with pytest.raises(MalformedLine):
        model_from_lines(["vandalstack-model v999"] + lines[1:])
    with pytest.raises(MalformedLine):
        model_from_lines(lines[:-1])  # missing end marker
    with pytest.raises(MalformedLine):
        model_from_lines(lines[:1] + ["garbage here"] + lines[1:])


def test_unfitted_model_cannot_be_saved():
    with pytest.raises(Exception):
        model_to_lines(LogisticRegression())


# a depth-2 boosted tree over two features; node lines are file lines 12-18
TREE_MODEL = """vandalstack-model v1
family gradient_boosting
dim 2
seed 0
param learning_rate 0.1
param max_depth 3
param n_estimators 1
base_score 0.0
importances 0.5 0.5
trees 1
tree 7
node 0 0.5 1 2 0.0
node 1 0.5 3 4 0.0
node 1 0.25 5 6 0.0
node -1 nan -1 -1 0.1
node -1 nan -1 -1 0.2
node -1 nan -1 -1 0.3
node -1 nan -1 -1 0.4
end""".split("\n")


def test_hand_written_tree_model_loads_and_scores():
    model = model_from_lines(TREE_MODEL)
    X = np.array([[0.5, 0.5], [0.5, 0.75], [0.75, 0.25], [np.nan, np.nan]])
    assert np.array_equal(model.decision_function(X), 0.1 * np.array([0.1, 0.2, 0.3, 0.4]))


@pytest.mark.parametrize(
    "line_no, text, reported",
    [
        (13, "node 1 0.5 0 1 0.0", 13),  # back to the root: a cycle
        (13, "node 1 0.5 1 2 0.0", 13),  # a node that is its own child
        (14, "node 1 0.25 7 8 0.0", 14),  # children past the end of the tree
        (12, "node 0 0.5 2 1 0.0", 12),  # right child is not left + 1
        (14, "node 1 0.25 3 4 0.0", 15),  # node 15 gets two parents
        (13, "node 2 0.5 3 4 0.0", 13),  # feature >= dim
        (13, "node -2 0.5 3 4 0.0", 13),
        (15, "node -1 0.5 -1 -1 0.1", 15),  # leaf with a threshold
        (15, "node -1 nan 3 4 0.1", 15),  # leaf with children
        (16, "node -1 nan -1 -1 abc", 16),  # non-numeric tokens
        (12, "node x 0.5 1 2 0.0", 12),
        (14, "node 1 0.25 5.0 6 0.0", 14),
        (16, "nodes -1 nan -1 -1 0.2", 16),
        (16, "node -1 nan -1 -1 0.2 7", 16),
        (16, "node -1 nan -1 -1", 16),
        (11, "tree 0", 11),
        (11, "tree seven", 11),
        (10, "trees -1", 10),
        (3, "dim two", 3),
    ],
)
def test_corrupt_tree_fails_at_load_naming_the_line(line_no, text, reported):
    lines = list(TREE_MODEL)
    lines[line_no - 1] = text
    with pytest.raises(MalformedLine) as info:
        model_from_lines(lines)
    assert info.value.line_no == reported


def test_tree_running_past_the_model_block_is_rejected():
    lines = list(TREE_MODEL)
    lines[10] = "tree 9"
    with pytest.raises(MalformedLine) as info:
        model_from_lines(lines)
    assert info.value.line_no == 11


def test_forest_without_trees_is_rejected():
    models, _ = fitted_models()
    lines = model_to_lines(models[0])
    at = next(i for i, line in enumerate(lines) if line.startswith("trees "))
    with pytest.raises(MalformedLine) as info:
        model_from_lines(lines[:at] + ["trees 0", "end"])
    assert info.value.line_no == at + 1


# hand-written models of the other families; the fitted block is on lines 8-9
# (logistic regression) and 12-13 (mlp: dim 2, 2 hidden units, 9 parameters)
LINEAR_MODEL = """vandalstack-model v1
family logistic_regression
dim 2
seed 0
param l2 1.0
param max_iter 1000
param tol 1e-06
bias 0.5
coef 0.25 -0.5
end""".split("\n")

MLP_MODEL = """vandalstack-model v1
family mlp
dim 2
seed 0
param alpha 0.0001
param batch_size 32
param hidden_units 2
param learning_rate 0.001
param max_epochs 200
param patience 10
param tol 1e-05
layers 2 2
theta 0.1 0.2 0.3 0.4 0.0 0.0 0.5 -0.5 0.0
end""".split("\n")


def test_hand_written_models_load_and_round_trip():
    for lines in (TREE_MODEL, LINEAR_MODEL, MLP_MODEL):
        model = model_from_lines(lines)
        assert model_to_lines(model) == lines
        assert model.predict_proba(np.array([[0.5, 0.25]])).shape == (1,)


@pytest.mark.parametrize(
    "model, line_no, text, reported",
    [
        (TREE_MODEL, 9, "importances x 0.5", 9),
        (TREE_MODEL, 9, "importances 0.5", 9),  # dim is 2
        (TREE_MODEL, 9, "importances 0.5 0.25 0.25", 9),
        (TREE_MODEL, 9, "importances 0.5  0.5", 9),
        (TREE_MODEL, 8, "base_score zero", 8),
        (TREE_MODEL, 8, "base_score 0.1 0.2", 8),
        (TREE_MODEL, 5, "param bogus 3", 5),  # not a parameter of the family
        (TREE_MODEL, 5, "param lonely", 5),
        (TREE_MODEL, 5, "param learning_rate", 5),
        (TREE_MODEL, 5, "param seed 3", 5),  # the seed has its own line
        (LINEAR_MODEL, 8, "bias x", 8),
        (LINEAR_MODEL, 8, "bias", 8),
        (LINEAR_MODEL, 9, "coef 1.0", 9),
        (LINEAR_MODEL, 9, "coef 1.0 y", 9),
        (LINEAR_MODEL, 9, "coef 1.0 2.0 3.0", 9),
        (MLP_MODEL, 13, "theta 0.1 0.2", 13),  # needs d*h + 2h + 1 = 9
        (MLP_MODEL, 13, "theta 0.1 0.2 0.3 0.4 0.0 0.0 0.5 -0.5 0.0 0.0", 13),
        (MLP_MODEL, 13, "theta 0.1 0.2 0.3 0.4 0.0 0.0 0.5 -0.5 zz", 13),
        (MLP_MODEL, 12, "layers 3 2", 12),  # disagrees with dim
        (MLP_MODEL, 12, "layers 2 3", 12),  # disagrees with hidden_units
        (MLP_MODEL, 12, "layers 2", 12),
        (MLP_MODEL, 7, "param hidden_units 3", 12),
        (MLP_MODEL, 7, "param hidden_units x", 12),
    ],
)
def test_corrupt_model_line_fails_at_load_naming_the_line(model, line_no, text, reported):
    lines = list(model)
    lines[line_no - 1] = text
    with pytest.raises(MalformedLine) as info:
        model_from_lines(lines)
    assert info.value.line_no == reported

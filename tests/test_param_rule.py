"""One parameter rule: the constructor annotation, checked alike by fit, model files and specs."""

import json

import numpy as np
import pytest

from tests._util import schema_of_width
from vandalstack.errors import MalformedLine
from vandalstack.learners import BUILTIN_FAMILIES, ModelSpec
from vandalstack.learners.base import _domains, param_problem
from vandalstack.learners.io import model_from_lines, model_to_lines
from vandalstack.stacking import StackConfig, fit_stack, pipeline_from_lines, pipeline_to_lines

# (family, parameter, the bound or the least value above it, a value just past the bound)
BOUNDED = [
    ("random_forest", "n_estimators", 1, 0),
    ("random_forest", "max_depth", 1, 0),
    ("random_forest", "max_features", 1, 0),
    ("extra_trees", "n_estimators", 1, 0),
    ("extra_trees", "max_depth", 1, 0),
    ("extra_trees", "max_features", 1, 0),
    ("gradient_boosting", "n_estimators", 0, -1),
    ("gradient_boosting", "learning_rate", 5e-324, 0.0),
    ("gradient_boosting", "max_depth", 1, 0),
    ("logistic_regression", "l2", 0.0, -5e-324),
    ("mlp", "hidden_units", 1, 0),
    ("mlp", "learning_rate", 5e-324, 0.0),
    ("mlp", "max_epochs", 1, 0),
]

# small enough to fit in a few milliseconds
QUICK = {
    "random_forest": {"n_estimators": 2},
    "extra_trees": {"n_estimators": 2},
    "gradient_boosting": {"n_estimators": 2},
    "logistic_regression": {"max_iter": 20},
    "mlp": {"hidden_units": 2, "max_epochs": 2},
}


def data():
    rng = np.random.default_rng(0)
    X = rng.random((24, 3))
    y = (X[:, 0] > 0.5).astype(np.int64)
    y[:2] = 0, 1
    return X, y


def fitted(family, params):
    return BUILTIN_FAMILIES[family](**{**QUICK[family], **params}).fit(*data())


def pipeline_lines(family, params):
    config = StackConfig(
        first_stage=(ModelSpec(family, {**QUICK[family], **params}),),
        second_stage=(ModelSpec("logistic_regression"),),
        k=2,
        seed=1,
    )
    return list(pipeline_to_lines(fit_stack(*data(), config, schema=schema_of_width(3))))


def test_every_bounded_parameter_is_listed():
    bounded = {
        (family, name)
        for family, cls in BUILTIN_FAMILIES.items()
        for name, forms in _domains(cls).items()
        if any(bound for _, bound in forms)
    }
    assert bounded == {(family, name) for family, name, _, _ in BOUNDED}


@pytest.mark.parametrize("family, name, bound, past", BOUNDED)
def test_a_value_past_the_bound_is_refused_alike_by_fit_file_and_spec(family, name, bound, past):
    problem = param_problem(BUILTIN_FAMILIES[family], name, past)
    assert problem is not None and param_problem(BUILTIN_FAMILIES[family], name, bound) is None

    with pytest.raises(ValueError) as via_fit:
        fitted(family, {name: past})
    assert str(via_fit.value) == problem

    lines = model_to_lines(fitted(family, {name: bound}))
    at = lines.index(f"param {name} {bound!r}")
    lines[at] = f"param {name} {past!r}"
    with pytest.raises(MalformedLine) as via_file:
        model_from_lines(lines)
    assert via_file.value.line_no == at + 1 and problem in str(via_file.value)

    lines = pipeline_lines(family, {name: bound})
    at = next(i for i, line in enumerate(lines) if line.startswith("spec first 0 "))
    spec = json.loads(lines[at][len("spec first 0 ") :])
    spec["hyperparameters"][name] = past
    lines[at] = "spec first 0 " + json.dumps(spec, sort_keys=True)
    with pytest.raises(MalformedLine) as via_spec:
        pipeline_from_lines(lines)
    assert via_spec.value.line_no == at + 1 and problem in str(via_spec.value)


@pytest.mark.parametrize("family, name, bound, past", BOUNDED)
def test_the_bound_is_accepted_by_fit_file_and_spec(family, name, bound, past):
    model = fitted(family, {name: bound})
    lines = model_to_lines(model)
    assert model_to_lines(model_from_lines(lines)) == lines
    lines = pipeline_lines(family, {name: bound})
    assert list(pipeline_to_lines(pipeline_from_lines(lines))) == lines


@pytest.mark.parametrize(
    "family, params",
    [
        ("random_forest", {"max_depth": None, "max_features": None, "bootstrap": False}),
        ("random_forest", {"max_features": 7, "max_depth": 12}),
        ("extra_trees", {"max_features": "sqrt", "bootstrap": True}),
        ("gradient_boosting", {"learning_rate": 2, "max_depth": None}),
        ("gradient_boosting", {"learning_rate": 1e300, "n_estimators": 1}),
        ("logistic_regression", {"l2": 0, "max_iter": 0, "tol": -1.0}),
        ("logistic_regression", {"l2": 1e9, "max_iter": -3, "tol": 0.0}),
        ("mlp", {"batch_size": 0, "patience": 0, "alpha": -1.0, "tol": -1.0}),
        ("mlp", {"batch_size": -5, "patience": -1, "alpha": 0.0, "tol": 0}),
    ],
)
def test_values_inside_every_domain_still_fit(family, params):
    model = fitted(family, params)
    assert model_from_lines(model_to_lines(model)).get_params() == model.get_params()


def test_a_pipeline_whose_spec_and_model_agree_on_a_bad_value_fails_at_load():
    lines = pipeline_lines("gradient_boosting", {"learning_rate": 0.5})
    for at, line in enumerate(lines):
        if line == "param learning_rate 0.5":
            lines[at] = "param learning_rate -0.5"
        elif line.startswith("spec first 0 "):
            lines[at] = line.replace('"learning_rate": 0.5', '"learning_rate": -0.5')
            spec_at = at
    assert sum(line == "param learning_rate -0.5" for line in lines) == 2  # both fold models
    with pytest.raises(MalformedLine) as info:
        pipeline_from_lines(lines)
    assert info.value.line_no == spec_at + 1
    assert "learning_rate takes finite number > 0" in str(info.value)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("family", sorted(QUICK))
def test_fit_refuses_a_non_finite_matrix_naming_its_first_bad_cell(family, bad):
    rng = np.random.default_rng(3)
    X = rng.normal(size=(40, 3))
    y = np.arange(40) % 2
    X[17, 2] = X[25, 0] = bad
    model = BUILTIN_FAMILIES[family](**QUICK[family])
    with pytest.raises(ValueError, match=rf"row 17, column 2 holds {bad}"):
        model.fit(X, y)


@pytest.mark.parametrize("family", ["random_forest", "extra_trees", "gradient_boosting"])
def test_a_tree_model_still_sends_nan_right_at_prediction(family):
    rng = np.random.default_rng(4)
    X = rng.normal(size=(40, 3))
    model = BUILTIN_FAMILIES[family](**QUICK[family]).fit(X, (X[:, 0] > 0).astype(int))
    nan, big = X.copy(), X.copy()
    nan[:, 0], big[:, 0] = np.nan, np.inf
    assert model.predict_proba(nan).tobytes() == model.predict_proba(big).tobytes()


"""Fold plans, out-of-fold purity, meta-features and pipeline persistence."""

import io

import numpy as np
import pytest
from scipy import sparse

from vandalstack.errors import (
    DimensionMismatch,
    EmptyList,
    MalformedLine,
    TooFewExamples,
    UsageError,
)
from vandalstack.featurize import FeatureVector, build_schema, extract_many
from vandalstack.learners import ModelSpec, register_family, _REGISTRY
from vandalstack.learners.base import check_matrix
from vandalstack.stacking import (
    StackConfig,
    default_stack_config,
    fit_stack,
    kfold_assign,
    load_pipeline,
    mean_ensemble,
    pipeline_from_lines,
    pipeline_to_lines,
    predict_stack,
    predict_stack_batch,
    save_pipeline,
    stack_meta_features,
)


class ConstModel:
    """Ignores the data; predicts one fixed score."""

    def __init__(self, value=0.5, seed=0):
        self.value = value
        self.seed = seed

    def fit(self, X, y):
        self.n_features_ = check_matrix(X).shape[1]
        return self

    def predict_proba(self, X):
        return np.full(check_matrix(X).shape[0], self.value)


class MemorizerModel:
    """Returns the training label for rows it has seen, 0.5 otherwise.

    Planted into the first stage, it proves the out-of-fold meta-features
    never come from a model that saw the row: any leak shows up as a
    non-0.5 value.
    """

    def __init__(self, seed=0):
        self.seed = seed

    @staticmethod
    def _key(X, i):
        row = X.getrow(i)
        return row.indices.tobytes(), row.data.tobytes()

    def fit(self, X, y):
        X = check_matrix(X)
        self.table_ = {self._key(X, i): float(y[i]) for i in range(X.shape[0])}
        self.n_features_ = X.shape[1]
        return self

    def predict_proba(self, X):
        X = check_matrix(X)
        return np.array(
            [self.table_.get(self._key(X, i), 0.5) for i in range(X.shape[0])]
        )


@pytest.fixture
def probe_families():
    register_family("const", ConstModel)
    register_family("memorizer", MemorizerModel)
    yield
    _REGISTRY.pop("const", None)
    _REGISTRY.pop("memorizer", None)


def random_data(rng, n=30, d=4):
    X = sparse.csr_matrix(rng.random((n, d)))
    y = rng.integers(0, 2, size=n)
    y[0], y[1] = 0, 1  # both classes present
    return X, y


def test_kfold_sizes_balanced():
    plan = kfold_assign(6, 3, seed=0)
    assert np.bincount(plan.assignment, minlength=3).tolist() == [2, 2, 2]
    plan = kfold_assign(7, 3, seed=5)
    assert sorted(np.bincount(plan.assignment, minlength=3).tolist()) == [2, 2, 3]


def test_kfold_assignment_properties():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(2, 60))
        k = int(rng.integers(2, min(n, 6) + 1))
        seed = int(rng.integers(1 << 30))
        plan = kfold_assign(n, k, seed)
        assert plan.assignment.shape == (n,)
        assert plan.assignment.min() >= 0 and plan.assignment.max() < k
        counts = np.bincount(plan.assignment, minlength=k)
        assert counts.max() - counts.min() <= 1
        again = kfold_assign(n, k, seed)
        assert np.array_equal(plan.assignment, again.assignment)


def test_kfold_rejects_bad_arguments():
    with pytest.raises(UsageError):
        kfold_assign(10, 1, seed=0)
    with pytest.raises(TooFewExamples):
        kfold_assign(2, 3, seed=0)


def test_default_config_has_six_meta_columns():
    cfg = default_stack_config()
    assert len(cfg.first_stage) == 6
    assert len(cfg.second_stage) == 4
    assert cfg.k == 3


def test_config_rejects_empty_stages():
    with pytest.raises(UsageError):
        StackConfig(first_stage=(), second_stage=(ModelSpec("mlp"),))
    with pytest.raises(UsageError):
        StackConfig(first_stage=(ModelSpec("mlp"),), second_stage=())


def test_out_of_fold_rows_never_seen_by_their_model(probe_families):
    rng = np.random.default_rng(1)
    X, y = random_data(rng, n=31)  # uneven folds too
    cfg = StackConfig(
        first_stage=(ModelSpec("memorizer"),),
        second_stage=(ModelSpec("const", {"value": 0.5}),),
        k=3,
        seed=9,
    )
    pipeline = fit_stack(X, y, cfg)
    assert np.all(pipeline.oof_ == 0.5)


def test_constant_fold_models_pin_meta_and_final_score(probe_families):
    rng = np.random.default_rng(2)
    X, y = random_data(rng)
    cfg = StackConfig(
        first_stage=(ModelSpec("const", {"value": 0.7}),),
        second_stage=tuple(
            ModelSpec("const", {"value": v}) for v in (0.2, 0.4, 0.6, 0.8)
        ),
        k=3,
        seed=0,
    )
    pipeline = fit_stack(X, y, cfg)
    meta = stack_meta_features(pipeline, X)
    assert meta.shape == (X.shape[0], 1)
    assert np.allclose(meta, 0.7, atol=1e-12)
    scores = predict_stack_batch(pipeline, X)
    # the final score is the plain mean of the second-stage outputs
    assert np.allclose(scores, 0.5, atol=1e-15)


def test_mean_ensemble_pins():
    assert mean_ensemble([0.2, 0.4, 0.6, 0.8]) == pytest.approx(0.5, abs=1e-15)
    assert mean_ensemble([0.37]) == 0.37
    assert mean_ensemble([0.0, 1.0]) == 0.5
    with pytest.raises(EmptyList):
        mean_ensemble([])


def small_real_config(k=3, refit_full=False):
    return StackConfig(
        first_stage=(
            ModelSpec("gradient_boosting", {"n_estimators": 3, "max_depth": 2}),
            ModelSpec("logistic_regression"),
        ),
        second_stage=(ModelSpec("gradient_boosting", {"n_estimators": 3}),),
        k=k,
        seed=4,
        refit_full=refit_full,
    )


def test_fold_model_count_and_oof_range():
    rng = np.random.default_rng(3)
    X, y = random_data(rng, n=24)
    cfg = small_real_config()
    pipeline = fit_stack(X, y, cfg)
    assert len(pipeline.fold_models) == len(cfg.first_stage)
    assert all(len(per) == cfg.k for per in pipeline.fold_models)
    assert pipeline.oof_.shape == (24, len(cfg.first_stage))
    assert np.all((pipeline.oof_ >= 0) & (pipeline.oof_ <= 1))
    assert pipeline.full_models is None


def test_pipeline_persistence_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    X, y = random_data(rng, n=24)
    pipeline = fit_stack(X, y, small_real_config())
    before = predict_stack_batch(pipeline, X)

    lines = pipeline_to_lines(pipeline)
    loaded = pipeline_from_lines(lines)
    assert np.array_equal(predict_stack_batch(loaded, X), before)
    assert pipeline_to_lines(loaded) == lines

    path = tmp_path / "pipeline.txt"
    save_pipeline(pipeline, path)
    from_disk = load_pipeline(path)
    assert np.array_equal(predict_stack_batch(from_disk, X), before)

    buffer = io.StringIO()
    save_pipeline(pipeline, buffer)
    buffer.seek(0)
    assert np.array_equal(predict_stack_batch(load_pipeline(buffer), X), before)


def test_fit_twice_gives_identical_pipeline_bytes():
    rng = np.random.default_rng(5)
    X, y = random_data(rng, n=24)
    a = pipeline_to_lines(fit_stack(X, y, small_real_config()))
    b = pipeline_to_lines(fit_stack(X, y, small_real_config()))
    assert a == b


def test_refit_full_replaces_fold_averaging():
    rng = np.random.default_rng(6)
    X, y = random_data(rng, n=24)
    pipeline = fit_stack(X, y, small_real_config(refit_full=True))
    assert pipeline.full_models is not None
    meta = stack_meta_features(pipeline, X)
    for j, model in enumerate(pipeline.full_models):
        assert np.array_equal(meta[:, j], model.predict_proba(X))
    # round trip keeps the refit models
    loaded = pipeline_from_lines(pipeline_to_lines(pipeline))
    assert loaded.full_models is not None
    assert np.array_equal(
        predict_stack_batch(loaded, X), predict_stack_batch(pipeline, X)
    )


def test_single_vector_prediction_matches_batch():
    rng = np.random.default_rng(7)
    X, y = random_data(rng, n=24)
    pipeline = fit_stack(X, y, small_real_config())
    dense = X.toarray()
    for i in (0, 7, 23):
        entries = tuple(
            (j, float(dense[i, j])) for j in np.nonzero(dense[i])[0]
        )
        x = FeatureVector(dim=4, entries=entries)
        assert predict_stack(pipeline, x) == predict_stack_batch(pipeline, X)[i]


def test_schema_width_is_enforced():
    rng = np.random.default_rng(8)
    from tests._util import rev

    revisions = [
        rev(i, comment=f"word{i}", country="DE" if i % 2 else "US")
        for i in range(1, 25)
    ]
    schema = build_schema(extract_many(revisions))
    X, y = random_data(rng, n=24, d=schema.total_dim + 1)
    with pytest.raises(DimensionMismatch):
        fit_stack(X, y, small_real_config(), schema=schema)


def test_selected_projection_applied_inside_predict():
    rng = np.random.default_rng(9)
    X, y = random_data(rng, n=24, d=6)
    pipeline = fit_stack(X, y, small_real_config(), selected=(1, 3, 5))
    # full-width input accepted; models were fit on width 3
    scores = predict_stack_batch(pipeline, X)
    assert scores.shape == (24,)
    manual = fit_stack(X.tocsc()[:, [1, 3, 5]].tocsr(), y, small_real_config())
    assert np.array_equal(scores, predict_stack_batch(manual, X.tocsc()[:, [1, 3, 5]].tocsr()))


def corruptible_pipeline_lines():
    """A small saved pipeline: 3 selected of 5 columns, 2 first-stage specs."""
    rng = np.random.default_rng(10)
    X, y = random_data(rng, n=24, d=5)
    return pipeline_to_lines(fit_stack(X, y, small_real_config(), selected=(0, 2, 4)))


def line_index(lines, prefix):
    return next(i for i, line in enumerate(lines) if line.startswith(prefix))


def replace_line(prefix, text):
    def corrupt(lines):
        at = line_index(lines, prefix)
        lines[at] = text
        return at + 1

    return corrupt


def drop_section(name):
    def corrupt(lines):
        at = line_index(lines, f"section {name} ")
        count = int(lines[at].rsplit(" ", 1)[1])
        del lines[at : at + 1 + count]
        return at + 1  # now the header of the section after it

    return corrupt


def rename_section(name, new_name):
    def corrupt(lines):
        at = line_index(lines, f"section {name} ")
        lines[at] = lines[at].replace(name, new_name)
        return at + 1

    return corrupt


def huge_fold_count(lines):
    # must fail at the first section it lacks, without listing them all
    lines[line_index(lines, "k ")] = "k 1000000000000"
    return line_index(lines, "section model first 1 0 ") + 1


def swap_second_stage_for_a_fold_model(lines):
    # a well-formed model of the first stage's width where the second
    # stage's (width 2, one column per first-stage spec) belongs
    fold = line_index(lines, "section model first 0 0 ")
    fold_body = lines[fold + 1 : fold + 1 + int(lines[fold].rsplit(" ", 1)[1])]
    at = line_index(lines, "section model second 0 ")
    del lines[at:-1]
    lines[at:at] = [f"section model second 0 {len(fold_body)}"] + fold_body
    return at + 4  # the model's dim line, third of the section


def spec_of_another_family(lines):
    # the second spec is logistic regression, its fold models too
    at = line_index(lines, "spec first 1 ")
    lines[at] = lines[at].replace('"logistic_regression"', '"mlp"')
    return line_index(lines, "section model first 1 0 ") + 3


def corrupt_inside_a_model(lines):
    at = line_index(lines, "section model first 1 0 ")
    at += line_index(lines[at:], "coef ")
    lines[at] = "coef 1.0 x 2.0"
    return at + 1


@pytest.mark.parametrize(
    "corrupt",
    [
        replace_line("k ", "k x"),
        replace_line("k ", "k 0"),
        huge_fold_count,
        replace_line("seed ", "seed 1.5"),
        replace_line("refit_full ", "refit_full 2"),
        replace_line("first_stage ", "first_stage two"),
        replace_line("first_stage ", "first_stage 0"),
        replace_line("second_stage ", "second_stage -1"),
        replace_line("spec first 0 ", "spec first 0 {not json"),
        replace_line("spec first 0 ", 'spec first 0 {"family": "mlp"}'),
        replace_line("spec first 1 ", 'spec first 1 ["logistic_regression", {}, 0]'),
        replace_line("spec second 0 ", "spec second 0"),
        replace_line(  # a well-formed spec in the wrong stage
            "spec second 0 ", 'spec first 0 {"family": "mlp", "hyperparameters": {}, "seed": 0}'
        ),
        replace_line("selected ", "selected 0 x 4"),
        replace_line("selected ", "selected 4 2 0"),
        replace_line("selected ", "selected -1 2 4"),
        replace_line("selected ", "selected 0 0 4"),
        replace_line("section model first 0 0 ", "section model first 0 0 many"),
        rename_section("model first 0 1", "model first 0 7"),
        rename_section("model first 1 2", "model first x 2"),
        replace_line("end", "the end"),
        drop_section("model first 0 1"),
        drop_section("model second 0"),
        swap_second_stage_for_a_fold_model,
        spec_of_another_family,
        corrupt_inside_a_model,
    ],
)
def test_corrupt_pipeline_fails_at_load_naming_the_line(corrupt):
    lines = corruptible_pipeline_lines()
    assert pipeline_to_lines(pipeline_from_lines(lines)) == lines
    reported = corrupt(lines)
    with pytest.raises(MalformedLine) as info:
        pipeline_from_lines(lines)
    assert info.value.line_no == reported


def test_pipeline_schema_errors_name_the_file_line():
    from tests._util import rev

    revisions = [rev(i, comment=f"word{i}") for i in range(1, 25)]
    schema = build_schema(extract_many(revisions))
    rng = np.random.default_rng(11)
    X, y = random_data(rng, n=24, d=schema.total_dim)
    lines = pipeline_to_lines(fit_stack(X, y, small_real_config(), schema=schema, selected=(0, 1)))
    at = line_index(lines, "section schema ") + 2  # the schema's first column
    lines[at] = "X bogus"
    with pytest.raises(MalformedLine) as info:
        pipeline_from_lines(lines)
    assert info.value.line_no == at + 1
    lines = pipeline_to_lines(fit_stack(X, y, small_real_config(), schema=schema, selected=(0, 1)))
    at = line_index(lines, "selected ")
    lines[at] = f"selected 0 {schema.total_dim}"
    with pytest.raises(MalformedLine) as info:
        pipeline_from_lines(lines)
    assert info.value.line_no == at + 1

"""Fold plans, out-of-fold purity, meta-features and pipeline persistence."""

import io
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import sparse

from tests._util import reference_proba, schema_of_width
from vandalstack import stacking
from vandalstack.errors import (
    DimensionMismatch,
    MalformedLine,
    TooFewExamples,
    UsageError,
)
from vandalstack.featurize import FeatureVector, build_schema, extract_many
from vandalstack.learners import ModelSpec, register_family, _REGISTRY
from vandalstack.learners.base import check_dense
from vandalstack.learners.tree import NodeTable
from vandalstack.rng import derive_seed, generator
from vandalstack.stacking import (
    StackConfig,
    fit_stack,
    kfold_assign,
    load_pipeline,
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
        self.n_features_ = check_dense(X).shape[1]
        return self

    def predict_proba(self, X):
        return np.full(check_dense(X).shape[0], self.value)


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
        return X[i].tobytes()

    def fit(self, X, y):
        X = check_dense(X)
        self.table_ = {self._key(X, i): float(y[i]) for i in range(X.shape[0])}
        self.n_features_ = X.shape[1]
        return self

    def predict_proba(self, X):
        X = check_dense(X)
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
    folds = kfold_assign(6, StackConfig(k=3, seed=0))
    assert np.bincount(folds, minlength=3).tolist() == [2, 2, 2]
    folds = kfold_assign(7, StackConfig(k=3, seed=5))
    assert sorted(np.bincount(folds, minlength=3).tolist()) == [2, 2, 3]


def test_kfold_assignment_properties():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(2, 60))
        k = int(rng.integers(2, min(n, 6) + 1))
        config = StackConfig(k=k, seed=int(rng.integers(1 << 30)))
        folds = kfold_assign(n, config)
        assert folds.shape == (n,)
        assert folds.min() >= 0 and folds.max() < k
        counts = np.bincount(folds, minlength=k)
        assert counts.max() - counts.min() <= 1
        assert np.array_equal(folds, kfold_assign(n, config))
        # the shuffle's seed derives from the stack's one seed
        order = generator(derive_seed(config.seed, "folds", 0)).permutation(n)
        assert np.array_equal(folds[order], np.arange(n) % k)


def test_kfold_rejects_bad_arguments():
    # the fold rule is StackConfig's; kfold_assign only refuses too few rows
    with pytest.raises(UsageError):
        StackConfig(k=1)
    with pytest.raises(TooFewExamples):
        kfold_assign(2, StackConfig(k=3))


def test_default_config_has_six_meta_columns():
    cfg = StackConfig()
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
    for second, mean in [((0.2, 0.4, 0.6, 0.8), 0.5), ((0.37,), 0.37), ((0.0, 1.0), 0.5)]:
        cfg = StackConfig(
            first_stage=(ModelSpec("const", {"value": 0.7}),),
            second_stage=tuple(ModelSpec("const", {"value": v}) for v in second),
            k=3,
            seed=0,
        )
        pipeline = fit_stack(X, y, cfg)
        meta = stack_meta_features(pipeline, X)
        assert meta.shape == (X.shape[0], 1)
        assert np.allclose(meta, 0.7, atol=1e-12)
        scores = predict_stack_batch(pipeline, X)
        # the final score is the plain mean of the second-stage outputs
        assert np.allclose(scores, mean, atol=1e-15)


def small_real_config(k=3):
    return StackConfig(
        first_stage=(
            ModelSpec("gradient_boosting", {"n_estimators": 3, "max_depth": 2}),
            ModelSpec("logistic_regression"),
        ),
        second_stage=(ModelSpec("gradient_boosting", {"n_estimators": 3}),),
        k=k,
        seed=4,
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


def test_pipeline_persistence_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    X, y = random_data(rng, n=24)
    pipeline = fit_stack(X, y, small_real_config(), schema=schema_of_width(4))
    before = predict_stack_batch(pipeline, X)

    lines = list(pipeline_to_lines(pipeline))
    loaded = pipeline_from_lines(lines)
    assert np.array_equal(predict_stack_batch(loaded, X), before)
    assert list(pipeline_to_lines(loaded)) == lines

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
    a = list(pipeline_to_lines(fit_stack(X, y, small_real_config(), schema=schema_of_width(4))))
    b = list(pipeline_to_lines(fit_stack(X, y, small_real_config(), schema=schema_of_width(4))))
    assert a == b


def test_meta_feature_is_the_mean_of_the_fold_models():
    rng = np.random.default_rng(6)
    X, y = random_data(rng, n=24)
    pipeline = fit_stack(X, y, small_real_config(), schema=schema_of_width(4))
    meta = stack_meta_features(pipeline, X)
    for j, per_fold in enumerate(pipeline.fold_models):
        total = np.zeros(X.shape[0])
        for model in per_fold:
            total += model.predict_proba(X)
        assert np.array_equal(meta[:, j], total / len(per_fold))
    loaded = pipeline_from_lines(list(pipeline_to_lines(pipeline)))
    assert np.array_equal(stack_meta_features(loaded, X), meta)


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
    pipeline = fit_stack(X, y, small_real_config(), schema=schema_of_width(5), selected=(0, 2, 4))
    return list(pipeline_to_lines(pipeline))


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


def replace_in_section(name, prefix, text):
    def corrupt(lines):
        at = line_index(lines, f"section {name} ")
        at += line_index(lines[at:], prefix)
        lines[at] = text
        return at + 1

    return corrupt


def section_count_in_arabic_indic_digits(lines):
    at = line_index(lines, "section model first 0 0 ")
    head, _, count = lines[at].rpartition(" ")
    lines[at] = f"{head} {count.translate(str.maketrans('0123456789', '٠١٢٣٤٥٦٧٨٩'))}"
    return at + 1


def huge_fold_count(lines):
    # must fail at the first section it lacks, without listing them all
    lines[line_index(lines, "k ")] = "k 1000000000000"
    return line_index(lines, "section model first 1 0 ") + 1


def one_fold_pipeline(lines):
    # every section consistent with `k 1`: the fold rule alone refuses it
    for j in range(2):
        for f in (1, 2):
            drop_section(f"model first {j} {f}")(lines)
    return replace_line("k ", "k 1")(lines)


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
        replace_line("k ", "k 1"),
        replace_line("k ", "k -3"),
        replace_line("k ", "k 1_0"),
        replace_line("k ", "k +3"),
        replace_line("k ", "k  3"),
        replace_line("k ", "k ٢"),
        one_fold_pipeline,
        huge_fold_count,
        replace_line("seed ", "seed 1.5"),
        replace_line("refit_full ", "refit_full 1"),
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
        replace_line("selected ", "selected +0 1 2"),
        replace_line("selected ", "selected none"),
        replace_line("selected ", "selected empty"),
        drop_section("schema"),
        replace_line("section model first 0 0 ", "section model first 0 0 many"),
        section_count_in_arabic_indic_digits,
        replace_in_section("model first 0 0", "dim ", "dim +3"),
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
    assert list(pipeline_to_lines(pipeline_from_lines(lines))) == lines
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
    pipeline = fit_stack(X, y, small_real_config(), schema=schema, selected=(0, 1))
    lines = list(pipeline_to_lines(pipeline))
    at = line_index(lines, "section schema ") + 2  # the schema's first column
    lines[at] = "X bogus"
    with pytest.raises(MalformedLine) as info:
        pipeline_from_lines(lines)
    assert info.value.line_no == at + 1
    pipeline = fit_stack(X, y, small_real_config(), schema=schema, selected=(0, 1))
    lines = list(pipeline_to_lines(pipeline))
    at = line_index(lines, "selected ")
    lines[at] = f"selected 0 {schema.total_dim}"
    with pytest.raises(MalformedLine) as info:
        pipeline_from_lines(lines)
    assert info.value.line_no == at + 1


@pytest.mark.parametrize(
    "family, hyperparameters",
    [
        ("gradient_boosting", '{"max_features": "x", "bogus": 1}'),
        ("gradient_boosting", '{"bogus": 1}'),
        ("gradient_boosting", '{"n_estimators": true}'),
        ("gradient_boosting", '{"n_estimators": 2.5}'),
        ("gradient_boosting", '{"learning_rate": NaN}'),
        ("gradient_boosting", '{"learning_rate": 1e999}'),
        ("gradient_boosting", '{"max_depth": [2]}'),
        ("gradient_boosting", '{"seed": 3}'),
        ("extra_trees", '{"max_features": "x"}'),
        ("extra_trees", '{"max_features": 0}'),
        ("no_such_family", '{"n_estimators": 3}'),
    ],
)
def test_spec_hyperparameters_get_the_model_parameter_check(family, hyperparameters):
    lines = corruptible_pipeline_lines()
    at = line_index(lines, "spec first 0 ")
    lines[at] = (
        f'spec first 0 {{"family": "{family}", "hyperparameters": {hyperparameters}, "seed": 0}}'
    )
    with pytest.raises(MalformedLine) as info:
        pipeline_from_lines(lines)
    assert info.value.line_no == at + 1


def test_spec_hyperparameters_must_match_their_models_param_lines():
    lines = corruptible_pipeline_lines()
    at = line_index(lines, "spec first 0 ")
    lines[at] = lines[at].replace('"n_estimators": 3', '"n_estimators": 4')
    section = line_index(lines, "section model first 0 0 ")
    param = section + line_index(lines[section:], "param n_estimators ")
    with pytest.raises(MalformedLine) as info:
        pipeline_from_lines(lines)
    assert info.value.line_no == param + 1
    # a model without the `param` line has the default, and is named by its header
    lines = corruptible_pipeline_lines()
    at = line_index(lines, "spec second 0 ")
    lines[at] = lines[at].replace('{"n_estimators": 3}', '{"learning_rate": 0.5, "n_estimators": 3}')
    section = line_index(lines, "section model second 0 ")
    del lines[section + line_index(lines[section:], "param learning_rate ")]
    head, count = lines[section].rsplit(" ", 1)
    lines[section] = f"{head} {int(count) - 1}"
    with pytest.raises(MalformedLine) as info:
        pipeline_from_lines(lines)
    assert info.value.line_no == section + 1


@pytest.mark.parametrize("selected", [(3, 1), (1, 1, 2), (), (0, 5), (-1, 2), (0.0, 1)])
def test_fit_stack_refuses_a_bad_selection_before_fitting(monkeypatch, selected):
    fits = []
    monkeypatch.setattr(stacking, "train", lambda *args, **kwargs: fits.append(args))
    rng = np.random.default_rng(12)
    X, y = random_data(rng, n=24, d=5)
    with pytest.raises(UsageError):
        fit_stack(X, y, small_real_config(), schema=schema_of_width(5), selected=selected)
    assert fits == []


def test_save_pipeline_refuses_a_pipeline_without_a_schema(tmp_path):
    rng = np.random.default_rng(13)
    X, y = random_data(rng, n=24)
    pipeline = fit_stack(X, y, small_real_config())
    path = tmp_path / "pipeline.txt"
    with pytest.raises(UsageError):
        save_pipeline(pipeline, path)
    assert not path.exists()
    with pytest.raises(UsageError):
        pipeline_to_lines(pipeline)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_every_pipeline_save_accepts_loads_and_scores_the_same(data):
    d = data.draw(st.integers(1, 6), label="width")
    selected = data.draw(
        st.one_of(st.none(), st.sets(st.integers(0, d - 1), min_size=1).map(sorted)),
        label="selected",
    )
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="data seed"))
    X, y = random_data(rng, n=24, d=d)
    config = small_real_config(k=data.draw(st.integers(2, 3), label="k"))
    pipeline = fit_stack(X, y, config, schema=schema_of_width(d), selected=selected)
    # None selects every column, and is saved as the full list
    assert pipeline.selected == tuple(range(d) if selected is None else selected)
    buffer = io.StringIO()
    save_pipeline(pipeline, buffer)
    lines = buffer.getvalue().splitlines()
    assert "selected " + " ".join(str(j) for j in pipeline.selected) in lines
    loaded = pipeline_from_lines(lines)
    assert loaded.selected == pipeline.selected and loaded.schema == pipeline.schema
    assert predict_stack_batch(loaded, X).tobytes() == predict_stack_batch(pipeline, X).tobytes()
    assert list(pipeline_to_lines(loaded)) == lines


# ---------------------------------------------------------------------------
# The stage walk: a loaded pipeline scores a small block's tree models
# together from its stage tables, bit for bit as each model's own
# predict_proba does.  The default stack's 1,800 first-stage trees make
# a one-row block one group, 9 rows the last that fit one group and 81
# rows the last at which two 100-tree models share one.

STAGE_ROWS = (0, 1, 2, 9, 10, 16, 17, 81, 82, 4000)


@pytest.fixture(scope="module")
def default_stack():
    """The default 6 -> 4 stack fitted on 60 rows, its file lines, and a loaded copy."""
    rng = np.random.default_rng(11)
    X = rng.random((60, 4))
    X[:, 3] = rng.integers(0, 3, size=60)
    y = (X[:, 0] + 0.3 * rng.random(60) > 0.6).astype(np.int64)
    fitted = fit_stack(X, y, StackConfig(seed=3), schema=schema_of_width(4))
    lines = list(pipeline_to_lines(fitted))
    return fitted, lines, pipeline_from_lines(lines)


def stage_input(rows, seed=12):
    """``rows`` rows like the training data's, NaN in about one cell in eight."""
    rng = np.random.default_rng(seed)
    X = rng.random((rows, 4))
    X[:, 3] = rng.integers(0, 3, size=rows)
    X[rng.random((rows, 4)) < 0.125] = np.nan
    return X


def own_proba(model, X):
    """A model's own predict_proba; a tree model's checked against the tree-by-tree loop."""
    score = model.predict_proba(X)
    if hasattr(model, "nodes_"):
        assert same_bits(score, reference_proba(model, X))
    return score


def model_by_model(pipeline, X):
    """The stack's meta-features and scores from each model's own predict_proba."""
    meta = np.zeros((X.shape[0], len(pipeline.fold_models)))
    for j, per_fold in enumerate(pipeline.fold_models):
        acc = np.zeros(X.shape[0])
        for model in per_fold:
            acc += own_proba(model, X)
        meta[:, j] = acc / len(per_fold)
    scores = np.zeros((X.shape[0], len(pipeline.second_models)))
    for j, model in enumerate(pipeline.second_models):
        scores[:, j] = own_proba(model, meta)
    return meta, scores.mean(axis=1)


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def first_models(pipeline):
    return [model for per_fold in pipeline.fold_models for model in per_fold]


@pytest.mark.parametrize("rows", STAGE_ROWS)
def test_a_loaded_stack_scores_as_each_model_does_and_as_the_fitted_one(default_stack, rows):
    fitted, _, loaded = default_stack
    X = stage_input(rows)
    meta, scores = model_by_model(loaded, X)
    assert same_bits(stack_meta_features(loaded, X), meta)
    assert same_bits(predict_stack_batch(loaded, X), scores)
    # a pipeline never saved: each tree model owns its table, so each walks alone
    for models, width in ((first_models(fitted), 4), (fitted.second_models, 6)):
        assert all(model.nodes_.table is model.nodes_ for model in models if hasattr(model, "nodes_"))
        assert all(len(run) == 1 for run in stacking._runs(models, (rows, width)))
    assert same_bits(predict_stack_batch(fitted, X), scores)


def tree_models(models):
    return [i for i, model in enumerate(models) if hasattr(model, "nodes_")]


@pytest.mark.parametrize("rows", STAGE_ROWS)
def test_groups_hold_runs_of_tree_models_within_the_block_cells(default_stack, rows):
    _, _, loaded = default_stack
    models = first_models(loaded)
    runs = list(stacking._runs(models, (rows, 4)))
    # every tree model once, in stage order, each run within the block's cells
    assert [i for run in runs for i in run] == tree_models(models)
    for run in runs:
        trees = sum(models[i].nodes_.n_trees for i in run)
        assert len(run) == 1 or rows * trees <= NodeTable.BLOCK_CELLS
    if rows <= 9:
        assert len(runs) == 1  # 1,800 trees
    if rows >= 82:
        assert all(len(run) == 1 for run in runs)


def test_the_second_stage_group_skips_the_mlp_between_its_tree_models(default_stack):
    _, _, loaded = default_stack
    models = loaded.second_models
    # random forest, MLP, boosting, boosting
    assert tree_models(models) == [0, 2, 3]
    assert list(stacking._runs(models, (1, 6))) == [[0, 2, 3]]
    meta = stage_input(3)[:, [0, 1, 2, 3, 0, 1]]
    want = [model.predict_proba(meta) for model in models]
    got = list(stacking._stage_scores(models, meta))
    assert all(same_bits(a, b) for a, b in zip(got, want))


def test_every_tree_model_is_a_range_of_its_stage_table(default_stack):
    _, _, loaded = default_stack
    for models in (first_models(loaded), loaded.second_models):
        ranges = [models[i].nodes_ for i in tree_models(models)]
        table = ranges[0].table
        # the ranges follow one another, from the table's first tree to its last
        sizes = [nodes.n_trees for nodes in ranges]
        assert [nodes.first for nodes in ranges] == np.cumsum([0] + sizes[:-1]).tolist()
        assert sum(sizes) == table.n_trees
        for nodes in ranges:
            assert nodes.table is table
            for name in ("feature", "threshold", "right", "value"):
                assert np.shares_memory(getattr(nodes, name), getattr(table, name)), name
    assert sum(model.nodes_.n_trees for model in first_models(loaded) if hasattr(model, "nodes_")) == 1800


def test_saving_a_loaded_stack_writes_the_file_it_came_from(default_stack):
    _, lines, loaded = default_stack
    assert list(pipeline_to_lines(loaded)) == lines


def test_reassigned_trees_of_a_loaded_model_are_never_served_stale():
    rng = np.random.default_rng(13)
    X, y = random_data(rng, n=24)
    loaded = pipeline_from_lines(list(pipeline_to_lines(
        fit_stack(X, y, small_real_config(), schema=schema_of_width(4))
    )))
    models = first_models(loaded)
    # boosting fold 0 takes fold 1's trees; fold 2 a new learning rate
    models[0].nodes_ = models[1].nodes_
    models[2].learning_rate = 0.5
    # fold 0 now holds a range that does not follow the one before fold 1's
    assert list(stacking._runs(models, (1, 4))) == [[0], [1, 2]]
    for rows in (1, 24):
        Xq = stage_input(rows, seed=rows)
        meta, scores = model_by_model(loaded, Xq)
        assert same_bits(stack_meta_features(loaded, Xq), meta)
        assert same_bits(predict_stack_batch(loaded, Xq), scores)


def test_a_stage_of_one_tree_model_or_none_has_a_table_or_none():
    rng = np.random.default_rng(14)
    X, y = random_data(rng, n=24)
    config = StackConfig(
        first_stage=(ModelSpec("logistic_regression"),),
        second_stage=(ModelSpec("gradient_boosting", {"n_estimators": 0}),),
        k=2,
        seed=1,
    )
    loaded = pipeline_from_lines(list(pipeline_to_lines(
        fit_stack(X, y, config, schema=schema_of_width(4))
    )))
    assert tree_models(first_models(loaded)) == []
    [model] = loaded.second_models
    assert model.nodes_.n_trees == 0 and model.nodes_.table is model.nodes_
    assert list(stacking._runs(loaded.second_models, (5, 1))) == [[0]]
    Xq = stage_input(5)
    assert same_bits(predict_stack_batch(loaded, Xq), model_by_model(loaded, Xq)[1])


def test_trees_swapped_in_from_another_loaded_pipeline_join_no_run():
    rng = np.random.default_rng(15)
    X, y = random_data(rng, n=24)
    loaded, other = (
        pipeline_from_lines(list(pipeline_to_lines(
            fit_stack(X, y, replace(small_real_config(), seed=seed), schema=schema_of_width(4))
        )))
        for seed in (4, 5)
    )
    models, others = first_models(loaded), first_models(other)
    # boosting fold 1 takes the other pipeline's fold 1: the same size, at the same place
    swapped = others[1].nodes_
    assert (swapped.first, swapped.n_trees) == (models[1].nodes_.first, models[1].nodes_.n_trees)
    assert swapped.table is not models[1].nodes_.table
    models[1].nodes_ = swapped
    for rows in (1, 24):
        assert list(stacking._runs(models, (rows, 4))) == [[0], [1], [2]]
        Xq = stage_input(rows, seed=rows)
        want = [own_proba(model, Xq) for model in models]
        got = list(stacking._stage_scores(models, Xq))
        assert all(same_bits(a, b) for a, b in zip(got, want))
        meta, scores = model_by_model(loaded, Xq)
        assert same_bits(stack_meta_features(loaded, Xq), meta)
        assert same_bits(predict_stack_batch(loaded, Xq), scores)

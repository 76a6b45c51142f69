"""Stacked generalization: 6 first-stage models -> 4 second-stage -> mean.

First stage: each model spec is trained k times (default k=3), once per
held-out fold, and scores the fold it never saw.  The n x 6 matrix of
out-of-fold probabilities trains the second-stage models — and nothing
else does: the second stage never sees the original features.  The final
score is the arithmetic mean of the second-stage probabilities.

At prediction time each first-stage meta-feature is the mean of that
spec's k fold models (or one refit-on-everything model when
``refit_full`` is set).  Every seed below — fold shuffle, each
(spec, fold) training, each second-stage training — derives from the one
``StackConfig.seed``, so a single integer pins the whole pipeline; the
per-spec ``seed`` field matters only when a spec is trained standalone.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyList,
    MalformedLine,
    TooFewExamples,
    UsageError,
)
from .featurize import (
    FeatureSchema,
    FeatureVector,
    schema_from_lines,
    schema_to_lines,
    vectors_to_csr,  # noqa: F401 - a name perfbench's tracer wraps
)
from .learners import (
    BaseModel,
    ModelSpec,
    model_from_lines,
    model_to_lines,
    project_matrix,
    train,
)
from .learners.base import check_dense, check_X_y
from .learners.io import param_problem
from .lines import LineReader, Source, Target, read_lines, write_lines
from .rng import derive_seed, generator

PIPELINE_HEADER = "vandalstack-pipeline v1"


@dataclass(frozen=True)
class FoldPlan:
    k: int
    assignment: np.ndarray
    seed: int


def kfold_assign(n: int, k: int, seed: int) -> FoldPlan:
    """Seeded shuffle, then round-robin fold labels over the shuffled order."""
    if k < 2:
        raise UsageError(f"need k >= 2 folds, got {k}")
    if n < k:
        raise TooFewExamples(f"cannot split {n} examples into {k} folds")
    order = generator(seed).permutation(n)
    assignment = np.empty(n, dtype=np.int64)
    assignment[order] = np.arange(n, dtype=np.int64) % k
    return FoldPlan(k=k, assignment=assignment, seed=seed)


def _default_first_stage() -> tuple[ModelSpec, ...]:
    return (
        ModelSpec("mlp"),
        ModelSpec("extra_trees"),
        ModelSpec("extra_trees", {"n_estimators": 200}),
        ModelSpec("gradient_boosting"),
        ModelSpec("gradient_boosting", {"n_estimators": 200}),
        ModelSpec("logistic_regression"),
    )


def _default_second_stage() -> tuple[ModelSpec, ...]:
    return (
        ModelSpec("random_forest", {"n_estimators": 200, "max_depth": 8}),
        ModelSpec("mlp"),
        ModelSpec("gradient_boosting", {"n_estimators": 200, "max_depth": 6}),
        ModelSpec("gradient_boosting"),
    )


@dataclass(frozen=True)
class StackConfig:
    first_stage: tuple[ModelSpec, ...] = field(default_factory=_default_first_stage)
    second_stage: tuple[ModelSpec, ...] = field(default_factory=_default_second_stage)
    k: int = 3
    seed: int = 0
    refit_full: bool = False

    def __post_init__(self):
        if not self.first_stage or not self.second_stage:
            raise UsageError("both model stages must be non-empty")
        object.__setattr__(self, "first_stage", tuple(self.first_stage))
        object.__setattr__(self, "second_stage", tuple(self.second_stage))


def default_stack_config(seed: int = 0, k: int = 3, refit_full: bool = False) -> StackConfig:
    return StackConfig(k=k, seed=seed, refit_full=refit_full)


@dataclass
class StackedPipeline:
    """Everything needed to score a revision, plus training diagnostics.

    ``schema``/``selected`` are optional: when present, predict accepts
    full-width encoded vectors and projects internally; when absent the
    input must already have the width the models were fit on.  ``oof_``
    (the training-time out-of-fold meta-feature matrix) is a diagnostic
    and is not persisted.
    """

    config: StackConfig
    fold_models: tuple[tuple[BaseModel, ...], ...]
    second_models: tuple[BaseModel, ...]
    full_models: Optional[tuple[BaseModel, ...]] = None
    schema: Optional[FeatureSchema] = None
    selected: Optional[tuple[int, ...]] = None
    oof_: Optional[np.ndarray] = None


def fit_stack(
    X,
    y,
    config: StackConfig,
    schema: Optional[FeatureSchema] = None,
    selected: Optional[Sequence[int]] = None,
) -> StackedPipeline:
    """Train the full stack on encoded data.

    ``X`` is the full-width matrix, dense or sparse (see
    :func:`~vandalstack.learners.base.check_dense`); when ``selected`` is
    given the projection is applied here and again inside every predict
    call, keeping train and serve paths identical.
    """
    if selected is not None:
        selected = tuple(int(j) for j in selected)
    Xmat, labels = check_X_y(_model_input(X, schema, selected), y)
    n = Xmat.shape[0]
    plan = kfold_assign(n, config.k, derive_seed(config.seed, "folds", 0))
    n_first = len(config.first_stage)
    oof = np.zeros((n, n_first))
    fold_models = []
    for j, spec in enumerate(config.first_stage):
        per_fold = []
        for f in range(config.k):
            train_rows = plan.assignment != f
            model = train(
                spec,
                Xmat[train_rows],
                labels[train_rows],
                seed=derive_seed(config.seed, "first-stage", j * config.k + f),
            )
            oof[~train_rows, j] = model.predict_proba(Xmat[~train_rows])
            per_fold.append(model)
        fold_models.append(tuple(per_fold))
    second_models = tuple(
        train(spec, oof, labels, seed=derive_seed(config.seed, "second-stage", j))
        for j, spec in enumerate(config.second_stage)
    )
    full_models = None
    if config.refit_full:
        full_models = tuple(
            train(spec, Xmat, labels, seed=derive_seed(config.seed, "first-full", j))
            for j, spec in enumerate(config.first_stage)
        )
    return StackedPipeline(
        config=config,
        fold_models=tuple(fold_models),
        second_models=second_models,
        full_models=full_models,
        schema=schema,
        selected=tuple(selected) if selected is not None else None,
        oof_=oof,
    )


def _model_input(X, schema: Optional[FeatureSchema], selected) -> np.ndarray:
    """Full-width input checked against ``schema``, as the dense block of ``selected``."""
    X = check_dense(X)
    if schema is not None and X.shape[1] != schema.total_dim:
        raise DimensionMismatch(f"input width {X.shape[1]} != schema dim {schema.total_dim}")
    return X if selected is None else project_matrix(X, selected)


def stack_meta_features(pipeline: StackedPipeline, X) -> np.ndarray:
    """Meta-feature matrix for already-projected input.

    Column j is the mean of spec j's k fold models (or its single
    refit-on-all model when the pipeline was built with ``refit_full``).
    """
    Xmat = check_dense(X)
    n_first = len(pipeline.config.first_stage)
    meta = np.zeros((Xmat.shape[0], n_first))
    if pipeline.full_models is not None:
        for j, model in enumerate(pipeline.full_models):
            meta[:, j] = model.predict_proba(Xmat)
        return meta
    for j, per_fold in enumerate(pipeline.fold_models):
        acc = np.zeros(Xmat.shape[0])
        for model in per_fold:
            acc += model.predict_proba(Xmat)
        meta[:, j] = acc / len(per_fold)
    return meta


def predict_stack_batch(pipeline: StackedPipeline, X) -> np.ndarray:
    """Scores for full-width input (projection applied internally)."""
    meta = stack_meta_features(pipeline, _model_input(X, pipeline.schema, pipeline.selected))
    scores = np.zeros((meta.shape[0], len(pipeline.second_models)))
    for j, model in enumerate(pipeline.second_models):
        scores[:, j] = model.predict_proba(meta)
    return scores.mean(axis=1)


def predict_stack(pipeline: StackedPipeline, x: FeatureVector) -> float:
    return float(predict_stack_batch(pipeline, x.to_dense()[None, :])[0])


def mean_ensemble(scores: Sequence[float]) -> float:
    scores = list(scores)
    if not scores:
        raise EmptyList("mean_ensemble needs at least one score")
    return float(sum(scores) / len(scores))


# ---------------------------------------------------------------------------
# Pipeline container: one text file bundling config, schema, selection and
# every model block, with explicit section framing.

def _spec_to_json(spec: ModelSpec) -> str:
    return json.dumps(
        {
            "family": spec.family,
            "hyperparameters": dict(spec.hyperparameters),
            "seed": spec.seed,
        },
        sort_keys=True,
    )


def _spec_from_json(text: str, line_no: int) -> ModelSpec:
    try:
        raw = json.loads(text)
    except ValueError:
        raw = None
    if not (
        isinstance(raw, dict)
        and sorted(raw) == ["family", "hyperparameters", "seed"]
        and isinstance(raw["family"], str)
        and isinstance(raw["hyperparameters"], dict)
        and type(raw["seed"]) is int
    ):
        raise MalformedLine(f"bad model spec {text!r}", line_no)
    for name, value in raw["hyperparameters"].items():
        problem = param_problem(raw["family"], name, value)
        if problem:
            raise MalformedLine(f"bad model spec {text!r}: {problem}", line_no)
    return ModelSpec(raw["family"], raw["hyperparameters"], raw["seed"])


def pipeline_to_lines(pipeline: StackedPipeline) -> Iterator[str]:
    """The pipeline file's lines, built one section at a time as they are taken."""
    cfg = pipeline.config
    yield PIPELINE_HEADER
    yield f"k {cfg.k}"
    yield f"seed {cfg.seed}"
    yield f"refit_full {1 if cfg.refit_full else 0}"
    yield f"first_stage {len(cfg.first_stage)}"
    yield f"second_stage {len(cfg.second_stage)}"
    for j, spec in enumerate(cfg.first_stage):
        yield f"spec first {j} {_spec_to_json(spec)}"
    for j, spec in enumerate(cfg.second_stage):
        yield f"spec second {j} {_spec_to_json(spec)}"
    if pipeline.selected is None:
        yield "selected none"
    elif len(pipeline.selected) == 0:
        yield "selected empty"
    else:
        yield "selected " + " ".join(str(j) for j in pipeline.selected)

    def section(name: str, body: list[str]) -> Iterator[str]:
        yield f"section {name} {len(body)}"
        yield from body

    if pipeline.schema is not None:
        yield from section("schema", schema_to_lines(pipeline.schema))
    for j, per_fold in enumerate(pipeline.fold_models):
        for f, model in enumerate(per_fold):
            yield from section(f"model first {j} {f}", model_to_lines(model))
    if pipeline.full_models is not None:
        for j, model in enumerate(pipeline.full_models):
            yield from section(f"model full {j}", model_to_lines(model))
    for j, model in enumerate(pipeline.second_models):
        yield from section(f"model second {j}", model_to_lines(model))
    yield "end"


def pipeline_from_lines(lines: Sequence[str]) -> StackedPipeline:
    """Parse a pipeline file; any violation raises ``MalformedLine`` naming its line."""
    if not lines or lines[0] != PIPELINE_HEADER:
        raise MalformedLine(f"expected pipeline header {PIPELINE_HEADER!r}", 1)
    reader = LineReader(lines, end_line=len(lines) + 1)
    reader.next()

    def take_specs(stage: str, count: int) -> tuple[ModelSpec, ...]:
        specs = []
        for j in range(count):
            parts = reader.expect("spec").split(" ", 2)
            if len(parts) != 3 or parts[:2] != [stage, str(j)]:
                raise MalformedLine(f"expected 'spec {stage} {j} <json>'", reader.line_no)
            specs.append(_spec_from_json(parts[2], reader.line_no))
        return tuple(specs)

    k = reader.expect_int("k", 1)
    seed = reader.expect_int("seed")
    refit_raw = reader.expect("refit_full")
    if refit_raw not in ("0", "1"):
        raise MalformedLine(f"bad 'refit_full' value {refit_raw!r}", reader.line_no)
    refit_full = refit_raw == "1"
    n_first = reader.expect_int("first_stage", 1)
    n_second = reader.expect_int("second_stage", 1)
    first = take_specs("first", n_first)
    second = take_specs("second", n_second)
    selected_raw = reader.expect("selected")
    selected_line = reader.line_no
    if selected_raw == "none":
        selected = None
    elif selected_raw == "empty":
        selected = ()
    else:
        try:
            selected = tuple(int(tok) for tok in selected_raw.split(" "))
        except ValueError:
            raise MalformedLine(f"bad selected columns {selected_raw!r}", selected_line) from None
        if selected[0] < 0 or any(a >= b for a, b in zip(selected, selected[1:])):
            raise MalformedLine("selected columns must ascend from 0 or more", selected_line)

    # (name, 1-based line of the section header, body)
    sections: list[tuple[str, int, list[str]]] = []
    pos = reader.pos
    while pos < len(lines) and lines[pos] != "end":
        head, _, rest = lines[pos].partition(" ")
        name, _, count_raw = rest.rpartition(" ")
        if head != "section" or not count_raw.isdecimal():
            raise MalformedLine(f"expected section, got {lines[pos]!r}", pos + 1)
        count = int(count_raw)
        body = list(lines[pos + 1 : pos + 1 + count])
        if len(body) != count:
            raise MalformedLine(f"truncated section {name!r}", pos + 1)
        sections.append((name, pos + 1, body))
        pos += 1 + count
    if pos >= len(lines) or lines[pos] != "end":
        raise MalformedLine("pipeline file missing 'end'", pos + 1)
    if pos + 1 != len(lines):
        raise MalformedLine("trailing content after 'end'", pos + 2)

    schema = None
    if sections and sections[0][0] == "schema":
        _, at, body = sections.pop(0)
        schema = schema_from_lines(body, offset=at)
        if selected and selected[-1] >= schema.total_dim:
            raise MalformedLine(
                f"selected column {selected[-1]} outside the schema's {schema.total_dim}",
                selected_line,
            )
    # generated, not listed: a huge count in the header costs nothing
    expected = itertools.chain(
        (f"model first {j} {f}" for j in range(n_first) for f in range(k)),
        (f"model full {j}" for j in range(n_first if refit_full else 0)),
        (f"model second {j}" for j in range(n_second)),
    )
    for i, name in enumerate(expected):
        if i >= len(sections) or sections[i][0] != name:
            raise MalformedLine(
                f"expected section {name!r}", sections[i][1] if i < len(sections) else pos + 1
            )
    n_models = n_first * (k + refit_full) + n_second
    if len(sections) > n_models:
        name, at, _ = sections[n_models]
        raise MalformedLine(f"unexpected section {name!r}", at)
    models = [model_from_lines(body, offset=at) for _, at, body in sections]
    if selected is not None:
        width = len(selected)
    else:
        width = schema.total_dim if schema is not None else models[0].n_features_
    specs = [spec for spec in first for _ in range(k)] + list(first if refit_full else ())
    specs += second
    widths = [width] * (len(models) - n_second) + [n_first] * n_second
    for (name, at, body), model, spec, want in zip(sections, models, specs, widths):
        # a model's family and dim lines are the second and third of its section
        if body[1] != f"family {spec.family}":
            raise MalformedLine(f"{name} is not a {spec.family} model", at + 2)
        if model.n_features_ != want:
            raise MalformedLine(f"{name} has dim {model.n_features_}, expected {want}", at + 3)
        for key, value in spec.hyperparameters.items():
            held = getattr(model, key)  # a model keeps each parameter as an attribute
            if held != value:
                # name the model's `param` line, or its section header when it has none
                tag = f"param {key} "
                where = next((i for i, line in enumerate(body) if line.startswith(tag)), -1)
                raise MalformedLine(f"{name} has {key} {held!r}, spec {value!r}", at + 1 + where)

    config = StackConfig(
        first_stage=first,
        second_stage=second,
        k=k,
        seed=seed,
        refit_full=refit_full,
    )
    n_folds = n_first * k
    return StackedPipeline(
        config=config,
        fold_models=tuple(tuple(models[j * k : (j + 1) * k]) for j in range(n_first)),
        second_models=tuple(models[-n_second:]),
        full_models=tuple(models[n_folds : n_folds + n_first]) if refit_full else None,
        schema=schema,
        selected=selected,
    )


def save_pipeline(pipeline: StackedPipeline, path: Target) -> None:
    write_lines(path, pipeline_to_lines(pipeline))


def load_pipeline(path: Source) -> StackedPipeline:
    return pipeline_from_lines(read_lines(path))

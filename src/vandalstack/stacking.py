"""Stacked generalization: 6 first-stage models -> 4 second-stage -> mean.

First stage: each model spec is trained k times (default k=3), once per
held-out fold, and scores the fold it never saw.  The n x 6 matrix of
out-of-fold probabilities trains the second-stage models — and nothing
else does: the second stage never sees the original features.  The final
score is the arithmetic mean of the second-stage probabilities.

At prediction time each first-stage meta-feature is the mean of that
spec's k fold models.  Every seed below — fold shuffle, each
(spec, fold) training, each second-stage training — derives from the one
``StackConfig.seed``, so a single integer pins the whole pipeline; the
per-spec ``seed`` field matters only when a spec is trained standalone.
:class:`StackConfig` states the stack's one rule (k >= 2 folds, both
stages non-empty) for ``fit_stack``, the run configuration's ``stack.k``
and the pipeline loader, which reports a breach at the ``k`` line.
:func:`check_selection` states the one rule for the columns the models
see (a non-empty, strictly ascending tuple of indices below the input
width) for ``fit_stack`` and the loader, which reports a breach at the
``selected`` line.

Every tree model sums its leaves with one function,
:func:`~vandalstack.learners.tree.range_sums`, whether it scores alone
or with others.  The loader compiles each stage's tree models into one
node table before anything is scored, and each model's ``nodes_`` is a
tree range of it that records the table and its first tree there.  A
block is then scored in runs (:func:`_runs`), read from the models as
they are: tree models, in stage order, whose ranges follow one another
in one table, as long as rows x trees stay within
``NodeTable.BLOCK_CELLS``.  A run of several models is one range of
several members: walked once, each model's leaves summed in its own
tree order, all in one pass, and finished by its family's rule, one call
a family, so each scores bit for bit as its own ``predict_proba``.  A
run of one, and every other model, is scored by its own
``predict_proba``.  A one-row block walks the first stage's 1,800 trees
(the default stack's) in one walk; from 82 rows up every run holds one
model.  A pipeline from ``fit_stack`` scores by the same rule: each of
its tree models owns its table, so each is a run of one.  It is not
compiled because its one command caller, ``train-stack``, saves it
without scoring it, and one table a stage would copy every node column.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional, Sequence, TypeVar

import numpy as np

from .errors import (
    DimensionMismatch,
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
    BUILTIN_FAMILIES,
    BaseModel,
    ModelSpec,
    TreeColumns,
    default_spec,
    model_to_lines,
    optimized_spec,
    project_matrix,
    read_model,
    train,
)
from .learners.base import check_dense, check_X_y, param_problem
from .learners.tree import NodeTable, range_sums
from .lines import LineReader, Source, Target, iter_lines, parse_int, write_lines
from .rng import derive_seed, generator

PIPELINE_HEADER = "vandalstack-pipeline v1"

T = TypeVar("T")


def kfold_assign(n: int, config: StackConfig) -> np.ndarray:
    """Each of ``n`` rows' fold: a shuffle seeded from ``config.seed``, then round-robin folds."""
    if n < config.k:
        raise TooFewExamples(f"cannot split {n} examples into {config.k} folds")
    order = generator(derive_seed(config.seed, "folds", 0)).permutation(n)
    assignment = np.empty(n, dtype=np.int64)
    assignment[order] = np.arange(n, dtype=np.int64) % config.k
    return assignment


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
    # the paper's optimized RF, default MLP, optimized GBT and default GBT
    return (
        optimized_spec("random_forest"),
        default_spec("mlp"),
        optimized_spec("gradient_boosting"),
        default_spec("gradient_boosting"),
    )


@dataclass(frozen=True)
class StackConfig:
    first_stage: tuple[ModelSpec, ...] = field(default_factory=_default_first_stage)
    second_stage: tuple[ModelSpec, ...] = field(default_factory=_default_second_stage)
    k: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.k < 2:
            raise UsageError(f"need k >= 2 folds, got {self.k}")
        if not self.first_stage or not self.second_stage:
            raise UsageError("both model stages must be non-empty")
        object.__setattr__(self, "first_stage", tuple(self.first_stage))
        object.__setattr__(self, "second_stage", tuple(self.second_stage))


def check_selection(columns: Iterable[int], width: int) -> tuple[int, ...]:
    """``columns`` as a selection of an input ``width`` wide; else a :class:`UsageError`.

    A selection is a non-empty, strictly ascending tuple of integer column
    indices, each at least 0 and below ``width``.
    """
    try:
        selected = tuple(operator.index(j) for j in columns)
    except TypeError:
        raise UsageError("selected columns must be integers") from None
    if not selected:
        raise UsageError("a selection needs at least one column")
    if selected[0] < 0 or any(a >= b for a, b in zip(selected, selected[1:])):
        raise UsageError("selected columns must ascend strictly from 0 or more")
    if selected[-1] >= width:
        raise UsageError(f"selected column {selected[-1]} is not below the input width {width}")
    return selected


def _runs(models: Sequence[BaseModel], shape: tuple[int, int]) -> Iterator[list[int]]:
    """The indices of ``models`` walked together on input of ``shape``, run by run.

    A run is a sequence of tree models, in order, that take the input's
    width and whose ``nodes_`` lie one after another in one table, while
    rows x trees stay within ``NodeTable.BLOCK_CELLS``.  Every other
    model is in no run.
    """
    rows, width = shape
    run, table, end, trees = [], None, None, 0
    for i, model in enumerate(models):
        nodes = getattr(model, "nodes_", None)
        if nodes is None or model.n_features_ != width:
            continue
        first, size = nodes.first, nodes.n_trees
        trees += size
        if nodes.table is not table or first != end or rows * trees > NodeTable.BLOCK_CELLS:
            if run:
                yield run
            run, table, trees = [], nodes.table, size
        run.append(i)
        end = first + size
    if run:
        yield run


def _stage_scores(models: Sequence[BaseModel], X: np.ndarray) -> Iterator[np.ndarray]:
    """Each model's ``predict_proba`` of dense ``X``, in order.

    Each run of several models (:func:`_runs`) is one tree range, walked
    once: :func:`~vandalstack.learners.tree.range_sums`, the code of each
    tree model's own ``predict_proba``, sums every member's leaves by its
    own rule, and the members of one family are finished together.  Every
    other model, and every run of one, is scored by its own
    ``predict_proba``.
    """
    walked = {}
    for run in _runs(models, X.shape):
        if len(run) == 1:
            continue
        members = [models[i] for i in run]
        sizes = [model.nodes_.n_trees for model in members]
        head = members[0].nodes_
        nodes = head.table.trees(head.first, head.first + sum(sizes))
        sums = range_sums(nodes, X, sizes, [model.leaf_rule() for model in members])
        counts, families = np.array(sizes)[:, None], {}
        for k, model in enumerate(members):
            families.setdefault(type(model).proba_from_sums, []).append(k)
        for finish, ks in families.items():
            walked.update(zip([run[k] for k in ks], finish(sums[ks], counts[ks])))
    for i, model in enumerate(models):
        yield walked.pop(i) if i in walked else model.predict_proba(X)


@dataclass
class StackedPipeline:
    """Everything needed to score a revision, plus training diagnostics.

    Predict takes full-width input and projects it onto ``selected``, the
    columns the models were fit on.  ``schema``, when present, fixes that
    width; only a pipeline with one can be saved.  ``oof_`` (the
    training-time out-of-fold meta-feature matrix) is a diagnostic and is
    not persisted.  A loaded pipeline's tree models are ranges of one
    table a stage, so that a block of a few rows walks several of them at
    once; a fitted one's own a table each.  Both score through
    :func:`_stage_scores`, with the same scores.
    """

    config: StackConfig
    fold_models: tuple[tuple[BaseModel, ...], ...]
    second_models: tuple[BaseModel, ...]
    selected: tuple[int, ...]
    schema: Optional[FeatureSchema] = None
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
    :func:`~vandalstack.learners.base.check_dense`).  ``selected`` (every
    column when ``None``) must pass :func:`check_selection`, which is
    checked before anything is fitted; the projection is applied here and
    again inside every predict call, keeping train and serve paths
    identical.
    """
    X = check_dense(X)
    width = X.shape[1]
    selected = check_selection(range(width) if selected is None else selected, width)
    Xmat, labels = check_X_y(_model_input(X, schema, selected), y)
    n = Xmat.shape[0]
    folds = kfold_assign(n, config)
    n_first = len(config.first_stage)
    oof = np.zeros((n, n_first))
    fold_models = []
    for j, spec in enumerate(config.first_stage):
        per_fold = []
        for f in range(config.k):
            train_rows = folds != f
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
    return StackedPipeline(
        config=config,
        fold_models=tuple(fold_models),
        second_models=second_models,
        selected=selected,
        schema=schema,
        oof_=oof,
    )


def _model_input(X, schema: Optional[FeatureSchema], selected) -> np.ndarray:
    """Full-width input checked against ``schema``, as the dense block of ``selected``."""
    X = check_dense(X)
    if schema is not None and X.shape[1] != schema.total_dim:
        raise DimensionMismatch(f"input width {X.shape[1]} != schema dim {schema.total_dim}")
    return project_matrix(X, selected)


def stack_meta_features(pipeline: StackedPipeline, X) -> np.ndarray:
    """Meta-feature matrix for already-projected input.

    Column j is the mean of spec j's k fold models.
    """
    Xmat = check_dense(X)
    n_first = len(pipeline.config.first_stage)
    models = [model for per_fold in pipeline.fold_models for model in per_fold]
    scores = _stage_scores(models, Xmat)
    meta = np.zeros((Xmat.shape[0], n_first))
    for j, per_fold in enumerate(pipeline.fold_models):
        acc = np.zeros(Xmat.shape[0])
        for _ in per_fold:
            acc += next(scores)
        meta[:, j] = acc / len(per_fold)
    return meta


def predict_stack_batch(pipeline: StackedPipeline, X) -> np.ndarray:
    """Scores for full-width input (projection applied internally)."""
    meta = stack_meta_features(pipeline, _model_input(X, pipeline.schema, pipeline.selected))
    scores = np.zeros((meta.shape[0], len(pipeline.second_models)))
    for j, score in enumerate(_stage_scores(pipeline.second_models, meta)):
        scores[:, j] = score
    return scores.mean(axis=1)


def predict_stack(pipeline: StackedPipeline, x: FeatureVector) -> float:
    return float(predict_stack_batch(pipeline, x.to_dense()[None, :])[0])


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
        and raw["family"] in BUILTIN_FAMILIES
    ):
        raise MalformedLine(f"bad model spec {text!r}", line_no)
    for name, value in raw["hyperparameters"].items():
        problem = param_problem(BUILTIN_FAMILIES[raw["family"]], name, value)
        if problem:
            raise MalformedLine(f"bad model spec {text!r}: {problem}", line_no)
    return ModelSpec(raw["family"], raw["hyperparameters"], raw["seed"])


def pipeline_to_lines(pipeline: StackedPipeline) -> Iterator[str]:
    """The pipeline file's lines, built one section at a time as they are taken.

    Every pipeline file embeds its schema, so a pipeline without one is
    refused here, before any line is made.
    """
    if pipeline.schema is None:
        raise UsageError("a pipeline without a schema cannot be saved")
    return _pipeline_lines(pipeline, pipeline.schema)


def _pipeline_lines(pipeline: StackedPipeline, schema: FeatureSchema) -> Iterator[str]:
    cfg = pipeline.config
    head = [
        PIPELINE_HEADER,
        f"k {cfg.k}",
        f"seed {cfg.seed}",
        "refit_full 0",  # a fixed line: fold averaging is the one meta-feature rule
        f"first_stage {len(cfg.first_stage)}",
        f"second_stage {len(cfg.second_stage)}",
        *(f"spec first {j} {_spec_to_json(spec)}" for j, spec in enumerate(cfg.first_stage)),
        *(f"spec second {j} {_spec_to_json(spec)}" for j, spec in enumerate(cfg.second_stage)),
        "selected " + " ".join(str(j) for j in pipeline.selected),
    ]
    yield from head
    written = len(head)

    def section(name: str, to_lines: Callable, item) -> Iterator[str]:
        nonlocal written
        try:
            body = to_lines(item)
        except MalformedLine as exc:
            # a refused value, named by the line it would have in the file
            raise MalformedLine(exc.reason, written + 1 + exc.line_no) from None
        yield f"section {name} {len(body)}"
        yield from body
        written += 1 + len(body)

    yield from section("schema", schema_to_lines, schema)
    for j, per_fold in enumerate(pipeline.fold_models):
        for f, model in enumerate(per_fold):
            yield from section(f"model first {j} {f}", model_to_lines, model)
    for j, model in enumerate(pipeline.second_models):
        yield from section(f"model second {j}", model_to_lines, model)
    yield "end"


def pipeline_from_lines(lines: Iterable[str]) -> StackedPipeline:
    """Parse a pipeline file, compiling a table a stage; any violation raises ``MalformedLine`` naming its line.

    The lines are read as they come, each section's once it is next.
    """
    reader = LineReader(lines, whole_file=True)
    if reader.take(1) != [PIPELINE_HEADER]:
        raise MalformedLine(f"expected pipeline header {PIPELINE_HEADER!r}", 1)

    def take_specs(stage: str, count: int) -> tuple[ModelSpec, ...]:
        specs = []
        for j in range(count):
            parts = reader.expect("spec").split(" ", 2)
            if len(parts) != 3 or parts[:2] != [stage, str(j)]:
                raise MalformedLine(f"expected 'spec {stage} {j} <json>'", reader.line_no)
            specs.append(_spec_from_json(parts[2], reader.line_no))
        return tuple(specs)

    k = reader.expect_int("k")
    k_line = reader.line_no
    seed = reader.expect_int("seed")
    refit_raw = reader.expect("refit_full")
    if refit_raw != "0":
        raise MalformedLine(f"bad 'refit_full' value {refit_raw!r}; only 0 is read", reader.line_no)
    n_first = reader.expect_int("first_stage", 1)
    n_second = reader.expect_int("second_stage", 1)
    first = take_specs("first", n_first)
    second = take_specs("second", n_second)
    try:
        config = StackConfig(first_stage=first, second_stage=second, k=k, seed=seed)
    except UsageError as exc:
        raise MalformedLine(str(exc), k_line) from None
    selected_raw = reader.expect("selected")
    selected_line = reader.line_no
    columns = [parse_int(tok) for tok in selected_raw.split(" ")]
    if None in columns:
        raise MalformedLine(f"bad selected columns {selected_raw!r}", selected_line)

    def section(name: str, read: Callable[[LineReader], T]) -> tuple[T, int]:
        """``read`` of a reader of the next section's body, which must be ``name``, and its header's line.

        A section that the file ends within is truncated, whatever fault
        ``read`` finds in it first, as when the file was read whole.
        """
        header = reader.next()
        at = reader.line_no
        head, _, rest = header.partition(" ")
        found, _, count_raw = rest.rpartition(" ")
        count = parse_int(count_raw)
        if head != "section" or count is None or count < 0 or found != name:
            raise MalformedLine(f"expected section {name!r}, got {header!r}", at)
        body = reader.section(count, MalformedLine(f"truncated section {name!r}", at))
        try:
            return read(body), at
        except MalformedLine:
            body.drain()
            raise

    def take_model(name: str, spec: ModelSpec, width: int, trees: TreeColumns) -> BaseModel:
        """The next section's model, checked against its spec and its width; its trees go to ``trees``."""
        (model, param_lines), at = section(name, lambda body: read_model(body, trees))
        # a model's family and dim lines are the second and third of its section
        if type(model) is not BUILTIN_FAMILIES[spec.family]:
            raise MalformedLine(f"{name} is not a {spec.family} model", at + 2)
        if model.n_features_ != width:
            raise MalformedLine(f"{name} has dim {model.n_features_}, expected {width}", at + 3)
        for key, value in spec.hyperparameters.items():
            held = getattr(model, key)  # a model keeps each parameter as an attribute
            if held != value:
                # name the model's `param` line, or its section header when it has none
                raise MalformedLine(f"{name} has {key} {held!r}, spec {value!r}", param_lines.get(key, at))
        return model

    def take_stage(names: Iterable[tuple[str, ModelSpec]], width: int) -> tuple[BaseModel, ...]:
        """The next sections' models, their trees compiled into one table, each model's a range of it."""
        trees = TreeColumns()
        models = tuple(take_model(name, spec, width, trees) for name, spec in names)
        trees.compile()
        return models

    schema, _ = section("schema", lambda body: schema_from_lines(body, offset=body.offset))
    try:
        selected = check_selection(columns, schema.total_dim)
    except UsageError as exc:
        raise MalformedLine(str(exc), selected_line) from None
    # a huge `k` fails at the first section it lacks
    first_models = take_stage(
        ((f"model first {j} {f}", spec) for j, spec in enumerate(first) for f in range(k)),
        len(selected),
    )
    second_models = take_stage(
        ((f"model second {j}", spec) for j, spec in enumerate(second)), n_first
    )
    last = reader.next()
    if last != "end":
        raise MalformedLine(f"expected 'end', got {last!r}", reader.line_no)
    reader.expect_end("trailing content after 'end'")
    return StackedPipeline(
        config=config,
        fold_models=tuple(first_models[j * k : (j + 1) * k] for j in range(n_first)),
        second_models=second_models,
        selected=selected,
        schema=schema,
    )


def save_pipeline(pipeline: StackedPipeline, path: Target) -> None:
    write_lines(path, pipeline_to_lines(pipeline))


def load_pipeline(path: Source) -> StackedPipeline:
    return pipeline_from_lines(iter_lines(path))

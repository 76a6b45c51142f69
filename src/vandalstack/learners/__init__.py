"""Base learners: a model-family registry over the five built-in families.

A :class:`ModelSpec` names a family plus hyperparameter overrides and a
seed; :func:`train` turns one into a fitted estimator.  Extra families can
be registered (used by the test suite to plant probe models inside the
stacking machinery); only built-in families are persistable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

from ..errors import UnsupportedFamily
from .base import BaseModel
from .boosting import GradientBoostingClassifier
from .forest import ExtraTreesClassifier, RandomForestClassifier
from .io import (
    BUILTIN_FAMILIES,
    TreeColumns,
    load_model,
    model_from_lines,
    model_to_lines,
    read_model,
    save_model,
)
from .linear import LogisticRegression
from .mlp import MLPClassifier
from .selection import feature_importances, project_matrix, select_features

_REGISTRY: dict[str, type] = dict(BUILTIN_FAMILIES)

# Grid-searched presets; "default" is the family's constructor defaults.
OPTIMIZED_PARAMS: dict[str, dict] = {
    "random_forest": {"n_estimators": 200, "max_depth": 8},
    "extra_trees": {"n_estimators": 200},
    "gradient_boosting": {"n_estimators": 200, "max_depth": 6},
    "logistic_regression": {},
    "mlp": {},
}


@dataclass(frozen=True)
class ModelSpec:
    """A trainable model description: family + hyperparameters + seed."""

    family: str
    hyperparameters: Mapping[str, object] = field(default_factory=dict)
    seed: int = 0


def register_family(name: str, cls: type) -> None:
    _REGISTRY[name] = cls


def make_model(spec: ModelSpec, seed: Optional[int] = None) -> BaseModel:
    cls = _REGISTRY.get(spec.family)
    if cls is None:
        raise UnsupportedFamily(f"unknown model family {spec.family!r}")
    return cls(**dict(spec.hyperparameters), seed=spec.seed if seed is None else seed)


def train(spec: ModelSpec, X, y, seed: Optional[int] = None) -> BaseModel:
    """Fit a fresh model for ``spec``; ``seed`` overrides ``spec.seed``."""
    return make_model(spec, seed=seed).fit(X, y)


def default_spec(family: str, seed: int = 0) -> ModelSpec:
    if family not in _REGISTRY:
        raise UnsupportedFamily(f"unknown model family {family!r}")
    return ModelSpec(family, {}, seed)


def optimized_spec(family: str, seed: int = 0) -> ModelSpec:
    params = OPTIMIZED_PARAMS.get(family)
    if params is None:
        raise UnsupportedFamily(f"no optimized preset for family {family!r}")
    return ModelSpec(family, dict(params), seed)

"""Estimator plumbing: parameter introspection and input validation.

Models follow the usual estimator conventions: hyperparameters are
constructor keyword arguments stored verbatim on the instance, ``fit``
returns ``self``, fitted state lives in trailing-underscore attributes,
and ``get_params`` / ``set_params`` expose the constructor arguments.

Each constructor annotation is the parameter's whole domain: its types,
and a bound as ``Annotated`` metadata (``Annotated[int, ">= 1"]``).
:func:`param_problem` reads it, for ``fit`` and for every file that
names a parameter.
"""

from __future__ import annotations

import inspect
import math
import operator
import typing
from functools import lru_cache
from typing import Annotated, Literal, Optional, Union

import numpy as np

from ..errors import DimensionMismatch, EmptyDataset, NotFitted


class BaseModel:
    """Shared estimator behaviour for every learner in this package."""

    @classmethod
    def _param_names(cls) -> list[str]:
        sig = inspect.signature(cls.__init__)
        return sorted(name for name in sig.parameters if name != "self")

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params) -> "BaseModel":
        valid = self._param_names()
        for name, value in params.items():
            if name not in valid:
                raise ValueError(
                    f"unknown parameter {name!r} for {type(self).__name__}"
                )
            setattr(self, name, value)
        return self

    def __repr__(self) -> str:
        args = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({args})"

    def _check_is_fitted(self) -> None:
        if not hasattr(self, "n_features_"):
            raise NotFitted(f"{type(self).__name__} has not been fit")

    def _check_params(self) -> None:
        """Raise ``ValueError`` for the first parameter outside its domain: ``fit``'s first step."""
        for name in _domains(type(self)):
            problem = param_problem(type(self), name, getattr(self, name))
            if problem:
                raise ValueError(problem)


_BOUNDS = {">=": operator.ge, ">": operator.gt}
_NAMES = {type(None): "None", float: "finite number"}


def _forms(hint) -> list[tuple]:
    """A parameter's annotation as (type or Literal value, bound or None) forms."""
    if typing.get_origin(hint) in (Union, Literal):
        return [form for member in typing.get_args(hint) for form in _forms(member)]
    return [typing.get_args(hint) if typing.get_origin(hint) is Annotated else (hint, None)]


@lru_cache(maxsize=None)
def _domains(cls) -> dict[str, list[tuple]]:
    """Each constructor parameter but ``seed`` (it has its own line in every file): its forms."""
    hints = typing.get_type_hints(cls.__init__, include_extras=True)
    return {name: _forms(hints[name]) for name in cls._param_names() if name != "seed"}


def _admits(kind, bound: Optional[str], value) -> bool:
    if not isinstance(kind, type):  # a Literal's value
        return type(value) is type(kind) and value == kind
    # exact types: a bool is no int here, nor an int a bool; an int is a float value
    if type(value) not in ((float, int) if kind is float else (kind,)):
        return False
    if kind is float and not math.isfinite(value):
        return False
    op, _, limit = (bound or "").partition(" ")
    return not op or _BOUNDS[op](value, float(limit))


def _describe(kind, bound: Optional[str]) -> str:
    text = _NAMES.get(kind, kind.__name__) if isinstance(kind, type) else kind
    return f"{text} {bound}" if bound else text


def param_problem(cls, name: str, value) -> Optional[str]:
    """Why ``value`` cannot be the ``cls`` parameter ``name``, or None if it can.

    The one parameter rule: ``fit`` raises its text as ``ValueError``,
    and a model file's ``param`` lines and a pipeline's ``spec`` lines as
    ``MalformedLine``.
    """
    forms = _domains(cls).get(name)
    if forms is None:
        return f"{cls.__name__} takes no parameter {name!r}"
    if any(_admits(kind, bound, value) for kind, bound in forms):
        return None
    return f"{name} takes " + " or ".join(_describe(kind, bound) for kind, bound in forms)


def check_dense(X) -> np.ndarray:
    """Coerce input to a 2-D C-contiguous float64 array: every learner's input rule.

    The one place that accepts sparse input: anything with a ``toarray``
    method (a scipy sparse matrix) is densified here, once.  An array
    already in that form is returned as is: never modify the result in
    place.
    """
    if not isinstance(X, np.ndarray) and hasattr(X, "toarray"):
        X = X.toarray()
    mat = np.ascontiguousarray(X, dtype=np.float64)
    if mat.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D matrix, got shape {mat.shape}")
    return mat


def check_X_y(X, y) -> tuple[np.ndarray, np.ndarray]:
    """Validate a training pair: matching lengths, finite ``X``, binary 0/1 labels.

    ``X`` comes back as a dense float64 array (see :func:`check_dense`).
    A NaN or infinite cell is refused, naming its row and column; only
    prediction takes NaN, which every tree sends right.  Single-class
    data is legal — trees emit constant leaves and the gradient models
    fit the prior.
    """
    mat = check_dense(X)
    finite = np.isfinite(mat)
    if not finite.all():
        row, col = np.argwhere(~finite)[0].tolist()
        raise ValueError(f"X must be finite: row {row}, column {col} holds {mat[row, col]}")
    labels = np.asarray(y)
    if labels.dtype == bool:
        labels = labels.astype(np.float64)
    else:
        labels = labels.astype(np.float64)
        if not np.all((labels == 0.0) | (labels == 1.0)):
            raise ValueError("labels must be binary (0/1 or bool)")
    if labels.ndim != 1 or mat.shape[0] != labels.shape[0]:
        raise DimensionMismatch(
            f"X has {mat.shape[0]} rows but y has shape {labels.shape}"
        )
    if mat.shape[0] == 0:
        raise EmptyDataset("cannot fit on zero examples")
    return mat, labels


def check_predict_input(model: BaseModel, X) -> np.ndarray:
    """Prediction input for a fitted model, as a dense float64 array."""
    model._check_is_fitted()
    mat = check_dense(X)
    if mat.shape[1] != model.n_features_:
        raise DimensionMismatch(
            f"model was fit with {model.n_features_} features, input has {mat.shape[1]}"
        )
    return mat

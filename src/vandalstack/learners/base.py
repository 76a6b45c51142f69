"""Estimator plumbing: parameter introspection and input validation.

Models follow the usual estimator conventions: hyperparameters are
constructor keyword arguments stored verbatim on the instance, ``fit``
returns ``self``, fitted state lives in trailing-underscore attributes,
and ``get_params`` / ``set_params`` expose the constructor arguments.
"""

from __future__ import annotations

import inspect

import numpy as np
from scipy import sparse

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


def check_matrix(X) -> sparse.csr_matrix:
    """Coerce input to a canonical 2-D CSR matrix of float64.

    For registered families that work on CSR rows; the built-in learners
    take :func:`check_dense`.  Input already in that form is returned as
    is; anything else is copied.  The caller's matrix is never modified.
    """
    if isinstance(X, sparse.csr_matrix) and X.dtype == np.float64 and X.has_sorted_indices:
        return X
    if isinstance(X, np.ndarray) and X.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D array, got shape {X.shape}")
    mat = sparse.csr_matrix(X, dtype=np.float64, copy=True)
    mat.sort_indices()
    return mat


def check_dense(X) -> np.ndarray:
    """Coerce input to a 2-D C-contiguous float64 array.

    Sparse input is densified here, once.  An array already in that form
    is returned as is: never modify the result in place.
    """
    if not isinstance(X, np.ndarray) and sparse.issparse(X):
        X = X.toarray()
    mat = np.ascontiguousarray(X, dtype=np.float64)
    if mat.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D matrix, got shape {mat.shape}")
    return mat


def check_X_y(X, y) -> tuple[np.ndarray, np.ndarray]:
    """Validate a training pair: matching lengths, binary 0/1 labels.

    ``X`` comes back as a dense float64 array (see :func:`check_dense`).
    Single-class data is legal — trees emit constant leaves and the
    gradient models fit the prior.
    """
    mat = check_dense(X)
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

"""Common interface for empirical models."""

from __future__ import annotations

import abc
from typing import Dict, List, Optional, Sequence

import numpy as np


class RegressionModel(abc.ABC):
    """An empirical model y = f_hat(x) fitted on coded design matrices.

    Subclasses implement :meth:`fit` and :meth:`predict`; the base class
    provides shared validation and bookkeeping.
    """

    def __init__(self, variable_names: Optional[Sequence[str]] = None):
        self.variable_names = list(variable_names) if variable_names else None
        self._fitted = False
        self._n_features: Optional[int] = None

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _fit(self, x: np.ndarray, y: np.ndarray) -> None:
        """Fit implementation; receives validated 2-D x and 1-D y."""

    @abc.abstractmethod
    def _predict(self, x: np.ndarray) -> np.ndarray:
        """Predict implementation; receives validated 2-D x."""

    # ------------------------------------------------------------------
    def fit(self, x: np.ndarray, y: np.ndarray) -> "RegressionModel":
        """Fit the model on a coded ``(n, k)`` design and ``(n,)`` response."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.asarray(y, dtype=float).ravel()
        if x.shape[0] != y.shape[0]:
            raise ValueError(
                f"design has {x.shape[0]} rows but response has {y.shape[0]}"
            )
        if x.shape[0] == 0:
            raise ValueError("cannot fit a model on an empty data set")
        if self.variable_names and len(self.variable_names) != x.shape[1]:
            raise ValueError(
                f"got {x.shape[1]} features but "
                f"{len(self.variable_names)} variable names"
            )
        self._n_features = x.shape[1]
        self._fit(x, y)
        self._fitted = True
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Predict responses at coded design points.

        Accepts an ``(n, k)`` design matrix or a single 1-D point of
        length ``k`` (promoted to ``(1, k)``); always returns an ``(n,)``
        vector.  Dimension mismatches fail here with a clear message
        rather than inside the subclass ``_predict``.
        """
        if not self._fitted:
            raise RuntimeError("model is not fitted")
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            if x.shape[0] != self._n_features:
                raise ValueError(
                    f"1-D input has length {x.shape[0]} but the model was "
                    f"fitted on {self._n_features} features; pass an "
                    f"(n, {self._n_features}) matrix to predict a batch"
                )
            x = x[None, :]
        elif x.ndim != 2:
            raise ValueError(
                f"expected a 1-D point or 2-D design matrix, got "
                f"{x.ndim}-D input of shape {x.shape}"
            )
        if x.shape[1] != self._n_features:
            raise ValueError(
                f"model was fitted on {self._n_features} features, "
                f"got {x.shape[1]}"
            )
        return self._predict(x)

    def predict_one(self, x: Sequence[float]) -> float:
        """Predict the response at a single coded design point."""
        return float(self.predict(np.asarray(x, dtype=float).ravel())[0])

    @property
    def is_fitted(self) -> bool:
        return self._fitted

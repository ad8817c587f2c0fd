"""Prediction serving: validated, cached, instrumented model evaluation.

A :class:`Predictor` wraps a fitted model for serving duty:

* **validation** -- inputs are checked against the model's feature count
  and (when the model was saved with its design space) the space itself,
  so a malformed request fails with a clear error instead of a numpy
  shape blow-up deep inside ``_predict``;
* **batching** -- requests are (n, k) matrices; cache misses within a
  batch are evaluated in one vectorized model call;
* **LRU cache** -- per-point results keyed on the exact input bytes.
  GA-style clients re-evaluate elite individuals across generations, so
  repeated points are the common case;
* **telemetry** -- ``serve.requests`` / ``serve.predictions`` /
  ``serve.cache_hit`` / ``serve.cache_miss`` counters and a
  ``serve.predict_ms`` latency histogram through :mod:`repro.obs`.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Any, Dict, Mapping, Optional

import numpy as np

from repro.models.base import RegressionModel
from repro.obs import counter, histogram, span
from repro.space import ParameterSpace

_REQUESTS = counter("serve.requests")
_PREDICTIONS = counter("serve.predictions")
_CACHE_HIT = counter("serve.cache_hit")
_CACHE_MISS = counter("serve.cache_miss")
_PREDICT_MS = histogram("serve.predict_ms")


class Predictor:
    """Serve predictions from a fitted model.

    Parameters
    ----------
    model:
        Any fitted :class:`RegressionModel`.
    space:
        Optional :class:`ParameterSpace`; enables raw-point prediction
        (:meth:`predict_point`) and stricter input validation.
    cache_size:
        Maximum cached (point -> prediction) entries; 0 or less keeps
        none.
    name:
        Display name used in ``info()`` (e.g. the registry name).
    input_bound:
        Reject rows with any ``|value| > input_bound`` (the coded design
        domain is [-1, 1]).  ``None`` disables the check -- pooled
        cross-program models take z-scored program features whose range
        is not the coded domain.
    """

    def __init__(
        self,
        model: RegressionModel,
        space: Optional[ParameterSpace] = None,
        cache_size: int = 65536,
        name: Optional[str] = None,
        model_id: Optional[str] = None,
        input_bound: Optional[float] = 1.0,
    ):
        if not model.is_fitted:
            raise ValueError("Predictor requires a fitted model")
        if space is not None and space.dim != model._n_features:
            raise ValueError(
                f"space has {space.dim} variables but the model expects "
                f"{model._n_features} features"
            )
        self.model = model
        self.space = space
        self.name = name
        #: Registry content digest this predictor was loaded from, if
        #: any -- the link serve-session provenance events record.
        self.model_id = model_id
        self.input_bound = input_bound
        self.cache_size = max(0, int(cache_size))
        self._cache: "OrderedDict[bytes, float]" = OrderedDict()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    @classmethod
    def from_registry(
        cls,
        ref: str,
        registry: Optional["Any"] = None,
        cache_size: int = 65536,
    ) -> "Predictor":
        """Load a registry model (by name or id) into a Predictor."""
        from repro.serve.registry import default_registry

        loaded = (registry or default_registry()).load(ref)
        # Pooled cross-program models (manifest "workgen" block, see
        # repro.workgen.generalize.MANIFEST_KEY) take rows that extend
        # past the coded design domain with z-scored program features.
        bound = None if "workgen" in loaded.manifest else 1.0
        return cls(
            loaded.model,
            space=loaded.space,
            cache_size=cache_size,
            name=loaded.name or loaded.id,
            model_id=loaded.id,
            input_bound=bound,
        )

    @property
    def n_features(self) -> int:
        return int(self.model._n_features)

    # ------------------------------------------------------------------
    def _validate(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x[None, :]
        if x.ndim != 2:
            raise ValueError(
                f"expected a coded point or (n, {self.n_features}) matrix, "
                f"got {x.ndim}-D input"
            )
        if x.shape[1] != self.n_features:
            raise ValueError(
                f"input has {x.shape[1]} features, model expects "
                f"{self.n_features}"
            )
        if not np.isfinite(x).all():
            raise ValueError("input contains non-finite values")
        if (
            self.input_bound is not None
            and x.size
            and (np.abs(x) > self.input_bound + 1e-9).any()
        ):
            raise ValueError(
                f"coded inputs must lie in [-{self.input_bound:g}, "
                f"{self.input_bound:g}]; encode raw points through the "
                "design space first"
            )
        return np.ascontiguousarray(x)

    # ------------------------------------------------------------------
    def predict(self, x: np.ndarray) -> np.ndarray:
        """Predict a batch of coded points; (n, k) -> (n,).

        Rows already in the LRU cache are served from it; the remaining
        rows go through the model in a single vectorized call and are
        cached on the way out.
        """
        t0 = time.perf_counter()
        with span("serve.predict", model=self.name or "?") as sp:
            x = self._validate(x)
            n = x.shape[0]
            sp.set_attr("n", n)
            _REQUESTS.inc()
            _PREDICTIONS.inc(n)
            keys = [x[i].tobytes() for i in range(n)]
            y = np.empty(n, dtype=float)
            miss_rows = []
            with self._lock:
                for i, key in enumerate(keys):
                    hit = self._cache.get(key)
                    if hit is not None:
                        self._cache.move_to_end(key)
                        y[i] = hit
                    else:
                        miss_rows.append(i)
            _CACHE_HIT.inc(n - len(miss_rows))
            _CACHE_MISS.inc(len(miss_rows))
            sp.set_attr("misses", len(miss_rows))
            if miss_rows:
                fresh = np.asarray(
                    self.model.predict(x[miss_rows]), dtype=float
                )
                y[miss_rows] = fresh
                with self._lock:
                    for i, value in zip(miss_rows, fresh):
                        self._cache[keys[i]] = float(value)
                        self._cache.move_to_end(keys[i])
                    while len(self._cache) > self.cache_size:
                        self._cache.popitem(last=False)
            _PREDICT_MS.observe((time.perf_counter() - t0) * 1e3)
            return y

    def predict_point(self, point: Mapping[str, float]) -> float:
        """Predict at a raw design-point dict (requires a space)."""
        if self.space is None:
            raise ValueError(
                "predict_point needs a design space; this model was "
                "saved without one"
            )
        self.space.validate(point)
        return float(self.predict(self.space.encode(point))[0])

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.predict(x)

    # ------------------------------------------------------------------
    @property
    def cache_len(self) -> int:
        with self._lock:
            return len(self._cache)

    def info(self) -> Dict[str, Any]:
        """Serving metadata (used by the wire protocol's ``info`` op)."""
        return {
            "name": self.name,
            "model_id": self.model_id,
            "family": type(self.model).__name__,
            "n_features": self.n_features,
            "variable_names": self.model.variable_names,
            "has_space": self.space is not None,
            "cache_size": self.cache_size,
            "cache_len": self.cache_len,
        }

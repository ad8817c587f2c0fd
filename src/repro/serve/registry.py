"""Versioned, content-addressed on-disk model registry.

Layout (default root ``results/registry/``, override with
``REPRO_REGISTRY_DIR``)::

    <root>/objects/<id>/manifest.json   # one immutable object per
    <root>/objects/<id>/arrays.npz      #   content digest
    <root>/names/<name>.json            # mutable name -> version history

An *object* is a serialized model addressed by the digest of its own
payload (see :func:`repro.serve.serialize.payload_digest`); saving a
bit-identical model twice stores it once.  A *name* is a mutable pointer
with full history: every ``save(name=...)`` appends a version entry and
moves ``latest``, so ``load("my-model")`` always serves the newest fit
while older versions stay addressable by id.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro import store
from repro.models.base import RegressionModel
from repro.obs import counter
from repro.obs.ledger import record_event
from repro.serve.serialize import load_model, manifest_space, save_model
from repro.space import ParameterSpace

_SAVES = counter("registry.saves")
_LOADS = counter("registry.loads")

#: Default registry root, relative to the working directory.
DEFAULT_REGISTRY_DIR = os.path.join("results", "registry")

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")
_ID_RE = re.compile(r"^[0-9a-f]{16}$")


class RegistryError(KeyError):
    """A name or id could not be resolved in the registry."""


@dataclass
class LoadedModel:
    """A model pulled out of the registry, with its provenance."""

    model: RegressionModel
    manifest: Dict[str, Any]
    #: Content digest (the object id).
    id: str
    #: Registry name the model was resolved through (None for raw ids).
    name: Optional[str] = None
    #: Design space embedded at save time, if any.
    space: Optional[ParameterSpace] = field(default=None)


class ModelRegistry:
    """Named, versioned store of serialized models.

    Parameters
    ----------
    root:
        Registry directory; created lazily on first save.  ``None``
        reads ``REPRO_REGISTRY_DIR`` (default ``results/registry``).
    """

    def __init__(self, root: Optional[Union[str, Path]] = None):
        if root is None:
            root = os.environ.get("REPRO_REGISTRY_DIR") or DEFAULT_REGISTRY_DIR
        self.root = Path(root)

    # ------------------------------------------------------------------
    def _objects_dir(self) -> Path:
        return self.root / "objects"

    def _names_dir(self) -> Path:
        return self.root / "names"

    def _name_path(self, name: str) -> Path:
        return self._names_dir() / f"{name}.json"

    @staticmethod
    def _check_name(name: str) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(
                f"bad model name {name!r}: use letters, digits, '.', '_', '-'"
            )

    # ------------------------------------------------------------------
    def save(
        self,
        model: RegressionModel,
        name: str,
        space: Optional[ParameterSpace] = None,
        corpus: Optional[Tuple[np.ndarray, np.ndarray]] = None,
        fit_metrics: Optional[Mapping[str, float]] = None,
        extra_manifest: Optional[Mapping[str, Any]] = None,
    ) -> LoadedModel:
        """Serialize ``model`` into the object store and point ``name``
        at it.  Returns the stored entry (manifest includes the id)."""
        self._check_name(name)
        # Serialize into a scratch dir first so the digest names the
        # final object directory; identical payloads land on the
        # existing object and only the name pointer moves.
        scratch = self._objects_dir() / f".tmp-{os.getpid()}-{id(model):x}"
        manifest = save_model(
            model,
            scratch,
            space=space,
            corpus=corpus,
            fit_metrics=fit_metrics,
            extra_manifest=extra_manifest,
        )
        digest = manifest["id"]
        final = self._objects_dir() / digest
        try:
            os.replace(scratch, final)
        except OSError:
            # Content-addressed dedupe: the bytes are already stored,
            # perhaps by a concurrent save of the same model.
            if not final.is_dir():
                raise
            shutil.rmtree(scratch)
        self._append_version(name, digest)
        _SAVES.inc()
        record_event(
            "registry_publish",
            attrs={
                "name": name,
                "family": manifest.get("family"),
                "n_features": manifest.get("n_features"),
                "space_fingerprint": manifest.get("space_fingerprint"),
                "corpus_fingerprint": manifest.get("corpus_fingerprint"),
                "fit_metrics": dict(fit_metrics or {}),
                "registry_root": str(self.root),
            },
            refs={"model_id": digest},
        )
        return LoadedModel(
            model=model,
            manifest=manifest,
            id=digest,
            name=name,
            space=space,
        )

    def _append_version(self, name: str, digest: str) -> None:
        def merge(prior: Dict[str, Any]) -> Dict[str, Any]:
            history = list(prior.get("history", []))
            history.append({"id": digest, "saved_unix": time.time()})
            return {"latest": digest, "history": history}

        store.update_json(self._name_path(name), merge, newline=True, indent=1)

    # ------------------------------------------------------------------
    def resolve(self, ref: str) -> str:
        """Resolve a name or raw object id to an object id."""
        if _ID_RE.match(ref) and (self._objects_dir() / ref).exists():
            return ref
        path = self._name_path(ref)
        if path.exists():
            try:
                record = json.loads(path.read_text())
                digest = record.get("latest")
            except (json.JSONDecodeError, OSError):
                digest = None
            if digest and (self._objects_dir() / digest).exists():
                return digest
            raise RegistryError(
                f"registry name {ref!r} points at missing object {digest!r}"
            )
        raise RegistryError(
            f"no model named {ref!r} in registry {self.root} "
            f"(known: {', '.join(self.names()) or 'none'})"
        )

    def load(self, ref: str) -> LoadedModel:
        """Load a model by name (latest version) or object id."""
        digest = self.resolve(ref)
        model, manifest = load_model(self._objects_dir() / digest)
        _LOADS.inc()
        return LoadedModel(
            model=model,
            manifest=manifest,
            id=digest,
            name=ref if not _ID_RE.match(ref) else None,
            space=manifest_space(manifest),
        )

    # ------------------------------------------------------------------
    def names(self) -> List[str]:
        """All registered names, sorted."""
        d = self._names_dir()
        if not d.is_dir():
            return []
        return sorted(p.stem for p in d.glob("*.json"))

    def versions(self, name: str) -> List[Dict[str, Any]]:
        """The version history of a name, oldest first."""
        path = self._name_path(name)
        if not path.exists():
            raise RegistryError(f"no model named {name!r} in {self.root}")
        record = json.loads(path.read_text())
        return list(record.get("history", []))

    def entries(self) -> List[Dict[str, Any]]:
        """One summary dict per name: id, family, dims, fit metrics."""
        out = []
        for name in self.names():
            try:
                digest = self.resolve(name)
                manifest = json.loads(
                    (self._objects_dir() / digest / "manifest.json").read_text()
                )
            except (RegistryError, OSError, json.JSONDecodeError):
                continue
            out.append(
                {
                    "name": name,
                    "id": digest,
                    "family": manifest.get("family"),
                    "n_features": manifest.get("n_features"),
                    "space_fingerprint": manifest.get("space_fingerprint"),
                    "corpus_fingerprint": manifest.get("corpus_fingerprint"),
                    "fit_metrics": manifest.get("fit_metrics", {}),
                    "versions": len(self.versions(name)),
                }
            )
        return out

    def describe(self) -> str:
        """Human-readable listing for ``repro registry``."""
        entries = self.entries()
        if not entries:
            return f"(registry {self.root} is empty)"
        lines = [
            f"{'name':<20} {'id':<17} {'family':<7} {'dims':>4} "
            f"{'vers':>4}  fit metrics"
        ]
        for e in entries:
            metrics = ", ".join(
                f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                for k, v in sorted(e["fit_metrics"].items())
            )
            lines.append(
                f"{e['name']:<20} {e['id']:<17} {str(e['family']):<7} "
                f"{e['n_features']!s:>4} {e['versions']:>4}  {metrics}"
            )
        return "\n".join(lines)


def default_registry() -> ModelRegistry:
    """Registry rooted at ``$REPRO_REGISTRY_DIR`` or ``results/registry``."""
    return ModelRegistry()

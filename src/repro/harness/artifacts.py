"""On-disk content-addressed store for compiled binaries and traces.

The expensive substrate work of a measurement -- compiling the workload
at one compiler configuration and running it functionally to get the
dynamic trace -- is a pure function of (workload source, input, compiler
key, compiler version, issue width).  This store shares that work across
*processes*: N pool workers measuring points that need the same binary
compile it once, and every later engine on the same cache directory
skips both the compile and the functional run entirely.

Layout (under ``<cache_dir>/artifacts/``):

* ``bin/<key>.pkl`` -- the pickled :class:`Executable` for one compiler
  key digest.  The key covers the workload-source fingerprint and
  ``COMPILER_VERSION``, so editing a workload or the compiler can never
  resurrect a stale binary.
* ``trace/<static_digest>.pkl`` -- the functional outcome (checksum,
  instruction count, packed trace arrays), keyed on the *binary's*
  content digest, which covers its code and its initialised data.
  Distinct flag settings that emit an identical image -- the dominant
  case in one-factor screens -- share one stored trace, because the
  trace is a pure function of the executable; two inputs whose
  binaries differ only in initialised data do not.

Neither file carries the simulator's tables: they belong to the trace
object (:func:`repro.sim.tracepack.tables_for`), and only the trace's two
arrays are stored.

Writes are atomic (:func:`repro.store.write_atomic`) and need no lock:
files are content-addressed, so concurrent writers of the same key
write identical bytes and either replacement is correct.  Reads are
tolerant -- any unpicklable/corrupt file reads as a miss.
"""

from __future__ import annotations

import os
import pickle
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from repro import store
from repro.codegen.linker import Executable
from repro.obs import counter
from repro.sim.func import FunctionalResult
from repro.sim.tracepack import PackedTrace, static_digest

BINARY_HITS = counter("measure.artifacts.binary_hits")
BINARY_MISSES = counter("measure.artifacts.binary_misses")
TRACE_HITS = counter("measure.artifacts.trace_hits")
TRACE_MISSES = counter("measure.artifacts.trace_misses")

#: Bump when the stored payload layout changes.
ARTIFACT_VERSION = 1


def _write_pickle(path: Path, payload: object) -> None:
    store.write_atomic(
        path,
        lambda f: pickle.dump(payload, f, protocol=pickle.HIGHEST_PROTOCOL),
        binary=True,
    )


class ArtifactStore:
    """Binary + trace artifact cache rooted at one directory."""

    def __init__(self, root: os.PathLike):
        self.root = Path(root)
        self._bin_dir = self.root / "bin"
        self._trace_dir = self.root / "trace"

    # ------------------------------------------------------------------
    def _read(self, path: Path) -> Optional[dict]:
        try:
            with open(path, "rb") as f:
                payload = pickle.load(f)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError):
            return None
        if (
            not isinstance(payload, dict)
            or payload.get("version") != ARTIFACT_VERSION
        ):
            return None
        return payload

    # ------------------------------------------------------------------
    def load_binary(self, key: str) -> Optional[Executable]:
        payload = self._read(self._bin_dir / f"{key}.pkl")
        if payload is None:
            BINARY_MISSES.inc()
            return None
        exe = payload.get("exe")
        if not isinstance(exe, Executable):
            BINARY_MISSES.inc()
            return None
        BINARY_HITS.inc()
        return exe

    def store_binary(self, key: str, exe: Executable) -> None:
        _write_pickle(
            self._bin_dir / f"{key}.pkl", {"version": ARTIFACT_VERSION, "exe": exe}
        )

    # ------------------------------------------------------------------
    def load_trace(self, exe: Executable) -> Optional[FunctionalResult]:
        """The stored functional outcome for this exact binary, if any.

        The trace's arrays are read-only views of the stored bytes, not
        copies: nothing writes into a trace.
        """
        payload = self._read(
            self._trace_dir / f"{static_digest(exe)}.pkl"
        )
        if payload is None:
            TRACE_MISSES.inc()
            return None
        try:
            n = int(payload["n"])
            pcs = np.frombuffer(payload["pcs"], dtype=np.int64)
            eas = np.frombuffer(payload["eas"], dtype=np.int64)
            if pcs.shape[0] != n or eas.shape[0] != n:
                TRACE_MISSES.inc()
                return None
            result = FunctionalResult(
                return_value=int(payload["return_value"]),
                instruction_count=int(payload["instruction_count"]),
                trace=PackedTrace(pcs, eas),
            )
        except (KeyError, ValueError, TypeError):
            TRACE_MISSES.inc()
            return None
        TRACE_HITS.inc()
        return result

    def store_trace(self, exe: Executable, functional: FunctionalResult) -> None:
        packed = functional.trace
        if packed is None:
            return
        _write_pickle(
            self._trace_dir / f"{static_digest(exe)}.pkl",
            {
                "version": ARTIFACT_VERSION,
                "n": len(packed),
                "pcs": packed.pcs.tobytes(),
                "eas": packed.eas.tobytes(),
                "return_value": functional.return_value,
                "instruction_count": functional.instruction_count,
            },
        )

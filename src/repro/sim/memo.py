"""Content-addressed memoization of SMARTS timing work.

Two exact (bit-identical-by-construction) memo layers over the timing
simulator, shared across design points, engines and worker processes:

* **run level** -- a whole ``smarts_simulate`` (or exhaustive detailed)
  outcome, keyed on (static binary digest, trace digest, full timing
  key, sampling schedule).  Design points that differ only in compiler
  flags which happened to produce the same machine code -- the dominant
  case in one-factor DOE screens and GA populations -- hit here and
  skip the simulator entirely.
* **unit level** -- one sampled SMARTS unit's (cycles, instructions)
  contribution, keyed on the *chained prefix digest* of the trace up to
  the unit's cooldown end plus the unit's boundaries.  The chain makes
  the key cover everything the unit's incoming microarchitectural state
  depends on (every earlier trace byte and the unit schedule), so a hit
  is exact, never approximate.  On a hit the detailed window is
  replaced by the much cheaper state-replay pass
  (:meth:`repro.sim.ooo.OooTimingModel.replay_window`).

Keys embed the **full** timing key -- every field of
:class:`MicroarchConfig`, including the structural parameters -- plus a
memo schema version, so collisions across microarchitectures are
impossible by construction (test-enforced).

Persistence follows the measurement cache's discipline: one JSON file,
read-merge-replace under an ``fcntl`` lock file, atomic ``os.replace``
publication.  Workers load at pool init and save after each chunk, so
N workers simulate each distinct (binary, microarch) unit once instead
of N times.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import tempfile
from dataclasses import fields
from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple

from repro.obs import counter
from repro.sim.config import MicroarchConfig

#: Bump when timing semantics change: stale entries must never be served
#: across simulator versions.
SIM_MEMO_VERSION = 1

#: Soft cap on persisted unit entries; oldest half is dropped beyond it.
MAX_UNIT_ENTRIES = 200_000

RUN_HITS = counter("sim.memo.run.hits")
RUN_MISSES = counter("sim.memo.run.misses")
UNIT_HITS = counter("sim.memo.unit.hits")
UNIT_MISSES = counter("sim.memo.unit.misses")


def timing_key(config: MicroarchConfig) -> str:
    """The full timing identity of a microarchitecture.

    Every dataclass field participates -- the 11 modeled parameters
    *and* the structural ones (block size, store buffer, penalties,
    bus) -- so two configs that could time any trace differently can
    never share memo entries.
    """
    parts = [f"v{SIM_MEMO_VERSION}"]
    for f in fields(config):
        parts.append(f"{f.name}={getattr(config, f.name)}")
    return "|".join(parts)


class TimingMemo:
    """In-memory + optionally disk-backed timing memo."""

    def __init__(self, path: Optional[os.PathLike] = None):
        self._runs: Dict[str, dict] = {}
        self._units: Dict[str, Tuple[int, int]] = {}
        self._dirty = False
        self._path: Optional[Path] = Path(path) if path is not None else None
        if self._path is not None:
            self.load()

    # -- keys -----------------------------------------------------------
    @staticmethod
    def run_key(
        static_dig: str,
        trace_dig: str,
        tkey: str,
        mode: str,
        unit_size: int,
        interval: int,
        offset: int,
        warmup: int,
        cooldown: int,
    ) -> str:
        return hashlib.md5(
            (
                f"{static_dig}|{trace_dig}|{tkey}|{mode}|{unit_size}|"
                f"{interval}|{offset}|{warmup}|{cooldown}"
            ).encode(),
            usedforsecurity=False,
        ).hexdigest()

    # -- run level ------------------------------------------------------
    def get_run(self, key: str) -> Optional[dict]:
        hit = self._runs.get(key)
        if hit is not None:
            RUN_HITS.inc()
            return hit
        RUN_MISSES.inc()
        return None

    def put_run(self, key: str, payload: dict) -> None:
        self._runs[key] = payload
        self._dirty = True

    # -- unit level -----------------------------------------------------
    def get_unit(self, key: str) -> Optional[Tuple[int, int]]:
        hit = self._units.get(key)
        if hit is not None:
            UNIT_HITS.inc()
            return hit
        UNIT_MISSES.inc()
        return None

    def put_unit(self, key: str, cycles: int, instructions: int) -> None:
        self._units[key] = (cycles, instructions)
        self._dirty = True

    # -- stats ----------------------------------------------------------
    @property
    def n_runs(self) -> int:
        return len(self._runs)

    @property
    def n_units(self) -> int:
        return len(self._units)

    def clear(self) -> None:
        self._runs.clear()
        self._units.clear()
        self._dirty = False

    # -- persistence ----------------------------------------------------
    @contextlib.contextmanager
    def _save_lock(self) -> Iterator[None]:
        try:
            import fcntl
        except ImportError:  # non-POSIX: merge still bounds the loss
            yield
            return
        lock_path = self._path.with_suffix(".lock")
        with open(lock_path, "w") as lk:
            fcntl.flock(lk, fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(lk, fcntl.LOCK_UN)

    def _read_disk_raw(self) -> dict:
        if self._path is None or not self._path.exists():
            return {}
        try:
            raw = json.loads(self._path.read_text())
        except (json.JSONDecodeError, OSError):
            return {}
        if not isinstance(raw, dict) or raw.get("version") != SIM_MEMO_VERSION:
            return {}
        return raw

    def load(self) -> None:
        raw = self._read_disk_raw()
        for key, value in raw.get("runs", {}).items():
            self._runs.setdefault(key, value)
        for key, value in raw.get("units", {}).items():
            self._units.setdefault(key, (int(value[0]), int(value[1])))

    def save(self) -> None:
        """Merge-and-flush to disk (no-op without a path or when clean)."""
        if self._path is None or not self._dirty:
            return
        self._path.parent.mkdir(parents=True, exist_ok=True)
        with self._save_lock():
            raw = self._read_disk_raw()
            runs = raw.get("runs", {})
            units = raw.get("units", {})
            # Absorb concurrent writers' entries, then overlay ours.
            for key, value in runs.items():
                self._runs.setdefault(key, value)
            for key, value in units.items():
                self._units.setdefault(key, (int(value[0]), int(value[1])))
            if len(self._units) > MAX_UNIT_ENTRIES:
                keep = list(self._units.items())[len(self._units) // 2 :]
                self._units = dict(keep)
            payload = {
                "version": SIM_MEMO_VERSION,
                "runs": self._runs,
                "units": {k: list(v) for k, v in self._units.items()},
            }
            fd, tmp = tempfile.mkstemp(
                dir=str(self._path.parent),
                prefix=self._path.name,
                suffix=".tmp",
            )
            try:
                with os.fdopen(fd, "w") as f:
                    json.dump(payload, f)
                os.replace(tmp, self._path)
            except BaseException:
                if os.path.exists(tmp):
                    os.unlink(tmp)
                raise
        self._dirty = False


_DEFAULT: Optional[TimingMemo] = None


def default_memo() -> TimingMemo:
    """Process-wide memo, persisted under ``REPRO_CACHE_DIR`` (same
    opt-out values as the measurement cache)."""
    global _DEFAULT
    if _DEFAULT is None:
        cache_dir = os.environ.get("REPRO_CACHE_DIR", ".repro_cache")
        if cache_dir.lower() in ("0", "off", "none", ""):
            _DEFAULT = TimingMemo(path=None)
        else:
            _DEFAULT = TimingMemo(path=Path(cache_dir) / "sim_memo.json")
    return _DEFAULT

"""Append-only provenance ledger: every run leaves a verifiable trail.

The paper's empirical models are only trustworthy if a served prediction
can be traced back to the measurements that produced it.  The ledger
makes that chain durable: each measurement batch, model fit, registry
publish, serve session, and fired alert appends one schema-versioned
JSON line to ``ledger.jsonl``, linked by a per-process *run id* and by
explicit references (measurement result keys, config digests, model
content digests, registry names).

``repro lineage <model-ref>`` walks the chain backwards from a registry
model: which fit produced it, which measurement batches fed that fit
(down to the simulator result keys and compiler/microarch config
digests), and which serve sessions have since exposed it.

Writes hold the store lock (:func:`repro.store.locked`, an ``flock``
on a sibling ``.lock`` file), which serializes appenders, and each
event is a single ``O_APPEND`` write of one line, so concurrent
processes (pool workers, a serving tier, CI legs sharing a cache
directory) interleave whole events and never corrupt each other.  The
file is append-only; the only rewrite is an explicit
:meth:`Ledger.compact`, which applies the same retention policy as
``repro trace --gc`` and records itself as a ``compact`` event.

Enable/disable and placement follow the metrics persistence rules:
events land in ``$REPRO_LEDGER_PATH`` when set, otherwise in
``<$REPRO_CACHE_DIR>/ledger.jsonl`` (default ``.repro_cache``);
``REPRO_LEDGER=off`` disables recording entirely, as does a disabled
cache directory (``REPRO_CACHE_DIR=off``) without an explicit path.
"""

from __future__ import annotations

import json
import os
import threading
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from repro import store

#: Bump on any incompatible change to the event layout.
LEDGER_SCHEMA_VERSION = 1

#: Event kinds written by the built-in instrumentation.  ``append`` also
#: accepts arbitrary kinds so downstream layers (active learning, CI)
#: can extend the vocabulary without touching this module.
KNOWN_KINDS = (
    "measure_batch",
    "model_fit",
    "registry_publish",
    "serve_session",
    "alert",
    "compact",
)

#: Result-key lists on ``measure_batch`` events are capped at this many
#: entries (the full count is always recorded as ``n_points``); lineage
#: stays exact for model-building batch sizes while a million-point
#: sweep cannot bloat the ledger.
MAX_RESULT_KEYS_PER_EVENT = 256

#: One id per process: every event it appends carries this, which is
#: what lets lineage correlate a fit with the measurement batches that
#: fed it without plumbing identifiers through every call chain.
RUN_ID = uuid.uuid4().hex[:12]


@dataclass
class LedgerEvent:
    """One parsed ledger line."""

    kind: str
    ts: float
    run: str
    event_id: str
    pid: int
    attrs: Dict[str, Any] = field(default_factory=dict)
    refs: Dict[str, Any] = field(default_factory=dict)
    schema: int = LEDGER_SCHEMA_VERSION

    def to_json(self) -> str:
        return json.dumps(
            {
                "schema": self.schema,
                "id": self.event_id,
                "run": self.run,
                "kind": self.kind,
                "ts": self.ts,
                "pid": self.pid,
                "attrs": self.attrs,
                "refs": self.refs,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, raw: Union[str, bytes]) -> "LedgerEvent":
        obj = json.loads(raw)
        if not isinstance(obj, dict):
            raise ValueError("ledger event must be a JSON object")
        return cls(
            kind=str(obj["kind"]),
            ts=float(obj["ts"]),
            run=str(obj.get("run", "")),
            event_id=str(obj.get("id", "")),
            pid=int(obj.get("pid", 0)),
            attrs=dict(obj.get("attrs") or {}),
            refs=dict(obj.get("refs") or {}),
            schema=int(obj.get("schema", 0)),
        )


@dataclass
class VerifyReport:
    """Outcome of :meth:`Ledger.verify`."""

    n_events: int = 0
    by_kind: Dict[str, int] = field(default_factory=dict)
    issues: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.issues

    def summary(self) -> str:
        lines = [f"{self.n_events} event(s)"]
        for kind in sorted(self.by_kind):
            lines.append(f"  {kind:<18} {self.by_kind[kind]}")
        if self.issues:
            lines.append(f"{len(self.issues)} issue(s):")
            lines.extend(f"  {i}" for i in self.issues)
        else:
            lines.append("ledger verified: no issues")
        return "\n".join(lines)


@dataclass
class Lineage:
    """The reconstructed provenance chain of one registry model."""

    ref: str
    #: Content digest the ref resolved to (None if unresolvable).
    model_id: Optional[str]
    publishes: List[LedgerEvent] = field(default_factory=list)
    fits: List[LedgerEvent] = field(default_factory=list)
    batches: List[LedgerEvent] = field(default_factory=list)
    serves: List[LedgerEvent] = field(default_factory=list)
    alerts: List[LedgerEvent] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        """True when the full publish->fit->measurements chain exists."""
        return bool(self.publishes and self.fits and self.batches)

    def result_keys(self) -> List[str]:
        """Every measurement result key feeding this model, deduplicated
        in first-seen order."""
        seen: Dict[str, None] = {}
        for e in self.batches:
            for key in e.refs.get("result_keys") or []:
                seen.setdefault(key, None)
        return list(seen)

    def to_dict(self) -> Dict[str, Any]:
        def dump(events: List[LedgerEvent]) -> List[Dict[str, Any]]:
            return [json.loads(e.to_json()) for e in events]

        return {
            "ref": self.ref,
            "model_id": self.model_id,
            "complete": self.complete,
            "publishes": dump(self.publishes),
            "fits": dump(self.fits),
            "measure_batches": dump(self.batches),
            "serve_sessions": dump(self.serves),
            "alerts": dump(self.alerts),
            "result_keys": self.result_keys(),
        }

    def describe(self) -> str:
        """Human-readable chain, newest publish first."""
        lines = [f"lineage of {self.ref!r} (object {self.model_id or '?'})"]
        if not self.publishes:
            lines.append("  no registry_publish event recorded")
        for pub in self.publishes:
            a = pub.attrs
            lines.append(
                f"  published {_when(pub.ts)} as {a.get('name')!r} "
                f"(family {a.get('family')}, run {pub.run})"
            )
        for fit in self.fits:
            a = fit.attrs
            lines.append(
                f"  fitted    {_when(fit.ts)}: {a.get('family', '?')} on "
                f"{a.get('workload', '?')}/{a.get('input', '?')}, "
                f"{a.get('n_samples', '?')} samples, "
                f"test error {_fmt(a.get('test_error_pct'))}%"
            )
        keys = self.result_keys()
        if self.batches:
            n_points = sum(int(e.attrs.get("n_points", 0)) for e in self.batches)
            n_misses = sum(int(e.attrs.get("n_misses", 0)) for e in self.batches)
            lines.append(
                f"  measured  {len(self.batches)} batch(es): {n_points} "
                f"point(s), {n_misses} simulator run(s), "
                f"{len(keys)} unique result key(s)"
            )
            for e in self.batches:
                lines.append(
                    f"    {_when(e.ts)}  {e.attrs.get('workload', '?')}"
                    f"/{e.attrs.get('input', '?')}  "
                    f"{e.attrs.get('n_points', '?')} pts  "
                    f"config digest {e.refs.get('config_digest', '?')}"
                )
        else:
            lines.append("  no measure_batch events recorded")
        if self.serves:
            for e in self.serves:
                a = e.attrs
                phase = a.get("phase", "?")
                extra = ""
                if phase == "end":
                    extra = (
                        f", {a.get('requests', 0)} request(s), "
                        f"error rate {_fmt(a.get('error_rate'))}"
                    )
                lines.append(
                    f"  served    {_when(e.ts)} [{phase}] "
                    f"on {a.get('address', '?')}{extra}"
                )
        else:
            lines.append("  no serve sessions recorded")
        for e in self.alerts:
            lines.append(
                f"  ALERT     {_when(e.ts)}  {e.attrs.get('rule')}: "
                f"{e.attrs.get('message')}"
            )
        lines.append(f"  chain {'COMPLETE' if self.complete else 'INCOMPLETE'}")
        return "\n".join(lines)


def _when(ts: float) -> str:
    return time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(ts))


def _fmt(value: Any) -> str:
    try:
        return f"{float(value):.3g}"
    except (TypeError, ValueError):
        return "?"


class Ledger:
    """Append-only JSONL event log with flock-serialized writers.

    Parameters
    ----------
    path:
        The ``ledger.jsonl`` file; parent directories are created on
        first append.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def append(
        self,
        kind: str,
        attrs: Optional[Dict[str, Any]] = None,
        refs: Optional[Dict[str, Any]] = None,
    ) -> LedgerEvent:
        """Record one event; returns it (with its generated id)."""
        event = LedgerEvent(
            kind=kind,
            ts=time.time(),
            run=RUN_ID,
            event_id=uuid.uuid4().hex[:16],
            pid=os.getpid(),
            attrs=dict(attrs or {}),
            refs=dict(refs or {}),
        )
        line = (event.to_json() + "\n").encode()
        with self._lock, store.locked(self.path):
            fd = os.open(self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
            try:
                os.write(fd, line)
            finally:
                os.close(fd)
        return event

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def events(
        self,
        kind: Optional[str] = None,
        run: Optional[str] = None,
        since: Optional[float] = None,
        limit: Optional[int] = None,
    ) -> List[LedgerEvent]:
        """Parse the ledger, oldest first; corrupt lines are skipped
        (use :meth:`verify` to surface them)."""
        out: List[LedgerEvent] = []
        for _lineno, event, _err in self._scan():
            if event is None:
                continue
            if kind is not None and event.kind != kind:
                continue
            if run is not None and event.run != run:
                continue
            if since is not None and event.ts < since:
                continue
            out.append(event)
        if limit is not None and limit >= 0:
            out = out[-limit:]
        return out

    def _scan(self):
        """Yield (lineno, event-or-None, error-or-None) per line."""
        if not self.path.exists():
            return
        try:
            raw_lines = self.path.read_bytes().splitlines()
        except OSError:
            return
        for lineno, raw in enumerate(raw_lines, 1):
            if not raw.strip():
                continue
            try:
                yield lineno, LedgerEvent.from_json(raw), None
            except (ValueError, KeyError, TypeError) as e:
                yield lineno, None, f"line {lineno}: {e}"

    def verify(self) -> VerifyReport:
        """Check every line parses, schema versions match, and event ids
        are unique; returns the per-kind census plus any issues."""
        report = VerifyReport()
        seen_ids: Dict[str, int] = {}
        last_ts_by_run: Dict[str, float] = {}
        for lineno, event, err in self._scan():
            if err is not None:
                report.issues.append(f"unparseable {err}")
                continue
            report.n_events += 1
            report.by_kind[event.kind] = report.by_kind.get(event.kind, 0) + 1
            if event.schema != LEDGER_SCHEMA_VERSION:
                report.issues.append(
                    f"line {lineno}: schema {event.schema} != "
                    f"{LEDGER_SCHEMA_VERSION}"
                )
            if not event.event_id:
                report.issues.append(f"line {lineno}: missing event id")
            elif event.event_id in seen_ids:
                report.issues.append(
                    f"line {lineno}: duplicate event id {event.event_id} "
                    f"(first at line {seen_ids[event.event_id]})"
                )
            else:
                seen_ids[event.event_id] = lineno
            # Within one run (process) timestamps must not go backwards;
            # across runs the interleaving is arbitrary.
            prev = last_ts_by_run.get(event.run)
            if prev is not None and event.ts < prev - 1.0:
                report.issues.append(
                    f"line {lineno}: run {event.run} time went backwards "
                    f"({event.ts:.3f} < {prev:.3f})"
                )
            last_ts_by_run[event.run] = max(
                event.ts, last_ts_by_run.get(event.run, event.ts)
            )
        return report

    # ------------------------------------------------------------------
    # Retention
    # ------------------------------------------------------------------
    def compact(
        self,
        max_age_s: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> Dict[str, int]:
        """Drop events older than ``max_age_s`` and/or beyond the newest
        ``max_events``, atomically rewriting the file under the append
        lock.  ``alert`` events are always kept (they are the record an
        operator audits after the fact).  Appends a ``compact`` event
        describing what was dropped; returns ``{"kept": n, "dropped": m}``.
        """
        with self._lock, store.locked(self.path):
            events = [e for _, e, _ in self._scan() if e is not None]
            cutoff = time.time() - max_age_s if max_age_s is not None else None
            keep: List[LedgerEvent] = []
            dropped = 0
            for e in events:
                if e.kind != "alert" and cutoff is not None and e.ts < cutoff:
                    dropped += 1
                    continue
                keep.append(e)
            if max_events is not None and max_events >= 0:
                droppable = [i for i, e in enumerate(keep) if e.kind != "alert"]
                excess = len(keep) - max_events
                if excess > 0:
                    to_drop = set(droppable[:excess])
                    dropped += len(to_drop)
                    keep = [e for i, e in enumerate(keep) if i not in to_drop]
            store.write_atomic(
                self.path, lambda f: f.writelines(e.to_json() + "\n" for e in keep)
            )
        if dropped:
            self.append(
                "compact", attrs={"dropped": dropped, "kept": len(keep)}
            )
        return {"kept": len(keep), "dropped": dropped}

    # ------------------------------------------------------------------
    # Lineage
    # ------------------------------------------------------------------
    def lineage(self, ref: str, registry=None) -> Lineage:
        """Reconstruct the provenance chain of a registry model.

        ``ref`` is a registry name or content digest; when ``registry``
        (a :class:`repro.serve.registry.ModelRegistry`) is given the ref
        is resolved through it, otherwise resolution falls back to the
        ledger's own ``registry_publish`` events.
        """
        model_id: Optional[str] = None
        if registry is not None:
            try:
                model_id = registry.resolve(ref)
            except Exception:  # noqa: BLE001 - registry may be elsewhere
                model_id = None
        events = self.events()
        publishes = [
            e
            for e in events
            if e.kind == "registry_publish"
            and (
                e.refs.get("model_id") == model_id
                or e.refs.get("model_id") == ref
                or e.attrs.get("name") == ref
            )
        ]
        if model_id is None and publishes:
            # Newest publish under this name defines the digest, exactly
            # like the registry's own name pointer.
            model_id = publishes[-1].refs.get("model_id")
            publishes = [
                e for e in publishes if e.refs.get("model_id") == model_id
            ]
        runs = {e.run for e in publishes}
        fits = [e for e in events if e.kind == "model_fit" and e.run in runs]
        fit_workloads = {
            (e.attrs.get("workload"), e.attrs.get("input")) for e in fits
        }
        batches = [
            e
            for e in events
            if e.kind == "measure_batch"
            and e.run in runs
            and (
                not fit_workloads
                or (e.attrs.get("workload"), e.attrs.get("input"))
                in fit_workloads
            )
        ]
        serves = [
            e
            for e in events
            if e.kind == "serve_session"
            and (
                model_id in (e.refs.get("model_ids") or [])
                or ref in (e.refs.get("model_names") or [])
            )
        ]
        alerts = [
            e
            for e in events
            if e.kind == "alert"
            and (
                e.refs.get("model_id") == model_id
                or e.run in runs
                or e.run in {s.run for s in serves}
            )
        ]
        return Lineage(
            ref=ref,
            model_id=model_id,
            publishes=publishes,
            fits=fits,
            batches=batches,
            serves=serves,
            alerts=alerts,
        )


# ----------------------------------------------------------------------
# Process-wide default ledger (mirrors the metrics persistence rules)
# ----------------------------------------------------------------------
_DEFAULT: Optional[Ledger] = None
_DEFAULT_RESOLVED = False
_DEFAULT_LOCK = threading.Lock()


def default_ledger_path() -> Optional[Path]:
    """Where events go by default; None when recording is disabled."""
    if os.environ.get("REPRO_LEDGER", "").strip().lower() in (
        "0",
        "off",
        "false",
        "no",
        "none",
    ):
        return None
    explicit = os.environ.get("REPRO_LEDGER_PATH", "").strip()
    if explicit:
        return Path(explicit)
    cache_dir = store.cache_dir()
    return cache_dir / "ledger.jsonl" if cache_dir is not None else None


def default_ledger() -> Optional[Ledger]:
    """The process-wide ledger, or None when recording is disabled."""
    global _DEFAULT, _DEFAULT_RESOLVED
    with _DEFAULT_LOCK:
        if not _DEFAULT_RESOLVED:
            path = default_ledger_path()
            _DEFAULT = Ledger(path) if path is not None else None
            _DEFAULT_RESOLVED = True
        return _DEFAULT


def set_default_ledger(ledger: Optional[Ledger]) -> None:
    """Override (or with None, disable) the process-wide ledger --
    primarily for tests and embedding applications."""
    global _DEFAULT, _DEFAULT_RESOLVED
    with _DEFAULT_LOCK:
        _DEFAULT = ledger
        _DEFAULT_RESOLVED = True


def reset_default_ledger() -> None:
    """Forget any override; the next :func:`default_ledger` re-reads the
    environment."""
    global _DEFAULT, _DEFAULT_RESOLVED
    with _DEFAULT_LOCK:
        _DEFAULT = None
        _DEFAULT_RESOLVED = False


def record_event(
    kind: str,
    attrs: Optional[Dict[str, Any]] = None,
    refs: Optional[Dict[str, Any]] = None,
) -> Optional[LedgerEvent]:
    """Append to the default ledger; silently a no-op when recording is
    disabled or the filesystem refuses -- provenance must never break
    the measurement it describes."""
    ledger = default_ledger()
    if ledger is None:
        return None
    try:
        return ledger.append(kind, attrs=attrs, refs=refs)
    except OSError:
        return None


def cap_result_keys(keys: Sequence[str]) -> List[str]:
    """Bound a result-key list for embedding in one event."""
    return list(keys[:MAX_RESULT_KEYS_PER_EVENT])

"""Optimization remarks: structured fired/declined records from passes.

Every optimization pass (licm/unroll/gcse/inline/prefetch/strength/
reorder in ``repro.opt``, plus the backend scheduler) reports what it
did -- and, just as importantly, what it *declined* to do and why --
through :func:`emit`.  Collection is opt-in and scoped: remarks only
exist while a :func:`collecting` context is active, and :func:`emit`
returns immediately when none is, so the default compile path pays one
predicate check per remark site and allocates nothing.  Emission never
influences pass decisions; with no collector installed the compiler's
output is bit-identical to a build without this module.

Reports serialize to a schema-versioned JSONL stream (one header line,
one line per remark, one trailing summary line) consumed by
``repro analyze`` and validated by :func:`validate_report_lines`.
"""

from __future__ import annotations

import contextlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Union

#: Bump when the JSONL layout or remark fields change incompatibly.
REMARK_SCHEMA_VERSION = 1

#: Pass names allowed in remark streams (the 7 IR passes + the backend
#: instruction scheduler).
KNOWN_PASSES = (
    "licm",
    "unroll",
    "gcse",
    "inline",
    "prefetch",
    "strength",
    "reorder",
    "sched",
)

ACTIONS = ("fired", "declined")

#: Default per-level trip-count multiplier for benefit estimates at
#: remark-emission time (passes do not run the full trip-count analysis;
#: the cost model does).
DEFAULT_TRIP = 16


def depth_freq(depth: int) -> float:
    """Crude execution-frequency estimate for a loop at ``depth``."""
    return float(DEFAULT_TRIP ** max(1, min(int(depth), 4)))


@dataclass(frozen=True)
class Remark:
    """One structured optimization remark.

    ``benefit`` is the pass's own estimate of cycles saved (fired) or
    forgone (declined), frequency-weighted with :func:`depth_freq`; the
    drift lint cross-checks these claims against measurements.
    """

    pass_name: str
    action: str
    function: str
    location: str
    reason: str
    benefit: float = 0.0
    details: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": "remark",
            "pass": self.pass_name,
            "action": self.action,
            "function": self.function,
            "location": self.location,
            "reason": self.reason,
            "benefit": round(float(self.benefit), 3),
            "details": dict(self.details),
        }


class RemarkCollector:
    """Accumulates remarks while installed via :func:`collecting`."""

    def __init__(self) -> None:
        self.remarks: List[Remark] = []

    def add(self, remark: Remark) -> None:
        self.remarks.append(remark)

    def counts(self) -> Dict[str, Dict[str, int]]:
        out: Dict[str, Dict[str, int]] = {}
        for r in self.remarks:
            slot = out.setdefault(r.pass_name, {"fired": 0, "declined": 0})
            slot[r.action] = slot.get(r.action, 0) + 1
        return out


#: Stack of active collectors; passes broadcast to all of them so nested
#: scopes (e.g. a sweep around a single-config analysis) both see the
#: stream.
_ACTIVE: List[RemarkCollector] = []


def enabled() -> bool:
    """True when at least one collector is installed (the pass-side
    fast-path predicate)."""
    return bool(_ACTIVE)


def emit(
    pass_name: str,
    action: str,
    function: str,
    location: str,
    reason: str,
    benefit: float = 0.0,
    **details: object,
) -> None:
    """Record one remark into every active collector (no-op when none)."""
    if not _ACTIVE:
        return
    remark = Remark(
        pass_name=pass_name,
        action=action,
        function=function,
        location=location,
        reason=reason,
        benefit=float(benefit),
        details=details,
    )
    for collector in _ACTIVE:
        collector.add(remark)


@contextlib.contextmanager
def collecting() -> Iterator[RemarkCollector]:
    """Scope within which passes emit remarks into the yielded collector."""
    collector = RemarkCollector()
    _ACTIVE.append(collector)
    try:
        yield collector
    finally:
        _ACTIVE.remove(collector)


# ----------------------------------------------------------------------
# JSONL report serialization + validation
# ----------------------------------------------------------------------
def report_lines(
    remarks: Sequence[Remark], header: Optional[Dict[str, object]] = None
) -> List[str]:
    """Serialize remarks to schema-versioned JSONL lines."""
    head: Dict[str, object] = {
        "kind": "header",
        "schema_version": REMARK_SCHEMA_VERSION,
    }
    if header:
        head.update(header)
        head["kind"] = "header"
        head["schema_version"] = REMARK_SCHEMA_VERSION
    counts: Dict[str, Dict[str, int]] = {}
    for r in remarks:
        slot = counts.setdefault(r.pass_name, {"fired": 0, "declined": 0})
        slot[r.action] = slot.get(r.action, 0) + 1
    lines = [json.dumps(head, sort_keys=True)]
    lines += [json.dumps(r.to_dict(), sort_keys=True) for r in remarks]
    lines.append(
        json.dumps(
            {
                "kind": "summary",
                "n_remarks": len(remarks),
                "per_pass": counts,
            },
            sort_keys=True,
        )
    )
    return lines


def write_report(
    path: Union[str, Path],
    remarks: Sequence[Remark],
    header: Optional[Dict[str, object]] = None,
    append: bool = False,
) -> None:
    """Write (or append) a remark report to a JSONL file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = "\n".join(report_lines(remarks, header)) + "\n"
    with open(path, "a" if append else "w") as f:
        f.write(text)


def validate_report_lines(lines: Sequence[str]) -> List[str]:
    """Validate a JSONL remark stream; returns a list of problems.

    A file may hold several concatenated reports (a sweep appends one
    per vector); each must open with a schema-matching header, contain
    only well-formed remark lines, and close with a summary whose counts
    match the remarks actually present.
    """
    problems: List[str] = []
    in_report = False
    seen_remarks = 0
    counts: Dict[str, Dict[str, int]] = {}
    n_reports = 0
    for lineno, raw in enumerate(lines, 1):
        raw = raw.strip()
        if not raw:
            continue
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError as exc:
            problems.append(f"line {lineno}: invalid JSON ({exc})")
            continue
        if not isinstance(obj, dict):
            problems.append(f"line {lineno}: expected an object")
            continue
        kind = obj.get("kind")
        if kind == "header":
            if in_report:
                problems.append(f"line {lineno}: header before prior summary")
            if obj.get("schema_version") != REMARK_SCHEMA_VERSION:
                problems.append(
                    f"line {lineno}: schema_version "
                    f"{obj.get('schema_version')!r} != {REMARK_SCHEMA_VERSION}"
                )
            in_report = True
            n_reports += 1
            seen_remarks = 0
            counts = {}
        elif kind == "remark":
            if not in_report:
                problems.append(f"line {lineno}: remark outside a report")
            for fld, typ in (
                ("pass", str),
                ("action", str),
                ("function", str),
                ("location", str),
                ("reason", str),
                ("benefit", (int, float)),
                ("details", dict),
            ):
                if not isinstance(obj.get(fld), typ):
                    problems.append(f"line {lineno}: bad field {fld!r}")
            if obj.get("pass") not in KNOWN_PASSES:
                problems.append(
                    f"line {lineno}: unknown pass {obj.get('pass')!r}"
                )
            if obj.get("action") not in ACTIONS:
                problems.append(
                    f"line {lineno}: unknown action {obj.get('action')!r}"
                )
            if not obj.get("reason"):
                problems.append(f"line {lineno}: empty reason")
            if isinstance(obj.get("benefit"), (int, float)) and obj["benefit"] < 0:
                problems.append(f"line {lineno}: negative benefit")
            seen_remarks += 1
            if isinstance(obj.get("pass"), str) and obj.get("action") in ACTIONS:
                slot = counts.setdefault(
                    obj["pass"], {"fired": 0, "declined": 0}
                )
                slot[obj["action"]] += 1
        elif kind == "summary":
            if not in_report:
                problems.append(f"line {lineno}: summary outside a report")
            else:
                if obj.get("n_remarks") != seen_remarks:
                    problems.append(
                        f"line {lineno}: summary n_remarks "
                        f"{obj.get('n_remarks')} != {seen_remarks} remarks seen"
                    )
                if obj.get("per_pass") != counts:
                    problems.append(f"line {lineno}: summary per_pass mismatch")
            in_report = False
        else:
            problems.append(f"line {lineno}: unknown kind {kind!r}")
    if in_report:
        problems.append("stream ends inside a report (missing summary)")
    if n_reports == 0:
        problems.append("no report header found")
    return problems


def validate_report(path: Union[str, Path]) -> List[str]:
    """Validate a remark JSONL file; returns a list of problems."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        return [f"unreadable: {exc}"]
    return validate_report_lines(text.splitlines())

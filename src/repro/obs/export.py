"""Trace exporters: JSONL, Chrome ``trace_event``, self-timing report.

All three consume a list of :class:`~repro.obs.trace.SpanRecord` (from
``get_tracer().spans``):

* :func:`to_jsonl` -- one JSON object per line, every field of every
  span; the raw format downstream tooling should parse.
* :func:`to_chrome_trace` -- the Trace Event Format (``"ph": "X"``
  complete events, microsecond timestamps), loadable in
  ``chrome://tracing`` or https://ui.perfetto.dev.
* :func:`self_timing_report` -- a hierarchical text "flamegraph": spans
  aggregated by call path with inclusive/exclusive time and call counts,
  children sorted by inclusive time.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.obs.trace import SpanRecord

PathLike = Union[str, Path]


def to_jsonl(spans: Sequence[SpanRecord], path: PathLike) -> None:
    """Write one JSON object per span, in completion order."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as f:
        for s in spans:
            f.write(
                json.dumps(
                    {
                        "name": s.name,
                        "span_id": s.span_id,
                        "parent_id": s.parent_id,
                        "thread_id": s.thread_id,
                        "start": s.start,
                        "duration": s.duration,
                        "attrs": s.attrs,
                        "pid": s.pid,
                    },
                    default=str,
                )
            )
            f.write("\n")


def to_chrome_trace(
    spans: Sequence[SpanRecord], path: PathLike, pid: int = 1
) -> None:
    """Write a Chrome Trace Event Format file (complete "X" events).

    Timestamps are microseconds relative to the earliest span, so the
    viewer's timeline starts at zero.  Each span's own ``pid`` selects
    its process lane (spans merged from pool workers keep the worker
    pid, so a multi-process run renders one lane per process); ``pid``
    is the fallback lane for legacy records with no pid.  One ``"M"``
    ``process_name`` metadata event labels each lane.
    """
    t0 = min((s.start for s in spans), default=0.0)
    events: List[dict] = [
        {
            "name": s.name,
            "ph": "X",
            "ts": (s.start - t0) * 1e6,
            "dur": s.duration * 1e6,
            "pid": s.pid or pid,
            "tid": s.thread_id,
            "args": {k: _jsonable(v) for k, v in s.attrs.items()},
        }
        for s in spans
    ]
    own = os.getpid()
    for lane in sorted({e["pid"] for e in events}):
        label = f"pid {lane}" + (" (parent)" if lane == own else " (worker)")
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": lane,
                "tid": 0,
                "args": {"name": label},
            }
        )
    payload = {"traceEvents": events, "displayTimeUnit": "ms"}
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload))


def _jsonable(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


class _Node:
    """One call-path aggregate in the self-timing tree."""

    __slots__ = ("name", "calls", "inclusive", "child_time", "children")

    def __init__(self, name: str):
        self.name = name
        self.calls = 0
        self.inclusive = 0.0
        self.child_time = 0.0
        self.children: Dict[str, "_Node"] = {}

    @property
    def exclusive(self) -> float:
        return max(0.0, self.inclusive - self.child_time)


def _build_tree(spans: Sequence[SpanRecord]) -> _Node:
    """Aggregate spans by name-path under a synthetic root."""
    by_id = {s.span_id: s for s in spans}

    def path_of(s: SpanRecord) -> Tuple[str, ...]:
        names: List[str] = []
        cur: Optional[SpanRecord] = s
        while cur is not None:
            names.append(cur.name)
            cur = by_id.get(cur.parent_id) if cur.parent_id else None
        return tuple(reversed(names))

    root = _Node("total")
    for s in spans:
        node = root
        for name in path_of(s):
            child = node.children.get(name)
            if child is None:
                child = node.children[name] = _Node(name)
            node = child
        node.calls += 1
        node.inclusive += s.duration
        parent_rec = by_id.get(s.parent_id) if s.parent_id else None
        if parent_rec is None:
            root.inclusive += s.duration  # top-level span
    # Propagate child time for exclusive-time computation.
    def fill(node: _Node) -> None:
        node.child_time = sum(c.inclusive for c in node.children.values())
        for c in node.children.values():
            fill(c)

    fill(root)
    root.calls = sum(c.calls for c in root.children.values())
    return root


def self_timing_report(spans: Sequence[SpanRecord]) -> str:
    """Render the hierarchical inclusive/exclusive timing report."""
    if not spans:
        return "(no spans recorded)"
    root = _build_tree(spans)
    total = root.inclusive or 1e-12
    header = (
        f"{'incl ms':>10} {'excl ms':>10} {'% tot':>6} {'calls':>7}  span"
    )
    lines = [header, "-" * len(header)]

    def emit(node: _Node, depth: int) -> None:
        pct = 100.0 * node.inclusive / total
        lines.append(
            f"{node.inclusive * 1e3:10.2f} {node.exclusive * 1e3:10.2f} "
            f"{pct:6.1f} {node.calls:7d}  {'  ' * depth}{node.name}"
        )
        for child in sorted(
            node.children.values(), key=lambda c: -c.inclusive
        ):
            emit(child, depth + 1)

    emit(root, 0)
    return "\n".join(lines)

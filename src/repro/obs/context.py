"""Cross-process telemetry propagation for pool workers.

The measurement pool (:mod:`repro.harness.measure`) runs design points
in ``ProcessPoolExecutor`` workers.  Without propagation, everything the
obs layer records inside a worker -- spans around compile/simulate, the
cache and simulation counters, per-pass histograms -- dies with the
worker, so ``repro trace`` shows a single opaque ``measure.batch`` box
and ``repro stats`` under-reports exactly when the pool is used.  This
module closes that gap with three small pieces:

``TelemetryContext`` / :func:`capture_context`
    A picklable snapshot of the parent's telemetry state: whether
    tracing is on, the trace id, the span that is dispatching work (so
    worker spans nest under it), and a wall-clock anchor that maps the
    worker's monotonic clock onto the parent's.
:func:`install_context` + :func:`begin_task` / :func:`collect_task`
    Worker-side: ``install_context`` runs in the pool initializer and
    configures the worker's tracer; ``begin_task``/``collect_task``
    bracket each task, resetting the worker's (fork-inherited) metrics
    and returning a :class:`WorkerTelemetry` payload of spans, counter
    deltas and histogram states produced *by that task*.
:func:`merge_worker_telemetry`
    Parent-side: folds a shipped payload back into the global tracer
    (fresh span ids, re-parented under the dispatching span, timestamps
    shifted onto the parent clock) and the global metrics registry.

Metrics always flow back -- counters merged this way are bit-identical
to a serial run of the same points.  Spans flow back only when the
parent had tracing enabled at dispatch time.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.obs.metrics import get_registry
from repro.obs.trace import SpanRecord, get_tracer


def _wall_anchor() -> float:
    """This process's (wall clock - monotonic clock) offset.

    Two processes on one machine share the wall clock, so the
    difference of their anchors converts span timestamps between their
    monotonic clocks (on Linux ``perf_counter`` is already system-wide,
    making the correction ~0; the anchor keeps merged timelines honest
    on platforms with per-process monotonic epochs).
    """
    return time.time() - time.perf_counter()


@dataclass
class TelemetryContext:
    """Parent-side telemetry state shipped to pool workers."""

    trace_enabled: bool
    trace_id: str
    #: Span open in the parent when the pool was created (the batch
    #: span); worker task roots are re-parented under it on merge.
    parent_span_id: Optional[int]
    #: Parent's :func:`_wall_anchor`.
    epoch: float
    #: Pid of the capturing process (attrs / debugging only).
    parent_pid: int = 0


@dataclass
class WorkerTelemetry:
    """One task's telemetry, shipped from a worker back to the parent."""

    pid: int
    #: Worker's :func:`_wall_anchor`, for timestamp alignment.
    epoch: float
    #: Spans recorded during the task (empty when tracing is off).
    spans: List[SpanRecord] = field(default_factory=list)
    #: ``MetricsRegistry.export_state()`` of the task's deltas.
    metrics: Dict[str, Any] = field(default_factory=dict)


def capture_context() -> TelemetryContext:
    """Snapshot the calling (parent) process's telemetry state."""
    tracer = get_tracer()
    return TelemetryContext(
        trace_enabled=tracer.enabled,
        trace_id=tracer.trace_id,
        parent_span_id=tracer.current_span_id(),
        epoch=_wall_anchor(),
        parent_pid=os.getpid(),
    )


def install_context(ctx: Optional[TelemetryContext]) -> None:
    """Adopt a parent's telemetry context (pool-initializer side).

    Resets the worker's tracer -- under a ``fork`` start method it
    inherits the parent's already-recorded spans, which must not be
    shipped back a second time -- and aligns its enabled flag and trace
    id with the parent's.
    """
    tracer = get_tracer()
    tracer.reset()
    if ctx is not None:
        tracer.enabled = ctx.trace_enabled
        tracer.trace_id = ctx.trace_id


def begin_task() -> None:
    """Start a task-local telemetry window (worker side).

    Zeroes the worker's metrics registry and span buffer so that
    :func:`collect_task` captures exactly this task's production.
    Counters under ``fork`` start with the parent's values baked in;
    resetting them (in place -- cached metric objects stay valid) is
    what makes the shipped values true deltas.
    """
    get_registry().reset()
    tracer = get_tracer()
    if tracer.enabled:
        tracer.reset()


def collect_task() -> WorkerTelemetry:
    """Collect the telemetry window opened by :func:`begin_task`."""
    tracer = get_tracer()
    return WorkerTelemetry(
        pid=os.getpid(),
        epoch=_wall_anchor(),
        spans=tracer.spans if tracer.enabled else [],
        metrics=get_registry().export_state(),
    )


def merge_worker_telemetry(
    telemetry: Optional[WorkerTelemetry],
    ctx: Optional[TelemetryContext] = None,
) -> None:
    """Fold a worker task's telemetry into this process (parent side).

    Metric deltas merge unconditionally (counters add, histogram
    reservoirs absorb the shipped samples with exact moment merging).
    Spans -- present only when tracing was on -- get fresh span ids,
    timestamps shifted onto this process's monotonic clock, and their
    roots parented under ``ctx.parent_span_id``.
    """
    if telemetry is None:
        return
    get_registry().merge_state(telemetry.metrics)
    if telemetry.spans:
        get_tracer().merge_remote(
            telemetry.spans,
            parent_id=ctx.parent_span_id if ctx is not None else None,
            time_shift=telemetry.epoch - _wall_anchor(),
        )

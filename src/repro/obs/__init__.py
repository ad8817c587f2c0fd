"""Zero-dependency observability: tracing spans, metrics, exporters.

The pipeline's cost lives inside the compile+simulate oracle; this
package makes that cost visible.  Three pieces:

:mod:`repro.obs.trace`
    Nested wall-clock spans (``with span("measure.compile", ...)``)
    collected by a thread-safe in-process :class:`Tracer`.  Disabled by
    default; the disabled fast path is a single attribute check.  Enable
    with ``REPRO_TRACE=1`` or :func:`enable_tracing`.
:mod:`repro.obs.metrics`
    Always-on named counters and histograms (cache hits/misses,
    compilations, simulations, SMARTS sampled/skipped units, per-pass IR
    deltas, GA generations/evaluations).
:mod:`repro.obs.export`
    JSONL dumps, Chrome ``trace_event`` JSON (open in ``chrome://tracing``
    or Perfetto), and a hierarchical self-timing text report.
:mod:`repro.obs.context`
    Cross-process propagation: pool workers inherit the parent's trace
    context and ship spans + metric deltas back for merging, so traces
    and ``repro stats`` stay complete under ``--jobs``.
:mod:`repro.obs.profile`
    A thread-based sampling profiler and collapsed-stack exporters
    (flamegraph.pl / speedscope) for hotspot attribution inside the
    simulator loops.
:mod:`repro.obs.bench`
    The ``repro bench`` harness: schema-versioned ``BENCH_*.json``
    results plus a regression gate against committed baselines.
:mod:`repro.obs.ledger`
    Append-only provenance ledger: measurement batches, model fits,
    registry publishes and serve sessions as linked JSONL events
    (``repro ledger`` / ``repro lineage``).

See ``docs/OBSERVABILITY.md`` for the span taxonomy and usage.
"""

from repro.obs.trace import (
    SpanRecord,
    Tracer,
    disable_tracing,
    enable_tracing,
    get_tracer,
    reset_tracing,
    span,
    tracing_enabled,
)
from repro.obs.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    counter,
    get_registry,
    histogram,
)
from repro.obs.export import (
    self_timing_report,
    to_chrome_trace,
    to_jsonl,
)
from repro.obs.context import (
    TelemetryContext,
    WorkerTelemetry,
    begin_task,
    capture_context,
    collect_task,
    install_context,
    merge_worker_telemetry,
)
from repro.obs.profile import SamplingProfiler
from repro.obs.bench import (
    BenchScenario,
    GateFinding,
    discover_scenarios,
    run_scenarios,
)
from repro.obs.ledger import (
    Ledger,
    LedgerEvent,
    Lineage,
    default_ledger,
    default_ledger_path,
    record_event,
)

__all__ = [
    "SpanRecord",
    "Tracer",
    "span",
    "get_tracer",
    "enable_tracing",
    "disable_tracing",
    "reset_tracing",
    "tracing_enabled",
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "counter",
    "histogram",
    "get_registry",
    "to_jsonl",
    "to_chrome_trace",
    "self_timing_report",
    "TelemetryContext",
    "WorkerTelemetry",
    "capture_context",
    "install_context",
    "begin_task",
    "collect_task",
    "merge_worker_telemetry",
    "SamplingProfiler",
    "BenchScenario",
    "GateFinding",
    "discover_scenarios",
    "run_scenarios",
    "Ledger",
    "LedgerEvent",
    "Lineage",
    "default_ledger",
    "default_ledger_path",
    "record_event",
]

"""Named counters and histograms for pipeline-wide bookkeeping.

Unlike spans, metrics are *always on*: an increment is a lock plus an
integer add, cheap enough for every cache lookup and SMARTS unit.  The
registry is process-global; call-sites typically cache the metric object
at import time (``_HITS = counter("measure.trace_cache.hits")``) so the
hot path skips the registry lookup.

The CLI persists counter *deltas* into ``<cache_dir>/metrics.json``
after each command (see :meth:`MetricsRegistry.persist`), which is what
``repro stats`` reads -- so cache hit/miss and compilation/simulation
counts accumulate across processes alongside the measurement cache.
"""

from __future__ import annotations

import math
import random
import threading
import zlib
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro import store


class Counter:
    """A monotonically increasing named integer."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, n: int = 1) -> None:
        with self._lock:
            self._value += n

    @property
    def value(self) -> int:
        return self._value

    def _reset(self) -> None:
        with self._lock:
            self._value = 0


#: Reservoir capacity: percentiles are exact up to this many
#: observations, reservoir-sampled (uniform, Algorithm R) beyond it, so
#: high-rate series (``serve.predict_ms`` under sustained load) hold
#: O(1) memory however long the process lives.
HISTOGRAM_MAX_SAMPLES = 4096

#: Per-histogram sample size kept in the persisted ``metrics.json``.
PERSISTED_SAMPLE_SIZE = 512


class Histogram:
    """A named distribution; reports count/mean/p50/p95/p99/max.

    Count, sum, min and max are exact for the full observation stream.
    Percentiles come from a bounded uniform reservoir: exact while the
    stream fits in :data:`HISTOGRAM_MAX_SAMPLES`, an unbiased sample
    estimate beyond that.  The reservoir RNG is seeded from the metric
    name, so a replayed observation stream reproduces the same sample.
    """

    __slots__ = (
        "name",
        "max_samples",
        "_sample",
        "_seen",
        "_count",
        "_sum",
        "_min",
        "_max",
        "_rng",
        "_lock",
    )

    def __init__(self, name: str, max_samples: int = HISTOGRAM_MAX_SAMPLES):
        self.name = name
        self.max_samples = max(1, int(max_samples))
        self._sample: List[float] = []
        #: Observations fed through the reservoir (drives Algorithm R).
        self._seen = 0
        #: Logical observation count (includes merged remote counts).
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._rng = random.Random(zlib.crc32(name.encode()))
        self._lock = threading.Lock()

    # -- internal ------------------------------------------------------
    def _insert(self, value: float) -> None:
        """Reservoir-insert one value (caller holds the lock)."""
        self._seen += 1
        if len(self._sample) < self.max_samples:
            self._sample.append(value)
        else:
            j = self._rng.randrange(self._seen)
            if j < self.max_samples:
                self._sample[j] = value

    # -- public --------------------------------------------------------
    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._insert(value)
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def values(self) -> List[float]:
        """A copy of the current reservoir sample (the full stream while
        it fits; a uniform subsample beyond the cap)."""
        with self._lock:
            return list(self._sample)

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile over the reservoir (p in [0, 100]);
        exact below the reservoir cap."""
        with self._lock:
            sample = list(self._sample)
        return _rank_percentile(sorted(sample), p)

    def summary(self) -> Dict[str, float]:
        # One lock hold to copy, one sort for all three quantiles: a
        # /metrics scrape must not stall concurrent observe() calls on
        # the serving hot path while it sorts the reservoir.
        with self._lock:
            if not self._count:
                return {"count": 0}
            count, total, vmax = self._count, self._sum, self._max
            sample = list(self._sample)
        ordered = sorted(sample)
        return {
            "count": count,
            "mean": total / count,
            "p50": _rank_percentile(ordered, 50),
            "p95": _rank_percentile(ordered, 95),
            "p99": _rank_percentile(ordered, 99),
            "max": vmax,
        }

    def export_state(self) -> Dict[str, Any]:
        """Mergeable snapshot: exact moments plus the reservoir sample
        (what pool workers ship back, see :mod:`repro.obs.context`)."""
        with self._lock:
            return {
                "count": self._count,
                "sum": self._sum,
                "min": self._min if self._count else None,
                "max": self._max if self._count else None,
                "values": list(self._sample),
            }

    def merge_state(self, state: Dict[str, Any]) -> None:
        """Fold another histogram's :meth:`export_state` into this one.

        Count/sum/min/max merge exactly; the shipped sample feeds the
        reservoir, so percentiles stay representative of the combined
        stream (and stay exact while the combined stream fits).
        """
        count = int(state.get("count", 0))
        if count <= 0:
            return
        values = state.get("values") or []
        with self._lock:
            for v in values:
                self._insert(float(v))
            self._count += count
            self._sum += float(state.get("sum", 0.0))
            vmin, vmax = state.get("min"), state.get("max")
            if vmin is not None and float(vmin) < self._min:
                self._min = float(vmin)
            if vmax is not None and float(vmax) > self._max:
                self._max = float(vmax)

    def _reset(self) -> None:
        with self._lock:
            self._sample.clear()
            self._seen = 0
            self._count = 0
            self._sum = 0.0
            self._min = math.inf
            self._max = -math.inf


Metric = Union[Counter, Histogram]


class MetricsRegistry:
    """Process-global store of named metrics.

    ``reset()`` zeroes metrics *in place* so objects cached by
    instrumentation call-sites stay valid.
    """

    def __init__(self):
        self._metrics: Dict[str, Metric] = {}
        self._lock = threading.Lock()
        #: Counter values as of the last ``persist()``; persistence
        #: writes only the delta so repeated calls never double-count.
        self._persisted: Dict[str, int] = {}
        #: (count, sum) per histogram as of the last ``persist()``.
        self._persisted_hist: Dict[str, tuple] = {}

    def counter(self, name: str) -> Counter:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = self._metrics[name] = Counter(name)
            elif not isinstance(metric, Counter):
                raise TypeError(f"{name!r} is already a {type(metric).__name__}")
            return metric

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = self._metrics[name] = Histogram(name)
            elif not isinstance(metric, Histogram):
                raise TypeError(f"{name!r} is already a {type(metric).__name__}")
            return metric

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """``{"counters": {name: int}, "histograms": {name: summary}}``."""
        with self._lock:
            metrics = list(self._metrics.values())
        counters: Dict[str, int] = {}
        histograms: Dict[str, Dict[str, float]] = {}
        for metric in metrics:
            if isinstance(metric, Counter):
                counters[metric.name] = metric.value
            else:
                histograms[metric.name] = metric.summary()
        return {"counters": counters, "histograms": histograms}

    def reset(self) -> None:
        with self._lock:
            metrics = list(self._metrics.values())
            self._persisted.clear()
            self._persisted_hist.clear()
        for metric in metrics:
            metric._reset()

    # -- cross-process merge -------------------------------------------
    def export_state(self) -> Dict[str, Any]:
        """Everything another process needs to merge this registry's
        observations into its own: nonzero counter values plus full
        histogram states (exact moments + reservoir samples)."""
        with self._lock:
            metrics = list(self._metrics.values())
        counters: Dict[str, int] = {}
        histograms: Dict[str, Dict[str, Any]] = {}
        for metric in metrics:
            if isinstance(metric, Counter):
                if metric.value:
                    counters[metric.name] = metric.value
            elif metric.count:
                histograms[metric.name] = metric.export_state()
        return {"counters": counters, "histograms": histograms}

    def merge_state(self, state: Dict[str, Any]) -> None:
        """Fold an :meth:`export_state` payload (typically shipped back
        from a pool worker) into this registry's live metrics."""
        for name, value in (state.get("counters") or {}).items():
            self.counter(name).inc(int(value))
        for name, hist_state in (state.get("histograms") or {}).items():
            self.histogram(name).merge_state(hist_state)

    # -- persistence ---------------------------------------------------
    def persist(self, path: Union[str, Path]) -> None:
        """Merge counter *and histogram* deltas into the JSON file at
        ``path``, under its store lock (:func:`repro.store.update_json`).

        Counters accumulate exactly (only the delta since the last
        ``persist`` is added).  Histograms accumulate their exact
        moments (count/sum/min/max) the same way, plus a bounded value
        sample (:data:`PERSISTED_SAMPLE_SIZE`) merged by count-weighted
        subsampling -- so ``repro stats`` can show latency distributions
        *across* invocations, at the cost of percentiles being sample
        estimates once a series outgrows the stored sample.
        """
        snap_counters: Dict[str, int] = {}
        hists: List[Histogram] = []
        with self._lock:
            for metric in self._metrics.values():
                if isinstance(metric, Counter):
                    snap_counters[metric.name] = metric.value
                else:
                    hists.append(metric)
        deltas = {
            name: value - self._persisted.get(name, 0)
            for name, value in snap_counters.items()
        }
        deltas = {name: d for name, d in deltas.items() if d}
        hist_deltas: Dict[str, Dict[str, Any]] = {}
        hist_marks: Dict[str, tuple] = {}
        for h in hists:
            state = h.export_state()
            done_count, done_sum = self._persisted_hist.get(h.name, (0, 0.0))
            if state["count"] <= done_count:
                continue
            state["count"] -= done_count
            state["sum"] -= done_sum
            hist_deltas[h.name] = state
            hist_marks[h.name] = (state["count"] + done_count,
                                  state["sum"] + done_sum)
        if not deltas and not hist_deltas:
            return

        def merge(raw: Dict[str, Any]) -> Dict[str, Any]:
            counters = dict(raw.get("counters", {}))
            histograms = dict(raw.get("histograms", {}))
            for name, delta in deltas.items():
                counters[name] = counters.get(name, 0) + delta
            for name, state in hist_deltas.items():
                histograms[name] = _merge_stored_histogram(histograms.get(name), state)
            return {"counters": counters, "histograms": histograms}

        store.update_json(path, merge, indent=1)
        self._persisted.update(snap_counters)
        self._persisted_hist.update(hist_marks)

    @staticmethod
    def load_persisted(path: Union[str, Path]) -> Optional[Dict[str, Any]]:
        """Read a persisted metrics file; None if missing/corrupt."""
        raw = store.read_json(path)
        if raw is None:
            return None
        return {
            "counters": dict(raw.get("counters", {})),
            "histograms": dict(raw.get("histograms", {})),
        }


def _rank_percentile(ordered: List[float], p: float) -> float:
    """Nearest-rank percentile over an already-sorted sample."""
    if not ordered:
        return math.nan
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def _sample_percentile(sample: List[float], p: float) -> float:
    return _rank_percentile(sorted(sample), p)


def _merge_stored_histogram(
    stored: Optional[Dict[str, Any]], delta: Dict[str, Any]
) -> Dict[str, Any]:
    """Merge one invocation's histogram delta into its stored entry.

    Moments (count/sum/min/max) merge exactly.  The value sample is a
    count-weighted subsample of (stored sample + fresh reservoir),
    capped at :data:`PERSISTED_SAMPLE_SIZE`.  Legacy summary-only
    entries (pre-sample format) carry no mergeable values and are
    replaced by the fresh state.
    """
    if not stored or "sample" not in stored:
        stored = {"count": 0, "sum": 0.0, "min": None, "max": None, "sample": []}
    new_count = stored["count"] + delta["count"]
    new_sum = stored["sum"] + delta["sum"]
    bounds = [
        v for v in (stored.get("min"), delta.get("min")) if v is not None
    ]
    new_min = min(bounds) if bounds else None
    bounds = [
        v for v in (stored.get("max"), delta.get("max")) if v is not None
    ]
    new_max = max(bounds) if bounds else None
    old_sample = list(stored.get("sample") or [])
    fresh = list(delta.get("values") or [])
    cap = PERSISTED_SAMPLE_SIZE
    if len(old_sample) + len(fresh) <= cap:
        sample = old_sample + fresh
    else:
        # Deterministic count-weighted subsample: the RNG seed folds in
        # the cumulative count so successive persists don't reuse the
        # same shuffle.
        rng = random.Random(new_count)
        k_fresh = min(
            len(fresh),
            max(1, round(cap * delta["count"] / max(1, new_count))),
        )
        k_old = min(len(old_sample), cap - k_fresh)
        sample = rng.sample(old_sample, k_old) + rng.sample(fresh, k_fresh)
    return {
        "count": new_count,
        "sum": new_sum,
        "min": new_min,
        "max": new_max,
        "sample": sample,
    }


def summarize_histogram_entry(entry: Dict[str, Any]) -> Dict[str, float]:
    """Normalize a histogram entry -- either a live ``summary()`` dict
    or a persisted sample entry -- into count/mean/p50/p95/p99/max."""
    count = int(entry.get("count", 0))
    if not count:
        return {"count": 0}
    if "sample" in entry:
        sample = list(entry.get("sample") or [])
        return {
            "count": count,
            "mean": float(entry.get("sum", 0.0)) / count,
            "p50": _sample_percentile(sample, 50),
            "p95": _sample_percentile(sample, 95),
            "p99": _sample_percentile(sample, 99),
            "max": entry.get("max", math.nan),
        }
    out = {"count": count}
    for key in ("mean", "p50", "p95", "p99", "max"):
        out[key] = float(entry.get(key, math.nan))
    return out


def format_report(snapshot: Dict[str, Dict[str, Any]]) -> str:
    """Human-readable rendering of a :meth:`MetricsRegistry.snapshot`
    or of a persisted metrics file (histogram sample entries included)."""
    lines: List[str] = []
    counters = snapshot.get("counters", {})
    histograms = snapshot.get("histograms", {})
    if counters:
        lines.append("counters")
        width = max(len(n) for n in counters)
        for name in sorted(counters):
            lines.append(f"  {name:<{width}}  {counters[name]}")
    if histograms:
        if lines:
            lines.append("")
        lines.append("histograms (count / mean / p50 / p95 / p99 / max)")
        width = max(len(n) for n in histograms)
        for name in sorted(histograms):
            s = summarize_histogram_entry(histograms[name])
            if not s.get("count"):
                lines.append(f"  {name:<{width}}  (empty)")
                continue
            vmax = s["max"]
            vmax = float(vmax) if vmax is not None else math.nan
            lines.append(
                f"  {name:<{width}}  {s['count']:d} / {s['mean']:.3g} / "
                f"{s['p50']:.3g} / {s['p95']:.3g} / {s['p99']:.3g} / "
                f"{vmax:.3g}"
            )
    if not lines:
        return "(no metrics recorded)"
    return "\n".join(lines)


#: The process-wide registry used by all instrumentation call-sites.
_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    return _REGISTRY


def counter(name: str) -> Counter:
    return _REGISTRY.counter(name)


def histogram(name: str) -> Histogram:
    return _REGISTRY.histogram(name)

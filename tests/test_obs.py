"""Tests for the observability layer (repro.obs) and its call-sites.

Covers span nesting/attributes, counter/histogram aggregation, exporter
round-trips, thread safety, the disabled-path overhead bound, the
MeasurementEngine LRU/atomic-save fixes, the evaluate_model zero-response
guard, and the CLI trace/stats surfacing.
"""

import json
import threading
import time
import timeit

import numpy as np
import pytest

from repro.obs import (
    get_registry,
    get_tracer,
    self_timing_report,
    span,
    to_chrome_trace,
    to_jsonl,
)
from repro.obs.metrics import (
    HISTOGRAM_MAX_SAMPLES,
    Counter,
    Histogram,
    MetricsRegistry,
    format_report,
    summarize_histogram_entry,
)
from repro.obs.trace import SpanRecord, Tracer, _NullSpan


@pytest.fixture()
def tracer():
    """The global tracer, enabled for the test and restored after."""
    t = get_tracer()
    was_enabled = t.enabled
    t.reset()
    t.enable()
    yield t
    t.reset()
    t.enabled = was_enabled


class TestSpans:
    def test_nesting_and_parenting(self, tracer):
        with span("outer", kind="test"):
            with span("inner"):
                pass
            with span("inner"):
                pass
        spans = tracer.spans
        assert [s.name for s in spans] == ["inner", "inner", "outer"]
        outer = spans[-1]
        assert outer.parent_id is None
        assert all(s.parent_id == outer.span_id for s in spans[:-1])
        assert outer.attrs == {"kind": "test"}

    def test_duration_and_start_monotonic(self, tracer):
        with span("a"):
            time.sleep(0.01)
        (rec,) = tracer.spans
        assert rec.duration >= 0.009
        assert rec.start > 0

    def test_set_attrs_inside_block(self, tracer):
        with span("a") as sp:
            sp.set_attr("x", 1)
            sp.set_attrs(y=2, z="s")
        (rec,) = tracer.spans
        assert rec.attrs == {"x": 1, "y": 2, "z": "s"}

    def test_disabled_path_records_nothing(self, tracer):
        tracer.disable()
        handle = span("ghost")
        assert isinstance(handle, _NullSpan)
        with handle as sp:
            sp.set_attrs(ignored=True)
        assert tracer.spans == []

    def test_reset_clears(self, tracer):
        with span("a"):
            pass
        tracer.reset()
        assert tracer.spans == []
        assert tracer.current_span_id() is None

    def test_current_span_id_tracks_stack(self, tracer):
        assert tracer.current_span_id() is None
        with span("a") as a:
            assert tracer.current_span_id() == a.span_id
        assert tracer.current_span_id() is None

    def test_env_gating(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        assert Tracer().enabled
        monkeypatch.setenv("REPRO_TRACE", "off")
        assert not Tracer().enabled
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        assert not Tracer().enabled


class TestMetrics:
    def test_counter(self):
        c = Counter("c")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_histogram_percentiles(self):
        h = Histogram("h")
        for v in range(1, 101):
            h.observe(v)
        assert h.percentile(50) == 50
        assert h.percentile(95) == 95
        s = h.summary()
        assert s["count"] == 100 and s["max"] == 100
        assert s["mean"] == pytest.approx(50.5)

    def test_registry_snapshot_and_reset_in_place(self):
        reg = MetricsRegistry()
        c = reg.counter("hits")
        h = reg.histogram("sizes")
        c.inc(3)
        h.observe(7.0)
        snap = reg.snapshot()
        assert snap["counters"]["hits"] == 3
        assert snap["histograms"]["sizes"]["count"] == 1
        reg.reset()
        # Cached metric objects survive a reset with zeroed state.
        assert c.value == 0 and h.count == 0
        assert reg.counter("hits") is c

    def test_name_type_conflict(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.histogram("x")

    def test_persist_accumulates_deltas(self, tmp_path):
        path = tmp_path / "metrics.json"
        reg = MetricsRegistry()
        reg.counter("n").inc(2)
        reg.persist(path)
        reg.counter("n").inc(3)
        reg.persist(path)  # only the delta of 3 is merged
        stored = MetricsRegistry.load_persisted(path)
        assert stored["counters"]["n"] == 5
        # A second registry (another "process") keeps accumulating.
        reg2 = MetricsRegistry()
        reg2.counter("n").inc(10)
        reg2.persist(path)
        assert MetricsRegistry.load_persisted(path)["counters"]["n"] == 15

    def test_format_report_lists_metrics(self):
        reg = MetricsRegistry()
        reg.counter("measure.compilations").inc(7)
        reg.histogram("opt.delta.unroll").observe(12)
        text = format_report(reg.snapshot())
        assert "measure.compilations" in text and "7" in text
        assert "opt.delta.unroll" in text
        assert "p99" in text  # percentile columns in the header


class TestReservoir:
    """Bounded-memory histogram: the reservoir must stay capped while
    keeping percentiles close to the true distribution."""

    def test_memory_stays_bounded_and_moments_stay_exact(self):
        h = Histogram("h", max_samples=256)
        n = 20_000
        for v in range(1, n + 1):
            h.observe(float(v))
        assert len(h._sample) == 256  # reservoir, not the full stream
        # Exact moments are tracked outside the reservoir.
        assert h.count == n
        assert h.sum == pytest.approx(n * (n + 1) / 2)
        assert h.summary()["max"] == float(n)
        assert h.summary()["mean"] == pytest.approx((n + 1) / 2)

    def test_percentiles_approximate_uniform_stream(self):
        # Deterministic per-name RNG makes this reproducible.
        h = Histogram("uniform-stream", max_samples=512)
        for v in range(1, 10_001):
            h.observe(float(v))
        # Nearest-rank over a 512-sample reservoir of U(1, 10000):
        # generous +/-10%-of-range tolerance kills flakiness while still
        # catching a broken reservoir (e.g. keep-first or keep-last).
        for q in (50, 95, 99):
            assert h.percentile(q) == pytest.approx(100 * q, abs=1000)

    def test_below_cap_percentiles_are_exact(self):
        h = Histogram("h", max_samples=HISTOGRAM_MAX_SAMPLES)
        for v in range(1, 1001):
            h.observe(float(v))
        assert h.percentile(50) == 500
        assert h.percentile(99) == 990

    def test_default_cap_applies(self):
        h = Histogram("h")
        for v in range(HISTOGRAM_MAX_SAMPLES + 500):
            h.observe(float(v))
        assert len(h._sample) == HISTOGRAM_MAX_SAMPLES

    def test_merge_state_keeps_moments_exact(self):
        a = Histogram("h")
        b = Histogram("h")
        for v in (1.0, 2.0, 3.0):
            a.observe(v)
        for v in (10.0, 20.0):
            b.observe(v)
        a.merge_state(b.export_state())
        assert a.count == 5
        assert a.sum == pytest.approx(36.0)
        s = a.summary()
        assert s["max"] == 20.0
        assert s["mean"] == pytest.approx(7.2)

    def test_export_state_round_trips(self):
        a = Histogram("h")
        for v in (5.0, 1.0, 9.0):
            a.observe(v)
        state = a.export_state()
        b = Histogram("h")
        b.merge_state(state)
        assert b.export_state() == state

    def test_persist_merges_histogram_deltas(self, tmp_path):
        path = tmp_path / "metrics.json"
        reg = MetricsRegistry()
        h = reg.histogram("lat_ms")
        for v in (1.0, 2.0, 3.0):
            h.observe(v)
        reg.persist(path)
        for v in (10.0, 11.0):
            h.observe(v)
        reg.persist(path)  # only the 2-observation delta merges
        # A second "process" accumulates into the same file.
        reg2 = MetricsRegistry()
        reg2.histogram("lat_ms").observe(100.0)
        reg2.persist(path)

        stored = MetricsRegistry.load_persisted(path)
        entry = stored["histograms"]["lat_ms"]
        assert entry["count"] == 6
        assert entry["sum"] == pytest.approx(127.0)
        assert entry["min"] == 1.0 and entry["max"] == 100.0
        assert len(entry["sample"]) <= 512
        # The normalized summary reads back from the stored sample.
        s = summarize_histogram_entry(entry)
        assert s["count"] == 6
        assert s["p99"] == 100.0
        text = format_report(stored)
        assert "lat_ms" in text


class TestExport:
    def _make_spans(self, tracer):
        with span("root", workload="gzip"):
            with span("child", n=2):
                pass
            with span("child", n=3):
                pass
        return tracer.spans

    def test_jsonl_round_trip(self, tracer, tmp_path):
        spans = self._make_spans(tracer)
        path = tmp_path / "trace.jsonl"
        to_jsonl(spans, path)
        lines = path.read_text().splitlines()
        back = [SpanRecord(**json.loads(line)) for line in lines]
        assert back == spans

    def test_chrome_trace_structure(self, tracer, tmp_path):
        spans = self._make_spans(tracer)
        path = tmp_path / "trace.chrome.json"
        to_chrome_trace(spans, path)
        payload = json.loads(path.read_text())
        complete = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        meta = [e for e in payload["traceEvents"] if e["ph"] == "M"]
        assert len(complete) == len(spans)
        for ev in complete:
            assert ev["ts"] >= 0 and ev["dur"] >= 0
        root = next(e for e in complete if e["name"] == "root")
        assert root["args"] == {"workload": "gzip"}
        # One process_name metadata event per pid lane.
        assert {e["pid"] for e in meta} == {e["pid"] for e in complete}
        assert all(e["name"] == "process_name" for e in meta)

    def test_self_timing_report(self, tracer):
        spans = self._make_spans(tracer)
        report = self_timing_report(spans)
        lines = report.splitlines()
        assert "total" in lines[2]
        assert any("root" in ln for ln in lines)
        child_line = next(ln for ln in lines if "child" in ln)
        assert " 2 " in child_line  # aggregated call count
        # Children are indented under their parent.
        assert child_line.index("child") > lines[3].index("root")

    def test_empty_report(self):
        assert "no spans" in self_timing_report([])


class TestThreadSafety:
    def test_concurrent_spans_keep_parenting_per_thread(self, tracer):
        n_threads, n_spans = 8, 40
        barrier = threading.Barrier(n_threads)

        def work():
            barrier.wait()
            for i in range(n_spans):
                with span("outer", i=i):
                    with span("inner"):
                        pass

        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        spans = tracer.spans
        assert len(spans) == n_threads * n_spans * 2
        by_id = {s.span_id: s for s in spans}
        assert len(by_id) == len(spans)  # unique ids under contention
        for s in spans:
            if s.name == "inner":
                parent = by_id[s.parent_id]
                assert parent.name == "outer"
                assert parent.thread_id == s.thread_id

    def test_concurrent_counter_increments(self):
        c = Counter("c")

        def work():
            for _ in range(1000):
                c.inc()

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 8000


def _small_build(seed=0):
    from repro.models import RbfModel
    from repro.pipeline import build_model
    from repro.space import full_space

    space = full_space()

    def oracle(point):
        return 1000.0 + sum(point.values())

    return build_model(
        oracle=oracle,
        space=space,
        model_factory=lambda: RbfModel(variable_names=space.names),
        rng=np.random.default_rng(seed),
        initial_size=12,
        batch_size=10,
        max_samples=12,
        target_error=0.0,
        n_candidates=120,
        test_size=10,
    )


class TestDisabledOverhead:
    def test_disabled_path_under_5_percent(self):
        """The disabled span() fast path must cost <5% of a small
        build_model run: (span calls made) x (per-call disabled cost)
        against the instrumented wall time."""
        tracer = get_tracer()
        was_enabled = tracer.enabled
        tracer.disable()
        tracer.reset()
        try:
            # Per-call cost of the disabled fast path.
            n = 50_000
            per_call = (
                min(timeit.repeat(lambda: span("x", a=1), number=n, repeat=3))
                / n
            )
            # Instrumented runtime with tracing disabled.
            runtime = min(
                timeit.repeat(lambda: _small_build(), number=1, repeat=3)
            )
            # Count the span call-sites exercised by the same run.
            tracer.enable()
            _small_build()
            n_span_calls = len(tracer.spans)
        finally:
            tracer.reset()
            tracer.enabled = was_enabled
        assert n_span_calls > 0
        overhead = n_span_calls * per_call
        assert overhead / runtime < 0.05, (
            f"{n_span_calls} disabled span calls x {per_call * 1e9:.0f}ns "
            f"= {overhead * 1e3:.3f}ms on a {runtime * 1e3:.0f}ms run"
        )


class _FakeWorkload:
    def __init__(self, name):
        self.name = name

    def module(self, input_name):
        return ("module", self.name, input_name)

    def source(self, input_name):
        return f"src:{self.name}:{input_name}"


class TestEngineCaches:
    @pytest.fixture()
    def engine(self, monkeypatch):
        from types import SimpleNamespace

        from repro.harness import measure as m

        monkeypatch.setattr(m, "get_workload", lambda name: _FakeWorkload(name))
        monkeypatch.setattr(
            m, "compile_module", lambda module, cc, issue_width: ("exe", module)
        )
        monkeypatch.setattr(
            m,
            "execute",
            lambda exe, collect_trace=True: SimpleNamespace(
                instruction_count=0, trace=[], return_value=0
            ),
        )
        return m.MeasurementEngine()

    def test_compile_and_trace_public_alias(self, engine):
        from repro.opt import O0

        exe, functional = engine.compile_and_trace("wl", "train", O0, 4)
        again = engine.compile_and_trace("wl", "train", O0, 4)
        assert again[0] is exe and again[1] is functional


class TestAtomicSave:
    def _engine(self, tmp_path):
        from repro.harness.measure import Measurement, MeasurementEngine

        eng = MeasurementEngine(cache_dir=str(tmp_path))
        eng._result_cache["k"] = Measurement(
            cycles=1.0, checksum=2, instructions=3, sampling_error=0.0
        )
        eng._dirty = True
        return eng

    def test_save_writes_valid_json_and_no_leftover_tmp(self, tmp_path):
        eng = self._engine(tmp_path)
        eng.save()
        data = json.loads((tmp_path / "measurements.json").read_text())
        assert data["k"]["cycles"] == 1.0
        assert list(tmp_path.glob("*.tmp")) == []

    def test_crash_mid_flush_preserves_old_cache(self, tmp_path, monkeypatch):
        eng = self._engine(tmp_path)
        eng.save()
        eng._result_cache["k2"] = eng._result_cache["k"]
        eng._dirty = True

        def boom(*a, **k):
            raise OSError("disk full")

        monkeypatch.setattr(json, "dump", boom)
        with pytest.raises(OSError):
            eng.save()
        # The original file is intact and no temp debris remains.
        data = json.loads((tmp_path / "measurements.json").read_text())
        assert set(data) == {"k"}
        assert list(tmp_path.glob("*.tmp")) == []


class TestEvaluateModelZeroGuard:
    class _ConstModel:
        def __init__(self, value):
            self.value = value

        def predict(self, x):
            return np.full(np.atleast_2d(x).shape[0], self.value)

    def test_zero_responses_filtered_with_warning(self):
        from repro.obs import counter
        from repro.pipeline.build import evaluate_model

        before = counter("pipeline.zero_test_responses").value
        x = np.zeros((3, 2))
        y = np.array([100.0, 0.0, 100.0])
        with pytest.warns(RuntimeWarning, match="zero"):
            mean, std = evaluate_model(self._ConstModel(110.0), x, y)
        assert mean == pytest.approx(10.0)
        assert np.isfinite(std)
        assert counter("pipeline.zero_test_responses").value == before + 1

    def test_all_zero_returns_nan(self):
        from repro.pipeline.build import evaluate_model

        with pytest.warns(RuntimeWarning):
            mean, std = evaluate_model(
                self._ConstModel(1.0), np.zeros((2, 2)), np.zeros(2)
            )
        assert np.isnan(mean) and np.isnan(std)

    def test_clean_responses_unchanged(self):
        from repro.pipeline.build import evaluate_model

        y = np.array([100.0, 200.0])
        mean, std = evaluate_model(self._ConstModel(110.0), np.zeros((2, 2)), y)
        assert mean == pytest.approx((10.0 + 45.0) / 2)


class TestImportFootprint:
    def test_pipeline_imports_load_no_http_server(self):
        """Every measurement, pool worker and prediction server imports
        these modules; none of them opens an HTTP endpoint."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        script = (
            "import sys\n"
            "import repro.obs, repro.serve, repro.harness.measure\n"
            "print('http.server' in sys.modules)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": "src"},
            cwd=str(Path(__file__).resolve().parent.parent),
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == "False"


class TestCliSurfacing:
    def test_trace_command_dumps_artifacts(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "tr"))
        assert main(["trace", "disasm", "art", "--opt", "O0"]) == 0
        out = capsys.readouterr().out
        assert "[trace]" in out and "codegen.compile" in out
        with (tmp_path / "tr" / "trace.jsonl").open() as f:
            assert any(json.loads(line)["name"] == "codegen.isel" for line in f)
        chrome = json.loads((tmp_path / "tr" / "trace.chrome.json").read_text())
        assert chrome["traceEvents"]
        assert (tmp_path / "tr" / "report.txt").exists()
        tracer = get_tracer()
        tracer.disable()
        tracer.reset()

    def test_stats_prints_live_registry(self, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.setenv("REPRO_CACHE_DIR", "off")
        get_registry().counter("measure.compilations").inc(0)  # ensure exists
        get_registry().counter("test.stats.probe").inc(3)
        assert main(["stats"]) == 0
        out = capsys.readouterr().out
        assert "test.stats.probe" in out and "3" in out

    def test_stats_reads_persisted_file(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        reg = MetricsRegistry()
        reg.counter("measure.result_cache.hits").inc(9)
        reg.persist(tmp_path / "metrics.json")
        assert main(["stats"]) == 0
        out = capsys.readouterr().out
        assert "cumulative metrics" in out
        assert "measure.result_cache.hits" in out and "9" in out

"""Outside-in per-layer attribution for the benchmark's traced runs.

The program under test is not modified: :class:`Tracer` replaces each
layer's public function *where it is looked up* (a module global or a
class attribute) with a timing wrapper, and puts every original back on
exit.  Spans are kept in memory as ``(layer, start, end, parent)``; a
layer's self time is its spans' durations minus the part covered by
their child spans.  Counters are recorded at the same boundaries.

Spans nest per thread.  The one cross-thread edge is the serving path:
while a client round trip (``serve.wire``) is in flight, a span that
opens on a thread with no open span of its own (the server's connection
thread) becomes that round trip's child, so ``serve.wire`` self time is
the round trip minus the server's ``handle_line``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterator, List, Optional, Tuple

_MARK = "__perfbench_wrapped__"

#: The benchmark's root span: the timed part of a workload.  Its self
#: time is the share no layer accounts for.
ROOT = "bench"


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count_calls(t: "Tracer", layer: str, args, kwargs, result) -> None:
    t.add(layer + ".calls")


def _window(t: "Tracer", layer: str, args, kwargs, result) -> None:
    t.add(layer + ".instr", _arg(args, kwargs, 3, "end") - _arg(args, kwargs, 2, "start"))


def _compile(t: "Tracer", layer: str, args, kwargs, result) -> None:
    t.add(layer + ".calls")
    t.add(layer + ".instrs", len(result.instrs))


def _execute(t: "Tracer", layer: str, args, kwargs, result) -> None:
    t.add(layer + ".calls")
    t.add(layer + ".instr", result.instruction_count)


def _memo_run(t: "Tracer", layer: str, args, kwargs, result) -> None:
    t.add(layer + (".run_misses" if result is None else ".run_hits"))


def _memo_unit(t: "Tracer", layer: str, args, kwargs, result) -> None:
    t.add(layer + (".unit_misses" if result is None else ".unit_hits"))


def _artifact_load(t: "Tracer", layer: str, args, kwargs, result) -> None:
    t.add(layer + (".misses" if result is None else ".hits"))


def _fit(t: "Tracer", layer: str, args, kwargs, result) -> None:
    # RBF-RT fits a regression tree inside its own fit: count user fits.
    if t.outermost(layer):
        t.add(layer + ".calls")
        t.add(layer + ".rows", _arg(args, kwargs, 1, "x").shape[0])


def _predict(t: "Tracer", layer: str, args, kwargs, result) -> None:
    if t.outermost(layer):
        t.add(layer + ".calls")
        t.add(layer + ".rows", len(result))
        if t.parent_layer() == "serve.predictor":
            t.add("serve.predictor.miss_rows", len(result))


def _predictor(t: "Tracer", layer: str, args, kwargs, result) -> None:
    t.add(layer + ".rows", len(result))


def _wire(t: "Tracer", layer: str, args, kwargs, result) -> None:
    t.add(layer + ".requests")


def _ga(t: "Tracer", layer: str, args, kwargs, result) -> None:
    t.add(layer + ".evaluations", result.evaluations)


def _handle_line(t: "Tracer", layer: str, args, kwargs, result) -> None:
    t.add(layer + ".requests")
    if not result[0].get("ok"):
        t.add(layer + ".errors")


#: (layer, import path of the owner, attribute, counter hook or None).
#: The owner is the module or class the caller looks the name up in.
#: ``save``/``load`` of the timing memo and ``save`` of the engine are
#: also timed inclusively as ``<layer>.save_s`` (see SAVE_SPANS).
PATCHES: List[Tuple[str, str, str, Optional[Callable]]] = [
    ("minic", "repro.workloads.registry", "compile_source", _count_calls),
    ("opt", "repro.codegen.compile", "optimize_module", _count_calls),
    ("codegen", "repro.harness.measure", "compile_module", _compile),
    ("sim.func", "repro.harness.measure", "execute", _execute),
    ("sim.tracepack", "repro.sim.smarts", "packed_for", _count_calls),
    ("sim.tracepack", "repro.sim.ooo", "tables_for", _count_calls),
    ("sim.ooo.init", "repro.sim.ooo:OooTimingModel", "__init__", _count_calls),
    ("sim.ooo.detail", "repro.sim.ooo:OooTimingModel", "simulate_window", _window),
    ("sim.ooo.warm", "repro.sim.ooo:OooTimingModel", "warm", _window),
    ("sim.ooo.replay", "repro.sim.ooo:OooTimingModel", "replay_window", _window),
    ("sim.smarts", "repro.sim.run", "smarts_simulate", _count_calls),
    ("sim.memo", "repro.sim.memo:TimingMemo", "get_run", _memo_run),
    ("sim.memo", "repro.sim.memo:TimingMemo", "put_run", None),
    ("sim.memo", "repro.sim.memo:TimingMemo", "get_unit", _memo_unit),
    ("sim.memo", "repro.sim.memo:TimingMemo", "put_unit", None),
    ("sim.memo", "repro.sim.memo:TimingMemo", "save", None),
    ("sim.memo", "repro.sim.memo:TimingMemo", "load", None),
    ("harness.artifacts", "repro.harness.artifacts:ArtifactStore", "load_binary", _artifact_load),
    ("harness.artifacts", "repro.harness.artifacts:ArtifactStore", "store_binary", None),
    ("harness.artifacts", "repro.harness.artifacts:ArtifactStore", "load_trace", _artifact_load),
    ("harness.artifacts", "repro.harness.artifacts:ArtifactStore", "store_trace", None),
    ("harness.measure", "repro.harness.measure:MeasurementEngine", "measure", None),
    ("harness.measure", "repro.harness.measure:MeasurementEngine", "measure_many", None),
    ("harness.measure", "repro.harness.measure:MeasurementEngine", "save", None),
    ("analysis.static", "repro.analysis.static.oracle:StaticOracle", "estimate", _count_calls),
    ("doe", "repro.pipeline.build", "d_optimal_design", _count_calls),
    ("doe", "repro.pipeline.build", "augment_design", _count_calls),
    ("pipeline", "repro.pipeline", "build_model", _count_calls),
    ("models.fit", "repro.models.base:RegressionModel", "fit", _fit),
    ("models.predict", "repro.models.base:RegressionModel", "predict", _predict),
    ("search", "repro.search.ga:GeneticSearch", "run", _ga),
    ("serve.registry", "repro.serve.registry:ModelRegistry", "save", _count_calls),
    ("serve.registry", "repro.serve.registry:ModelRegistry", "load", _count_calls),
    ("serve.predictor", "repro.serve.predictor:Predictor", "predict", _predictor),
    ("serve.server", "repro.serve.server:PredictionServer", "handle_line", _handle_line),
    ("serve.wire", "repro.serve.server:PredictionClient", "predict", _wire),
    ("serve.wire", "repro.serve.server:PredictionClient", "predict_point", _wire),
]

#: Calls whose inclusive duration is reported as ``<layer>.save_s``.
SAVE_SPANS = {("sim.memo", "save"), ("harness.measure", "save")}

LAYERS = sorted({p[0] for p in PATCHES})


def _resolve(owner: str):
    module_name, _, cls_name = owner.partition(":")
    obj = importlib.import_module(module_name)
    return getattr(obj, cls_name) if cls_name else obj


def wrapped_targets() -> List[str]:
    """Targets currently holding a tracer wrapper (empty when untraced)."""
    return [
        f"{owner}.{attr}"
        for _, owner, attr, _ in PATCHES
        if getattr(getattr(_resolve(owner), attr), _MARK, False)
    ]


class Tracer:
    """Context manager: patch on enter, restore and verify on exit."""

    def __init__(self) -> None:
        #: (layer, start, end, parent index or -1)
        self.spans: List[List] = []
        #: Exact work counts; they repeat exactly across runs.
        self.counts: Dict[str, float] = defaultdict(float)
        #: Inclusive seconds of the calls in SAVE_SPANS.
        self.save_s: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._remote_parent = -1
        self._saved: List[Tuple[object, str, object]] = []
        self.restored_ok: Optional[bool] = None

    # -- spans ----------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, layer: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else self._remote_parent
        with self._lock:
            index = len(self.spans)
            self.spans.append([layer, time.perf_counter(), 0.0, parent])
        stack.append(index)
        if layer == "serve.wire":
            self._remote_parent = index
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()
        if self.spans[index][0] == "serve.wire":
            self._remote_parent = -1

    def outermost(self, layer: str) -> bool:
        """True when no enclosing span on this thread is of ``layer``
        (the just-closed span itself has been popped already)."""
        return all(self.spans[i][0] != layer for i in self._stack())

    def parent_layer(self) -> Optional[str]:
        stack = self._stack()
        return self.spans[stack[-1]][0] if stack else None

    def add(self, key: str, n: float = 1) -> None:
        with self._lock:
            self.counts[key] += n

    # -- patching -------------------------------------------------------
    def _wrap(self, layer: str, attr: str, fn: Callable, hook: Optional[Callable]):
        tracer = self
        save_key = layer + ".save_s" if (layer, attr) in SAVE_SPANS else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer.open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if save_key is not None:
                span = tracer.spans[index]
                tracer.save_s[save_key] += span[2] - span[1]
            if hook is not None:
                hook(tracer, layer, args, kwargs, result)
            return result

        setattr(wrapper, _MARK, True)
        return wrapper

    def __enter__(self) -> "Tracer":
        for layer, owner, attr, hook in PATCHES:
            obj = _resolve(owner)
            original = obj.__dict__[attr] if isinstance(obj, type) else getattr(obj, attr)
            self._saved.append((obj, attr, original))
            setattr(obj, attr, self._wrap(layer, attr, original, hook))
        return self

    def __exit__(self, *exc) -> None:
        for obj, attr, original in reversed(self._saved):
            setattr(obj, attr, original)
        self.restored_ok = all(
            (obj.__dict__[attr] if isinstance(obj, type) else getattr(obj, attr)) is original
            for obj, attr, original in self._saved
        )
        self._saved.clear()

    # -- report ---------------------------------------------------------
    def self_times(self) -> Dict[str, float]:
        """Self seconds per layer (including :data:`ROOT`)."""
        covered = [0.0] * len(self.spans)
        for layer, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: Dict[str, float] = defaultdict(float)
        for (layer, start, end, parent), child in zip(self.spans, covered):
            out[layer] += (end - start) - child
        return out

    def layer_metrics(self, timed_s: float) -> Dict[str, float]:
        """Self seconds per layer, the counters, and the derived ratios;
        layers this workload skips are absent."""
        self_s = self.self_times()
        m: Dict[str, float] = {f"{layer}.s": t for layer, t in self_s.items() if layer != ROOT}
        m.update(self.counts)
        m.update(self.save_s)

        def per(num: str, den: str, scale: float) -> float:
            return m.get(num, 0.0) / m[den] * scale if m.get(den) else 0.0

        for layer in ("sim.func", "sim.ooo.detail", "sim.ooo.warm"):
            m[f"{layer}.ns_per_instr"] = per(f"{layer}.s", f"{layer}.instr", 1e9)
        m["models.predict.us_per_call"] = per("models.predict.s", "models.predict.calls", 1e6)
        m["serve.wire.ms_per_request"] = per("serve.wire.s", "serve.wire.requests", 1e3)
        m["serve.predictor.cache_hits"] = m.get("serve.predictor.rows", 0.0) - m.get(
            "serve.predictor.miss_rows", 0.0
        )
        m["serve.predictor.hit_ratio"] = per(
            "serve.predictor.cache_hits", "serve.predictor.rows", 1.0
        )
        m["unattributed_frac"] = self_s.get(ROOT, 0.0) / timed_s if timed_s else 0.0
        return m


@contextlib.contextmanager
def root_span(tracer: Optional[Tracer]) -> Iterator[None]:
    """The timed part as the root span; a no-op when untraced."""
    if tracer is None:
        yield
        return
    index = tracer.open(ROOT)
    try:
        yield
    finally:
        tracer.close(index)

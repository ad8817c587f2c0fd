"""Static analyses over the IR: seven plain functions, called in order.

Each analysis is a module-level function that takes what it reads as
arguments and returns its result.  :func:`analyze_module` calls each
one once per IR function, in this (dependency) order:

* :func:`cfg_info` -- successor/predecessor maps;
* :func:`loop_forest` -- the natural-loop forest plus depth and
  innermost-loop maps;
* :func:`trip_counts` -- static trip counts for counted loops (IV
  init/step from the latch, bounds through affine resolution of
  global-scalar initializers), with a calibrated default when unknown;
* :func:`block_freqs` -- static block-frequency estimates: mass
  propagation over the back-edge-free CFG, loop bodies scaled by trip
  counts, loop exits taking ``1/trip`` of the mass;
* :func:`block_mix` -- per-block instruction mix by functional-unit
  class and the latency-weighted critical path (the block's ILP bound),
  tracking how many loads sit on the critical chain;
* :func:`memory_info` -- per-loop memory streams (base symbol,
  per-iteration stride in bytes, footprint, reuse class), store->load
  dependence distances in iterations, and an alias-class partition of
  memory ops by resolved base symbol;
* :func:`branch_info` -- branch-predictability classes (loop
  latch/exit, data-dependent, regular) with a base misprediction
  probability.

Each function's single-definition map and its affine environment are
built once and passed to the analyses that read them.  Whole-program
entry frequencies come from propagating call-site frequencies from
``main``.

``analyze_module`` assembles everything into a :class:`ModuleSummary`
-- the static feature vector consumed by the analytical cost model
(:mod:`repro.analysis.static.costmodel`), the ``repro analyze`` CLI and
the serve-layer feature export.  ``ModuleSummary.check`` re-derives the
framework's invariants (headers dominate bodies, mix totals match block
sizes, frequencies conserve mass, ...) and returns violations; CI runs
it across flag-vector sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.ir import (
    Addr,
    BinOp,
    Branch,
    Call,
    Cmp,
    Const,
    Copy,
    Function,
    Jump,
    Load,
    Module,
    Prefetch,
    Return,
    Store,
    Temp,
    UnOp,
)
from repro.ir.cfg import predecessors, successors
from repro.ir.dominators import dominates, immediate_dominators
from repro.ir.loops import Loop, natural_loops

#: Default trip-count estimate for loops whose bounds resist static
#: resolution (calibrated against the seven SPEC stand-ins).
DEFAULT_TRIP = 16.0

#: IR-level latencies used for the critical-path (ILP-bound) analysis.
#: Loads are counted separately so the cost model can re-weight the
#: chain with the configured cache latency.
_LATENCY = {
    "ialu": 1,
    "imult": 3,
    "fpalu": 2,
    "fpmult": 4,
    "load": 1,
    "store": 1,
    "prefetch": 1,
    "call": 1,
    "branch": 1,
    "jump": 1,
    "ret": 1,
}

_INT_LONG_OPS = ("mul", "div", "mod")
_FP_ADD_OPS = ("fadd", "fsub")
_FP_MUL_OPS = ("fmul", "fdiv")


def classify(instr) -> str:
    """Functional-unit class of one IR instruction (mirrors the ISA
    lowering well enough for static mix/ILP estimates)."""
    if isinstance(instr, Load):
        return "load"
    if isinstance(instr, Store):
        return "store"
    if isinstance(instr, Prefetch):
        return "prefetch"
    if isinstance(instr, Call):
        return "call"
    if isinstance(instr, BinOp):
        if instr.op in _FP_MUL_OPS:
            return "fpmult"
        if instr.op in _FP_ADD_OPS:
            return "fpalu"
        if instr.op in _INT_LONG_OPS:
            return "imult"
        return "ialu"
    if isinstance(instr, UnOp):
        return "fpalu" if instr.op in ("itof", "ftoi", "fneg") else "ialu"
    if isinstance(instr, Branch):
        return "branch"
    if isinstance(instr, Jump):
        return "jump"
    if isinstance(instr, Return):
        return "ret"
    return "ialu"  # Cmp, Copy, Addr and anything register-to-register


# ----------------------------------------------------------------------
# The analyses
# ----------------------------------------------------------------------
@dataclass
class CfgInfo:
    succ: Dict[str, List[str]]
    pred: Dict[str, List[str]]


def cfg_info(func: Function) -> CfgInfo:
    return CfgInfo(succ=successors(func), pred=predecessors(func))


@dataclass
class LoopForest:
    loops: List[Loop]
    #: block label -> innermost containing loop (or None).
    innermost: Dict[str, Optional[Loop]]
    #: block label -> loop-nest depth (0 outside any loop).
    depth: Dict[str, int]


def loop_forest(func: Function) -> LoopForest:
    loops = natural_loops(func)
    innermost: Dict[str, Optional[Loop]] = {
        b.label: None for b in func.blocks
    }
    depth: Dict[str, int] = {b.label: 0 for b in func.blocks}
    for loop in sorted(loops, key=lambda l: l.depth):
        for label in loop.body_in_layout_order(func):
            innermost[label] = loop
            depth[label] = loop.depth
    return LoopForest(loops=loops, innermost=innermost, depth=depth)


def _single_defs(func: Function) -> Dict[Temp, object]:
    """Temps defined exactly once -> their defining instruction."""
    counts: Dict[Temp, int] = {}
    where: Dict[Temp, object] = {}
    for block in func.blocks:
        for instr in block.all_instrs():
            d = instr.defs()
            if d is not None:
                counts[d] = counts.get(d, 0) + 1
                where[d] = instr
    return {t: where[t] for t, n in counts.items() if n == 1}


def _scalar_inits(module: Module) -> Dict[str, float]:
    """Global scalars with a known initial value (value-range seeds)."""
    out: Dict[str, float] = {}
    for name, g in module.globals.items():
        if not g.is_array and g.init:
            out[name] = g.init[0]
    return out


class _AffineEnv:
    """Affine resolution of integer values over single-def temp chains.

    ``affine(v)`` returns ``(coeffs, const)`` -- a linear form over
    symbolic variables (multi-def temps: IVs and mutable locals; and
    parameters) -- or ``None`` when the value is not affine.  Loads of
    initialized global scalars resolve to their initial value, which is
    what turns ``i < N`` bounds and ``j * F1 + i`` subscripts into
    numbers without running the program.
    """

    def __init__(
        self, single: Dict[Temp, object], scalars: Dict[str, float]
    ):
        self.single = single
        self.scalars = scalars
        self._memo: Dict[Temp, Optional[Tuple[Dict[Temp, float], float]]] = {}

    def affine(self, value) -> Optional[Tuple[Dict[Temp, float], float]]:
        if isinstance(value, Const):
            if isinstance(value.value, (int, float)):
                return ({}, float(value.value))
            return None
        if not isinstance(value, Temp):
            return None
        if value in self._memo:
            return self._memo[value]
        self._memo[value] = None  # cycle guard
        result = self._affine_temp(value)
        self._memo[value] = result
        return result

    def scalar_load(self, instr) -> Optional[float]:
        """Value of ``load [&scalar + 0]`` when the scalar has an
        initializer (and is therefore range-known at entry)."""
        if not isinstance(instr, Load):
            return None
        if not (isinstance(instr.offset, Const) and instr.offset.value == 0):
            return None
        base = instr.base
        if isinstance(base, Temp):
            base_def = self.single.get(base)
            if isinstance(base_def, Addr):
                return self.scalars.get(base_def.symbol)
        return None

    def _affine_temp(self, temp: Temp):
        instr = self.single.get(temp)
        if instr is None:
            # Multi-def temp (IV / mutable local) or parameter: symbolic.
            return ({temp: 1.0}, 0.0)
        if isinstance(instr, Copy):
            return self.affine(instr.src)
        if isinstance(instr, Load):
            value = self.scalar_load(instr)
            if value is not None:
                return ({}, value)
            return None
        if isinstance(instr, BinOp):
            a = self.affine(instr.a)
            b = self.affine(instr.b)
            if a is None or b is None:
                return None
            if instr.op == "add":
                coeffs = dict(a[0])
                for t, c in b[0].items():
                    coeffs[t] = coeffs.get(t, 0.0) + c
                return (coeffs, a[1] + b[1])
            if instr.op == "sub":
                coeffs = dict(a[0])
                for t, c in b[0].items():
                    coeffs[t] = coeffs.get(t, 0.0) - c
                return (coeffs, a[1] - b[1])
            if instr.op == "mul":
                if not a[0]:  # const * affine
                    k, form = a[1], b
                elif not b[0]:
                    k, form = b[1], a
                else:
                    return None
                return ({t: c * k for t, c in form[0].items()}, form[1] * k)
            if instr.op == "shl" and not b[0]:
                k = 2.0 ** b[1]
                return ({t: c * k for t, c in a[0].items()}, a[1] * k)
            return None
        return None

    def resolve_base(self, value) -> Optional[str]:
        """Global symbol a Load/Store base resolves to, if any."""
        seen = 0
        while isinstance(value, Temp) and seen < 8:
            instr = self.single.get(value)
            if isinstance(instr, Addr):
                return instr.symbol
            if isinstance(instr, Copy):
                value = instr.src
                seen += 1
                continue
            return None
        return None


@dataclass
class TripInfo:
    #: header -> exact static trip count, when resolvable.
    counts: Dict[str, Optional[float]]
    #: header -> estimate (exact count or DEFAULT_TRIP).
    estimates: Dict[str, float]
    #: header -> basic IV temps with their per-iteration steps.
    ivs: Dict[str, Dict[Temp, float]]


def trip_counts(
    func: Function, cfg: CfgInfo, forest: LoopForest, env: _AffineEnv
) -> TripInfo:
    from repro.opt.strength import find_basic_ivs

    counts: Dict[str, Optional[float]] = {}
    estimates: Dict[str, float] = {}
    ivs_out: Dict[str, Dict[Temp, float]] = {}
    for loop in forest.loops:
        ivs = find_basic_ivs(func, loop)
        ivs_out[loop.header] = {iv.temp: float(iv.step) for iv in ivs}
        counts[loop.header] = _trip_count(func, loop, ivs, env, cfg)
        c = counts[loop.header]
        estimates[loop.header] = c if c and c > 0 else DEFAULT_TRIP
    return TripInfo(counts=counts, estimates=estimates, ivs=ivs_out)


def _trip_count(func, loop, ivs, env: _AffineEnv, cfg: CfgInfo):
    header = func.block(loop.header)
    term = header.terminator
    if not isinstance(term, Branch) or not isinstance(term.cond, Temp):
        return None
    cmp_instr = None
    for instr in header.instrs:
        if isinstance(instr, Cmp) and instr.defs() == term.cond:
            cmp_instr = instr
    if cmp_instr is None:
        return None
    iv_steps = {t: s for t, s in ((iv.temp, iv.step) for iv in ivs)}

    def side(value):
        form = env.affine(value)
        if form is None:
            return None
        iv_terms = {
            t: c for t, c in form[0].items() if t in iv_steps and c
        }
        other = {
            t: c
            for t, c in form[0].items()
            if t not in iv_steps and c
        }
        if other:
            return None
        if len(iv_terms) > 1:
            return None
        return (iv_terms, form[1])

    lhs, rhs = side(cmp_instr.a), side(cmp_instr.b)
    if lhs is None or rhs is None:
        return None
    # Normalize to: coeff*iv + c0  <op>  bound (iv on one side only).
    if lhs[0] and not rhs[0]:
        iv_side, bound, op = lhs, rhs[1], cmp_instr.op
    elif rhs[0] and not lhs[0]:
        swap = {"lt": "gt", "le": "ge", "gt": "lt", "ge": "le"}
        if cmp_instr.op not in swap and cmp_instr.op not in ("eq", "ne"):
            return None
        iv_side, bound, op = rhs, lhs[1], swap.get(cmp_instr.op, cmp_instr.op)
    else:
        return None
    (iv_temp, coeff), = iv_side[0].items()
    step = iv_steps[iv_temp] * coeff
    init = _iv_init(func, loop, iv_temp, env, cfg)
    if init is None or step == 0:
        return None
    start = init * coeff + iv_side[1]
    if op == "lt" and step > 0:
        trips = (bound - start + step - 1) // step
    elif op == "le" and step > 0:
        trips = (bound - start) // step + 1
    elif op == "gt" and step < 0:
        trips = (start - bound - step - 1) // -step
    elif op == "ge" and step < 0:
        trips = (start - bound) // -step + 1
    elif op == "ne" and step != 0:
        delta = bound - start
        trips = delta / step if delta % step == 0 else None
        if trips is None:
            return None
    else:
        return None
    return float(trips) if trips and trips > 0 else 0.0


def _iv_init(func, loop, iv_temp, env: _AffineEnv, cfg: CfgInfo):
    """Initial IV value: chase a linear chain of out-of-loop
    predecessors for the last constant assignment to the IV."""
    outside = [p for p in cfg.pred[loop.header] if p not in loop.body]
    if len(outside) != 1:
        return None
    label = outside[0]
    hops = 0
    while label is not None and hops < 16:
        block = func.block(label)
        for instr in reversed(block.instrs):
            if instr.defs() == iv_temp:
                form = env.affine(instr.src) if isinstance(
                    instr, Copy
                ) else None
                if form is not None and not form[0]:
                    return form[1]
                return None
        preds = cfg.pred.get(label, [])
        label = preds[0] if len(preds) == 1 else None
        hops += 1
    return None


def block_freqs(
    func: Function, cfg: CfgInfo, forest: LoopForest, trips: TripInfo
) -> Dict[str, float]:
    """Static block-frequency estimates (executions per function entry)."""
    headers = {l.header: l for l in forest.loops}

    # Forward CFG: drop back edges (u -> header of a loop containing u).
    fsucc: Dict[str, List[str]] = {}
    for label, succs in cfg.succ.items():
        fsucc[label] = [
            s
            for s in succs
            if not (s in headers and label in headers[s].body)
        ]
    indeg: Dict[str, int] = {b.label: 0 for b in func.blocks}
    for label, succs in fsucc.items():
        for s in succs:
            indeg[s] += 1

    in_mass: Dict[str, float] = {b.label: 0.0 for b in func.blocks}
    freq: Dict[str, float] = {b.label: 0.0 for b in func.blocks}
    in_mass[func.entry.label] = 1.0
    ready = [func.entry.label]
    seen = {func.entry.label}
    order: List[str] = []
    # Kahn's algorithm from the entry; unreachable blocks keep freq 0.
    pending = dict(indeg)
    while ready:
        label = ready.pop()
        order.append(label)
        for s in fsucc[label]:
            pending[s] -= 1
            if pending[s] <= 0 and s not in seen:
                seen.add(s)
                ready.append(s)

    for label in order:
        mass = in_mass[label]
        loop = headers.get(label)
        f = mass * trips.estimates[label] if loop is not None else mass
        freq[label] = f
        succs = fsucc[label]
        if not succs:
            continue
        inner = forest.innermost.get(label)
        if inner is not None and len(succs) > 1:
            inside = [s for s in succs if s in inner.body]
            outside = [s for s in succs if s not in inner.body]
            if len(inside) == 1 and len(outside) == 1:
                # Loop-exit branch: one exit per loop entry.
                trip = trips.estimates[inner.header]
                exit_share = f / trip if trip > 0 else f
                in_mass[outside[0]] += min(exit_share, f)
                in_mass[inside[0]] += max(f - exit_share, 0.0)
                continue
        share = f / len(succs)
        for s in succs:
            in_mass[s] += share
    return freq


@dataclass
class BlockMix:
    n_instrs: int
    mix: Dict[str, int]
    #: Latency-weighted critical path through the block (ILP bound).
    crit_path: float
    #: Loads on the critical chain (re-weighted by cache latency later).
    loads_on_path: int


def block_mix(func: Function) -> Dict[str, BlockMix]:
    out: Dict[str, BlockMix] = {}
    for block in func.blocks:
        mix: Dict[str, int] = {}
        finish: Dict[Temp, float] = {}
        loads_chain: Dict[Temp, int] = {}
        cp = 0.0
        cp_loads = 0
        n = 0
        for instr in block.all_instrs():
            cls = classify(instr)
            mix[cls] = mix.get(cls, 0) + 1
            n += 1
            start = 0.0
            chain_loads = 0
            for u in instr.uses():
                if isinstance(u, Temp) and u in finish:
                    if finish[u] > start:
                        start = finish[u]
                        chain_loads = loads_chain.get(u, 0)
                    elif finish[u] == start:
                        chain_loads = max(
                            chain_loads, loads_chain.get(u, 0)
                        )
            fin = start + _LATENCY[cls]
            total_loads = chain_loads + (1 if cls == "load" else 0)
            d = instr.defs()
            if d is not None:
                finish[d] = fin
                loads_chain[d] = total_loads
            if fin > cp or (fin == cp and total_loads > cp_loads):
                cp = fin
                cp_loads = total_loads
        out[block.label] = BlockMix(
            n_instrs=n, mix=mix, crit_path=cp, loads_on_path=cp_loads
        )
    return out


@dataclass
class MemStream:
    """One memory reference stream inside a loop."""

    function: str
    block: str
    loop: Optional[str]
    kind: str  # "load" | "store" | "prefetch"
    symbol: Optional[str]
    #: Per-innermost-iteration stride in bytes (None = non-affine).
    stride: Optional[float]
    #: Bytes touched across the loop nest (capped at the symbol's size).
    footprint: float
    #: "scalar" | "stream" | "strided" | "random"
    reuse: str


@dataclass
class DepDistance:
    """Store->load dependence distance on one symbol, in iterations."""

    function: str
    loop: str
    symbol: str
    distance: float


@dataclass
class MemoryInfo:
    streams: List[MemStream]
    dep_distances: List[DepDistance]
    #: alias class (symbol or "?unknown") -> number of memory ops.
    alias_classes: Dict[str, int]


def memory_info(
    func: Function,
    module: Module,
    forest: LoopForest,
    trips: TripInfo,
    env: _AffineEnv,
) -> MemoryInfo:
    streams: List[MemStream] = []
    deps: List[DepDistance] = []
    alias: Dict[str, int] = {}
    #: (loop, symbol) -> list of (kind, coeffs-sans-const, const, stride)
    forms: Dict[Tuple[str, str], List[Tuple[str, tuple, float, float]]] = {}
    for block in func.blocks:
        loop = forest.innermost.get(block.label)
        iv_steps = (
            trips.ivs.get(loop.header, {}) if loop is not None else {}
        )
        for instr in block.all_instrs():
            if isinstance(instr, Load):
                kind = "load"
            elif isinstance(instr, Store):
                kind = "store"
            elif isinstance(instr, Prefetch):
                kind = "prefetch"
            else:
                continue
            symbol = env.resolve_base(instr.base)
            alias_key = symbol if symbol is not None else "?unknown"
            alias[alias_key] = alias.get(alias_key, 0) + 1
            form = env.affine(instr.offset)
            stride: Optional[float] = None
            if form is not None:
                stride = sum(
                    c * iv_steps[t]
                    for t, c in form[0].items()
                    if t in iv_steps
                )
                if any(
                    c and t not in iv_steps and _varies_in_loop(
                        func, loop, t
                    )
                    for t, c in form[0].items()
                ):
                    stride = None  # offset varies non-affinely in loop
            size = (
                module.globals[symbol].size_bytes
                if symbol in module.globals
                else 4096.0
            )
            if loop is None:
                footprint = 0.0
                reuse = "scalar"
            elif stride is None:
                footprint = float(size)
                reuse = "random"
            elif stride == 0:
                footprint = 8.0
                reuse = "scalar"
            else:
                trip = trips.estimates[loop.header]
                footprint = min(float(size), abs(stride) * trip)
                reuse = "stream" if abs(stride) <= 32 else "strided"
            streams.append(
                MemStream(
                    function=func.name,
                    block=block.label,
                    loop=loop.header if loop is not None else None,
                    kind=kind,
                    symbol=symbol,
                    stride=stride,
                    footprint=footprint,
                    reuse=reuse,
                )
            )
            if (
                loop is not None
                and symbol is not None
                and form is not None
                and stride not in (None, 0)
            ):
                coeff_key = tuple(
                    sorted(
                        (t.name, c) for t, c in form[0].items() if c
                    )
                )
                slot = forms.setdefault((loop.header, symbol), [])
                for okind, okey, oconst, ostride in slot:
                    if okey == coeff_key and {kind, okind} == {
                        "load",
                        "store",
                    }:
                        deps.append(
                            DepDistance(
                                function=func.name,
                                loop=loop.header,
                                symbol=symbol,
                                distance=abs(form[1] - oconst)
                                / abs(stride),
                            )
                        )
                slot.append((kind, coeff_key, form[1], stride))
    return MemoryInfo(
        streams=streams, dep_distances=deps, alias_classes=alias
    )


def _varies_in_loop(func, loop, temp) -> bool:
    if loop is None:
        return False
    for label in loop.body:  # lint: set-order-ok (order-insensitive any)
        for instr in func.block(label).all_instrs():
            if instr.defs() == temp:
                return True
    return False


@dataclass
class BranchInfo:
    function: str
    block: str
    #: "loop_latch" | "loop_exit" | "data" | "regular"
    kind: str
    #: Base misprediction probability with an unaliased predictor.
    mispredict: float


def branch_info(
    func: Function,
    forest: LoopForest,
    trips: TripInfo,
    single: Dict[Temp, object],
) -> List[BranchInfo]:
    out: List[BranchInfo] = []
    for block in func.blocks:
        term = block.terminator
        if not isinstance(term, Branch):
            continue
        loop = forest.innermost.get(block.label)
        kind = "regular"
        prob = 0.10
        if loop is not None:
            targets = term.targets()
            back = any(
                t in {l.header for l in forest.loops}
                and block.label in forest.innermost
                and t == loop.header
                for t in targets
            )
            exits = [t for t in targets if t not in loop.body]
            trip = trips.estimates[loop.header]
            if block.label == loop.header and exits:
                kind = "loop_exit"
                prob = min(0.5, 1.0 / max(trip, 2.0))
            elif back:
                kind = "loop_latch"
                prob = min(0.5, 1.0 / max(trip, 2.0))
            elif exits:
                kind = "loop_exit"
                prob = min(0.5, 1.0 / max(trip, 2.0))
            else:
                kind, prob = _cond_kind(term, single)
        else:
            kind, prob = _cond_kind(term, single)
        out.append(
            BranchInfo(
                function=func.name,
                block=block.label,
                kind=kind,
                mispredict=prob,
            )
        )
    return out


def _cond_kind(term, single) -> Tuple[str, float]:
    """Data-dependent branches (condition fed by a load) mispredict
    far more often than control-induction ones."""
    cond = term.cond
    frontier = [cond]
    hops = 0
    while frontier and hops < 6:
        v = frontier.pop()
        if not isinstance(v, Temp):
            continue
        instr = single.get(v)
        if instr is None:
            continue
        if isinstance(instr, Load):
            return "data", 0.25
        frontier.extend(
            u for u in instr.uses() if isinstance(u, Temp)
        )
        hops += 1
    return "regular", 0.10


# ----------------------------------------------------------------------
# Module summary (the static feature vector)
# ----------------------------------------------------------------------
@dataclass
class LoopSummary:
    function: str
    header: str
    depth: int
    blocks: Tuple[str, ...]
    trip_count: Optional[float]
    trip_estimate: float
    #: Whole-program iteration count (trip x enclosing trips x call freq).
    iterations: float
    body_instrs: int


@dataclass
class FunctionSummary:
    name: str
    #: Whole-program entries into this function.
    entry_freq: float
    #: Local block frequency (per entry).
    local_freq: Dict[str, float]
    blocks: Dict[str, BlockMix]
    loops: List[LoopSummary]
    streams: List[MemStream]
    dep_distances: List[DepDistance]
    alias_classes: Dict[str, int]
    branches: List[BranchInfo]
    n_instrs: int
    #: (callee, caller block) call sites with local frequency.
    call_sites: List[Tuple[str, str, float]]


@dataclass
class ModuleSummary:
    """Static features for one module; see :func:`analyze_module`."""

    name: str
    functions: Dict[str, FunctionSummary]
    total_instrs: int

    # -- serialization -------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        def stream_d(s: MemStream):
            return {
                "block": s.block,
                "loop": s.loop,
                "kind": s.kind,
                "symbol": s.symbol,
                "stride": s.stride,
                "footprint": s.footprint,
                "reuse": s.reuse,
            }

        return {
            "module": self.name,
            "total_instrs": self.total_instrs,
            "functions": {
                name: {
                    "entry_freq": f.entry_freq,
                    "n_instrs": f.n_instrs,
                    "blocks": {
                        label: {
                            "n_instrs": b.n_instrs,
                            "mix": b.mix,
                            "crit_path": b.crit_path,
                            "loads_on_path": b.loads_on_path,
                            "freq": f.local_freq.get(label, 0.0),
                        }
                        for label, b in f.blocks.items()
                    },
                    "loops": [
                        {
                            "header": l.header,
                            "depth": l.depth,
                            "trip_count": l.trip_count,
                            "trip_estimate": l.trip_estimate,
                            "iterations": l.iterations,
                            "body_instrs": l.body_instrs,
                        }
                        for l in f.loops
                    ],
                    "streams": [stream_d(s) for s in f.streams],
                    "dep_distances": [
                        {
                            "loop": d.loop,
                            "symbol": d.symbol,
                            "distance": d.distance,
                        }
                        for d in f.dep_distances
                    ],
                    "alias_classes": f.alias_classes,
                    "branches": [
                        {
                            "block": b.block,
                            "kind": b.kind,
                            "mispredict": b.mispredict,
                        }
                        for b in f.branches
                    ],
                    "call_sites": [
                        {"callee": c, "block": b, "freq": fr}
                        for c, b, fr in f.call_sites
                    ],
                }
                for name, f in self.functions.items()
            },
        }

    # -- invariants ----------------------------------------------------
    def check(self, module: Module) -> List[str]:
        """Re-derive the framework's invariants; returns violations."""
        problems: List[str] = []
        for name, fs in self.functions.items():
            func = module.functions.get(name)
            if func is None:
                problems.append(f"{name}: summarized but not in module")
                continue
            labels = {b.label for b in func.blocks}
            if set(fs.blocks) != labels:
                problems.append(f"{name}: block set mismatch")
            idom = immediate_dominators(func)
            for bm_label, bm in fs.blocks.items():
                block = func.block(bm_label)
                if bm.n_instrs != len(block.all_instrs()):
                    problems.append(
                        f"{name}:{bm_label}: n_instrs {bm.n_instrs} != "
                        f"{len(block.all_instrs())}"
                    )
                if sum(bm.mix.values()) != bm.n_instrs:
                    problems.append(
                        f"{name}:{bm_label}: mix sums to "
                        f"{sum(bm.mix.values())}, not {bm.n_instrs}"
                    )
                if bm.crit_path < 0 or bm.crit_path > 4 * bm.n_instrs + 1:
                    problems.append(
                        f"{name}:{bm_label}: critical path {bm.crit_path} "
                        f"outside [0, 4n]"
                    )
                if fs.local_freq.get(bm_label, 0.0) < 0:
                    problems.append(f"{name}:{bm_label}: negative frequency")
            if fs.local_freq.get(func.entry.label, 0.0) != 1.0:
                problems.append(f"{name}: entry frequency != 1")
            for ls in fs.loops:
                if ls.header not in labels:
                    problems.append(f"{name}: loop header {ls.header} gone")
                    continue
                for body_label in ls.blocks:
                    if body_label in idom and not dominates(
                        func, ls.header, body_label
                    ):
                        problems.append(
                            f"{name}: loop {ls.header} does not dominate "
                            f"body block {body_label}"
                        )
                if ls.trip_count is not None and ls.trip_count < 0:
                    problems.append(
                        f"{name}: loop {ls.header} negative trip count"
                    )
                if ls.trip_estimate <= 0:
                    problems.append(
                        f"{name}: loop {ls.header} non-positive estimate"
                    )
                if ls.iterations < 0:
                    problems.append(
                        f"{name}: loop {ls.header} negative iterations"
                    )
            n_mem_ops = sum(
                1
                for b in func.blocks
                for i in b.all_instrs()
                if isinstance(i, (Load, Store, Prefetch))
            )
            if sum(fs.alias_classes.values()) != n_mem_ops:
                problems.append(
                    f"{name}: alias classes cover "
                    f"{sum(fs.alias_classes.values())} of {n_mem_ops} mem ops"
                )
            for s in fs.streams:
                if s.symbol is not None and s.symbol not in module.globals:
                    problems.append(
                        f"{name}: stream over unknown symbol {s.symbol}"
                    )
                if s.footprint < 0:
                    problems.append(f"{name}: negative footprint stream")
            for br in fs.branches:
                if br.block not in labels or not isinstance(
                    func.block(br.block).terminator, Branch
                ):
                    problems.append(
                        f"{name}: branch record for non-branch {br.block}"
                    )
                if not (0.0 <= br.mispredict <= 1.0):
                    problems.append(
                        f"{name}:{br.block}: mispredict "
                        f"{br.mispredict} outside [0,1]"
                    )
        return problems


def _entry_freqs(module: Module, call_sites) -> Dict[str, float]:
    """Whole-program entry counts per function, propagated from main
    through call-site frequencies (recursion capped by iteration)."""
    freqs = {name: 0.0 for name in module.functions}
    roots = [n for n in ("main",) if n in freqs] or list(freqs)[:1]
    for r in roots:
        freqs[r] = 1.0
    for _ in range(len(module.functions) + 2):
        updated = dict(freqs)
        for name in module.functions:
            if name in roots:
                continue
            total = 0.0
            for caller, sites in call_sites.items():
                for callee, _block, local in sites:
                    if callee == name:
                        total += freqs[caller] * local
            updated[name] = total
        if updated == freqs:
            break
        freqs = updated
    return freqs


def analyze_module(module: Module) -> ModuleSummary:
    """Run the seven analyses once per function, in dependency order,
    and assemble the module summary."""
    scalars = _scalar_inits(module)
    results = {}
    call_sites: Dict[str, List[Tuple[str, str, float]]] = {}
    for name, func in module.functions.items():
        single = _single_defs(func)
        env = _AffineEnv(single, scalars)
        cfg = cfg_info(func)
        forest = loop_forest(func)
        trips = trip_counts(func, cfg, forest, env)
        freq = block_freqs(func, cfg, forest, trips)
        results[name] = (
            forest,
            trips,
            freq,
            block_mix(func),
            memory_info(func, module, forest, trips, env),
            branch_info(func, forest, trips, single),
        )
        sites: List[Tuple[str, str, float]] = []
        for block in func.blocks:
            for instr in block.instrs:
                if isinstance(instr, Call) and instr.callee in module.functions:
                    sites.append(
                        (instr.callee, block.label, freq[block.label])
                    )
        call_sites[name] = sites
    entry = _entry_freqs(module, call_sites)

    functions: Dict[str, FunctionSummary] = {}
    for name, func in module.functions.items():
        forest, trips, freq, mix, memory, branches = results[name]
        loops: List[LoopSummary] = []
        for loop in forest.loops:
            iters = freq[loop.header] * entry.get(name, 0.0)
            loops.append(
                LoopSummary(
                    function=name,
                    header=loop.header,
                    depth=loop.depth,
                    blocks=tuple(loop.body_in_layout_order(func)),
                    trip_count=trips.counts[loop.header],
                    trip_estimate=trips.estimates[loop.header],
                    iterations=iters,
                    body_instrs=sum(
                        mix[l].n_instrs
                        for l in loop.body_in_layout_order(func)
                    ),
                )
            )
        functions[name] = FunctionSummary(
            name=name,
            entry_freq=entry.get(name, 0.0),
            local_freq=freq,
            blocks=mix,
            loops=loops,
            streams=memory.streams,
            dep_distances=memory.dep_distances,
            alias_classes=memory.alias_classes,
            branches=branches,
            n_instrs=func.instruction_count(),
            call_sites=call_sites[name],
        )
    return ModuleSummary(
        name=module.name,
        functions=functions,
        total_instrs=module.instruction_count(),
    )

"""Functional simulation: architectural execution of an executable.

Executes the program to completion, producing the architectural result
(the program checksum returned by ``main``) and, optionally, the dynamic
trace consumed by the timing model as a
:class:`~repro.sim.tracepack.PackedTrace`: the pc of every executed
instruction and its effective address (-1 when it touches no memory);
control-flow outcomes are implied by the pc sequence.

Block translation
-----------------
:func:`execute` does not interpret one instruction at a time.  Each
straight-line run of instructions -- from a start pc to the first
control transfer or ``halt`` -- is translated, the first time the run is
entered in a call, into one Python function built from fixed
per-opcode templates (:data:`_TEMPLATES`), and a dispatch then runs a
whole block.  The generated source holds only those templates, register
ids checked to be ints in 0-63 (as literal list indices) and pcs.  Every
other value the templates need -- immediates, a branch target that is
not an int, and the register field of an instruction whose operand is
not a valid id -- comes from the block's constants, which are bound as
default arguments, never written into the source with ``repr``: floats
such as inf and nan have no literal, and executables are unpickled from
the artifact store.  An instruction with an invalid operand reads the
field off the instruction at run time, so it fails, or aliases another
register, exactly as one-at-a-time execution does.  Translations live
only for the call; nothing is attached to the :class:`Executable`.

A block records one effective address per memory instruction and the
dispatch loop one start pc per block, two flat lists with no container
per instruction; :func:`_pack` expands them into the per-instruction
arrays with numpy.

The templates share their operator semantics with the constant folder
through :mod:`repro.ir.semantics`, so optimizing and non-optimizing
builds of a program are architecturally indistinguishable by
construction -- the property the semantics-preservation test suite
checks.  ``tests/func_reference.py`` is a per-instruction interpreter
of the same semantics, the oracle of the differential tests.
"""

from __future__ import annotations

import operator
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.codegen.isa import RA, RV, SP
from repro.codegen.linker import Executable
from repro.ir.semantics import eval_int_binop, wrap_int
from repro.sim.tracepack import PackedTrace


class SimulationError(Exception):
    """The program misbehaved (ran too long, bad pc, ...)."""


@dataclass
class FunctionalResult:
    """Outcome of a functional run."""

    #: Value returned by main (the program checksum).
    return_value: int
    #: Dynamic instruction count.
    instruction_count: int
    #: The dynamic trace, when collected.
    trace: Optional[PackedTrace]


#: What a ``halt`` block returns in place of a next pc.
_HALT = object()

# Template placeholders: {d} {a} {b} are the integer-register forms of
# the destination and the two sources (``r[5]``), {fd} {fa} {fb} their
# float-register forms (``f[3]`` for register 35), {c} the immediate,
# {t} the target pc and {pc1} the fall-through pc.  ``v`` and ``e`` are
# temporaries; ``e`` holds an effective address.
_WRAP = (
    "if v > 9223372036854775807 or v < -9223372036854775808:\n"
    "    v = wrap(v)\n"
)
_CMP = "{d} = 1 if {a} %s {b} else 0"
_FCMP = "{d} = 1 if {fa} %s {fb} else 0"

#: Opcode -> statement template.  A template that ends its block
#: returns the next pc (or ``HALT``).
_TEMPLATES: Dict[str, str] = {
    "addi": "v = {a} + {c}\n" + _WRAP + "{d} = v",
    "add": "v = {a} + {b}\n" + _WRAP + "{d} = v",
    "sub": "v = {a} - {b}\n" + _WRAP + "{d} = v",
    "ld": (
        "e = {a} + {c}\n"
        "v = mem_get(e, 0)\n"
        "{d} = v if isinstance(v, int) else wrap(int(v))"
    ),
    "st": "e = {a} + {c}\nmem[e] = {b}",
    "mov": "{d} = {a}",
    "li": "{d} = {c}",
    "la": "{d} = {c}",
    "mul": "{d} = wrap({a} * {b})",
    "div": "{d} = binop('div', {a}, {b})",
    "mod": "{d} = binop('mod', {a}, {b})",
    "and": "{d} = {a} & {b}",
    "or": "{d} = {a} | {b}",
    "xor": "{d} = {a} ^ {b}",
    "shl": "{d} = wrap({a} << ({b} & 63))",
    "shr": "{d} = {a} >> ({b} & 63)",
    "neg": "{d} = wrap(-{a})",
    "not": "{d} = 1 if {a} == 0 else 0",
    "cmpeq": _CMP % "==",
    "cmpne": _CMP % "!=",
    "cmplt": _CMP % "<",
    "cmple": _CMP % "<=",
    "cmpgt": _CMP % ">",
    "cmpge": _CMP % ">=",
    "fld": (
        "e = {a} + {c}\n"
        "v = mem_get(e, 0.0)\n"
        "{fd} = v if isinstance(v, float) else float(v)"
    ),
    "fst": "e = {a} + {c}\nmem[e] = {fb}",
    "fmov": "{fd} = {fa}",
    "lif": "{fd} = {c}",
    "fadd": "{fd} = {fa} + {fb}",
    "fsub": "{fd} = {fa} - {fb}",
    "fmul": "{fd} = {fa} * {fb}",
    "fdiv": "v = {fb}\n{fd} = {fa} / v if v != 0.0 else 0.0",
    "fneg": "{fd} = -{fa}",
    "itof": "{fd} = float({a})",
    "ftoi": "{d} = wrap(int({fa}))",
    "fcmpeq": _FCMP % "==",
    "fcmpne": _FCMP % "!=",
    "fcmplt": _FCMP % "<",
    "fcmple": _FCMP % "<=",
    "fcmpgt": _FCMP % ">",
    "fcmpge": _FCMP % ">=",
    "pf": "e = {a} + {c}",
    "nop": "",
    "bnez": "return {t} if {a} != 0 else {pc1}",
    "beqz": "return {t} if {a} == 0 else {pc1}",
    "j": "return {t}",
    "jal": f"r[{RA}] = {{pc1}}\nreturn {{t}}",
    "jr": f"return r[{RA}]",
    "halt": "return HALT",
}

#: Opcodes whose trace entry carries an effective address.
_EA_OPS = frozenset({"ld", "st", "fld", "fst", "pf"})
#: Opcodes that end a block.
_BLOCK_ENDS = frozenset({"bnez", "beqz", "j", "jal", "jr", "halt"})
#: Opcodes that write integer register {d} (r0 must read 0 after them).
_INT_DST_OPS = frozenset(op for op, text in _TEMPLATES.items() if "{d} =" in text)

#: Names every block function takes, bound per call by :func:`execute`.
_ENV = "r, f, mem, mem_get, ea, wrap, binop, isinstance, float, int, HALT"


def _reg_id(value) -> bool:
    """A register id that may be written into generated source."""
    return type(value) is int and 0 <= value < 64


class _Translator:
    """Builds the block functions of one :func:`execute` call."""

    def __init__(self, exe: Executable, env: Tuple, collect_trace: bool):
        self.instrs = exe.instrs
        self.env = env
        self.collect_trace = collect_trace
        #: Translated block length per start pc, and whether each
        #: translated pc records an effective address (for :func:`_pack`).
        self.lengths = [0] * len(self.instrs)
        self.has_ea = bytearray(len(self.instrs))
        self._namespace: Dict[str, object] = {}

    def block(self, pc, limit: Optional[int] = None) -> Tuple[Callable, int]:
        """Translate the run starting at ``pc`` (at most ``limit``
        instructions) into ``(function, length)``.

        Raises what one-at-a-time execution raises on reaching ``pc``:
        ``pc`` out of range, or an unknown opcode at ``pc``.  A run ends
        before an unknown opcode or the end of the text; the error is
        raised when the dispatch reaches that pc.
        """
        instrs = self.instrs
        n_instrs = len(instrs)
        if pc < 0 or pc >= n_instrs:
            raise SimulationError(f"pc {pc} out of range")
        first = instrs[pc]
        start = operator.index(pc)  # a real int: pcs go into the source
        if _template(first) is None:
            raise SimulationError(f"unknown opcode {first.op!r} at pc {pc}")
        consts: List[object] = []
        lines: List[str] = []
        at = start
        end = n_instrs if limit is None else min(n_instrs, start + limit)
        ended = False
        while at < end and not ended:
            instr = instrs[at]
            template = _template(instr)
            if template is None:
                break
            lines.extend(self._emit(instr, template, at, consts).split("\n"))
            if instr.op in _EA_OPS:
                self.has_ea[at] = 1
            ended = instr.op in _BLOCK_ENDS
            at += 1
        if not ended:
            lines.append(f"return {at}")
        params = _ENV + "".join(f", c{k}" for k in range(len(consts)))
        source = f"def block({params}):\n    " + "\n    ".join(
            line for line in lines if line
        )
        exec(compile(source, f"<block at pc {start}>", "exec"), self._namespace)
        fn = self._namespace.pop("block")
        fn.__defaults__ = self.env + tuple(consts)
        length = at - start
        if limit is None:
            self.lengths[start] = length
        return fn, length

    def _emit(self, instr, template: str, pc: int, consts: List[object]) -> str:
        """One instruction's statements."""

        def const(value) -> str:
            consts.append(value)
            return f"c{len(consts) - 1}"

        srcs = instr.srcs if type(instr.srcs) is tuple else ()
        slots = {}
        me = None  # the instruction itself, once an operand reads it
        for key, value, name in (
            ("d", instr.dst, "dst"),
            ("a", srcs[0] if len(srcs) > 0 else None, "srcs[0]"),
            ("b", srcs[1] if len(srcs) > 1 else None, "srcs[1]"),
        ):
            if _reg_id(value):
                slots[key] = f"r[{value}]"
                slots["f" + key] = f"f[{value - 32}]"
            elif "{%s}" % key in template or "{f%s}" % key in template:
                me = me or const(instr)
                slots[key] = f"r[{me}.{name}]"
                slots["f" + key] = f"f[{me}.{name} - 32]"
        if "{c}" in template:
            slots["c"] = const(instr.imm)
        if "{t}" in template:
            target = instr.target_pc
            slots["t"] = str(target) if type(target) is int else const(target)
        text = template.format(pc1=pc + 1, **slots)
        op = instr.op
        if self.collect_trace and op in _EA_OPS:
            text += "\nea(e)"
        if op in _INT_DST_OPS and (not _reg_id(instr.dst) or instr.dst == 0):
            text += "\nr[0] = 0"  # r0 stays hardwired
        return text


def _template(instr) -> Optional[str]:
    op = instr.op
    return _TEMPLATES.get(op) if isinstance(op, str) else None


def _exceeded(max_instructions: int) -> SimulationError:
    return SimulationError(f"exceeded {max_instructions} instructions (infinite loop?)")


def _pack(translator: _Translator, starts: List[int], eas: List[int]) -> PackedTrace:
    """Per-instruction arrays from the block start pcs and the memory
    instructions' effective addresses."""
    start = np.array(starts, dtype=np.int64)
    length = np.array(translator.lengths, dtype=np.int64)[start]
    end = np.cumsum(length)
    n = int(end[-1])
    pcs = np.repeat(start - (end - length), length) + np.arange(n, dtype=np.int64)
    has_ea = np.frombuffer(translator.has_ea, dtype=np.uint8).view(bool)[pcs]
    out = np.full(n, -1, dtype=np.int64)
    out[has_ea] = np.array(eas, dtype=np.int64)
    return PackedTrace(pcs, out)


def execute(
    exe: Executable,
    collect_trace: bool = True,
    max_instructions: int = 50_000_000,
) -> FunctionalResult:
    """Run the program to completion."""
    iregs = [0] * 32
    fregs = [0.0] * 32
    iregs[SP] = exe.stack_base
    mem: Dict[int, object] = {}
    for sym in exe.symbols.values():
        if sym.init:
            for i, value in enumerate(sym.init):
                mem[sym.address + 8 * i] = value

    eas: List[int] = []
    starts: List[int] = []
    env = (
        iregs,
        fregs,
        mem,
        mem.get,
        eas.append,
        wrap_int,
        eval_int_binop,
        isinstance,
        float,
        int,
        _HALT,
    )
    translator = _Translator(exe, env, collect_trace)
    translate = translator.block
    blocks: Dict[object, Tuple[Callable, int]] = {}
    get = blocks.get
    # Without a trace the start pcs go to a C-level sink that keeps none.
    record = starts.append if collect_trace else deque(maxlen=0).append
    count = 0
    pc = exe.entry_pc
    while True:
        entry = get(pc)
        if entry is None:
            if pc is _HALT:
                break
            if count >= max_instructions:
                raise _exceeded(max_instructions)
            entry = blocks[pc] = translate(pc)
        fn, length = entry
        if count + length > max_instructions:
            # Run the instructions that still fit -- they may raise
            # first, as they would one at a time -- then stop.
            if count < max_instructions:
                translate(pc, max_instructions - count)[0]()
            raise _exceeded(max_instructions)
        count += length
        record(pc)
        pc = fn()

    return FunctionalResult(
        return_value=iregs[RV],
        instruction_count=count,
        trace=_pack(translator, starts, eas) if collect_trace else None,
    )

"""Reference functional simulator: one instruction per loop iteration.

The oracle the differential tests (``tests/test_sim_func.py``) compare
the block-translated :func:`repro.sim.func.execute` against: the same
semantics, decoded and dispatched one instruction at a time through an
if-chain over the opcode.  It returns the trace as a list of
``(pc, effective_address)`` pairs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.codegen.isa import RA, RV, SP, ZERO
from repro.codegen.linker import Executable
from repro.ir.semantics import eval_int_binop, wrap_int
from repro.sim.func import FunctionalResult, SimulationError

_MASK = (1 << 64) - 1
_SIGN = 1 << 63


def execute_reference(
    exe: Executable,
    collect_trace: bool = True,
    max_instructions: int = 50_000_000,
) -> FunctionalResult:
    """Run the program to completion, one instruction per iteration."""
    iregs = [0] * 32
    fregs = [0.0] * 32
    iregs[SP] = exe.stack_base
    mem: Dict[int, object] = {}
    for sym in exe.symbols.values():
        if sym.init:
            for i, value in enumerate(sym.init):
                mem[sym.address + 8 * i] = value

    instrs = exe.instrs
    n_instrs = len(instrs)
    trace: Optional[List[Tuple[int, int]]] = [] if collect_trace else None
    pc = exe.entry_pc
    count = 0
    mem_get = mem.get

    while True:
        if count >= max_instructions:
            raise SimulationError(
                f"exceeded {max_instructions} instructions (infinite loop?)"
            )
        if pc < 0 or pc >= n_instrs:
            raise SimulationError(f"pc {pc} out of range")
        instr = instrs[pc]
        op = instr.op
        count += 1
        ea = -1
        next_pc = pc + 1

        if op == "addi":
            v = iregs[instr.srcs[0]] + instr.imm
            if v > _SIGN - 1 or v < -_SIGN:
                v = wrap_int(v)
            iregs[instr.dst] = v
        elif op == "add":
            v = iregs[instr.srcs[0]] + iregs[instr.srcs[1]]
            if v > _SIGN - 1 or v < -_SIGN:
                v = wrap_int(v)
            iregs[instr.dst] = v
        elif op == "ld":
            ea = iregs[instr.srcs[0]] + instr.imm
            v = mem_get(ea, 0)
            iregs[instr.dst] = v if isinstance(v, int) else wrap_int(int(v))
        elif op == "st":
            ea = iregs[instr.srcs[0]] + instr.imm
            mem[ea] = iregs[instr.srcs[1]]
        elif op == "mov":
            iregs[instr.dst] = iregs[instr.srcs[0]]
        elif op == "li":
            iregs[instr.dst] = instr.imm
        elif op == "la":
            iregs[instr.dst] = instr.imm
        elif op == "bnez":
            if iregs[instr.srcs[0]] != 0:
                next_pc = instr.target_pc
        elif op == "beqz":
            if iregs[instr.srcs[0]] == 0:
                next_pc = instr.target_pc
        elif op == "j":
            next_pc = instr.target_pc
        elif op == "sub":
            v = iregs[instr.srcs[0]] - iregs[instr.srcs[1]]
            if v > _SIGN - 1 or v < -_SIGN:
                v = wrap_int(v)
            iregs[instr.dst] = v
        elif op == "mul":
            iregs[instr.dst] = wrap_int(
                iregs[instr.srcs[0]] * iregs[instr.srcs[1]]
            )
        elif op in ("div", "mod"):
            iregs[instr.dst] = eval_int_binop(
                op, iregs[instr.srcs[0]], iregs[instr.srcs[1]]
            )
        elif op == "and":
            iregs[instr.dst] = iregs[instr.srcs[0]] & iregs[instr.srcs[1]]
        elif op == "or":
            iregs[instr.dst] = iregs[instr.srcs[0]] | iregs[instr.srcs[1]]
        elif op == "xor":
            iregs[instr.dst] = iregs[instr.srcs[0]] ^ iregs[instr.srcs[1]]
        elif op == "shl":
            iregs[instr.dst] = wrap_int(
                iregs[instr.srcs[0]] << (iregs[instr.srcs[1]] & 63)
            )
        elif op == "shr":
            iregs[instr.dst] = iregs[instr.srcs[0]] >> (
                iregs[instr.srcs[1]] & 63
            )
        elif op == "neg":
            iregs[instr.dst] = wrap_int(-iregs[instr.srcs[0]])
        elif op == "not":
            iregs[instr.dst] = 1 if iregs[instr.srcs[0]] == 0 else 0
        elif op == "cmpeq":
            iregs[instr.dst] = 1 if iregs[instr.srcs[0]] == iregs[instr.srcs[1]] else 0
        elif op == "cmpne":
            iregs[instr.dst] = 1 if iregs[instr.srcs[0]] != iregs[instr.srcs[1]] else 0
        elif op == "cmplt":
            iregs[instr.dst] = 1 if iregs[instr.srcs[0]] < iregs[instr.srcs[1]] else 0
        elif op == "cmple":
            iregs[instr.dst] = 1 if iregs[instr.srcs[0]] <= iregs[instr.srcs[1]] else 0
        elif op == "cmpgt":
            iregs[instr.dst] = 1 if iregs[instr.srcs[0]] > iregs[instr.srcs[1]] else 0
        elif op == "cmpge":
            iregs[instr.dst] = 1 if iregs[instr.srcs[0]] >= iregs[instr.srcs[1]] else 0
        elif op == "fld":
            ea = iregs[instr.srcs[0]] + instr.imm
            v = mem_get(ea, 0.0)
            fregs[instr.dst - 32] = v if isinstance(v, float) else float(v)
        elif op == "fst":
            ea = iregs[instr.srcs[0]] + instr.imm
            mem[ea] = fregs[instr.srcs[1] - 32]
        elif op == "fmov":
            fregs[instr.dst - 32] = fregs[instr.srcs[0] - 32]
        elif op == "lif":
            fregs[instr.dst - 32] = instr.imm
        elif op == "fadd":
            fregs[instr.dst - 32] = fregs[instr.srcs[0] - 32] + fregs[instr.srcs[1] - 32]
        elif op == "fsub":
            fregs[instr.dst - 32] = fregs[instr.srcs[0] - 32] - fregs[instr.srcs[1] - 32]
        elif op == "fmul":
            fregs[instr.dst - 32] = fregs[instr.srcs[0] - 32] * fregs[instr.srcs[1] - 32]
        elif op == "fdiv":
            b = fregs[instr.srcs[1] - 32]
            fregs[instr.dst - 32] = (
                fregs[instr.srcs[0] - 32] / b if b != 0.0 else 0.0
            )
        elif op == "fneg":
            fregs[instr.dst - 32] = -fregs[instr.srcs[0] - 32]
        elif op == "itof":
            fregs[instr.dst - 32] = float(iregs[instr.srcs[0]])
        elif op == "ftoi":
            iregs[instr.dst] = wrap_int(int(fregs[instr.srcs[0] - 32]))
        elif op == "fcmpeq":
            iregs[instr.dst] = 1 if fregs[instr.srcs[0] - 32] == fregs[instr.srcs[1] - 32] else 0
        elif op == "fcmpne":
            iregs[instr.dst] = 1 if fregs[instr.srcs[0] - 32] != fregs[instr.srcs[1] - 32] else 0
        elif op == "fcmplt":
            iregs[instr.dst] = 1 if fregs[instr.srcs[0] - 32] < fregs[instr.srcs[1] - 32] else 0
        elif op == "fcmple":
            iregs[instr.dst] = 1 if fregs[instr.srcs[0] - 32] <= fregs[instr.srcs[1] - 32] else 0
        elif op == "fcmpgt":
            iregs[instr.dst] = 1 if fregs[instr.srcs[0] - 32] > fregs[instr.srcs[1] - 32] else 0
        elif op == "fcmpge":
            iregs[instr.dst] = 1 if fregs[instr.srcs[0] - 32] >= fregs[instr.srcs[1] - 32] else 0
        elif op == "jal":
            iregs[RA] = pc + 1
            next_pc = instr.target_pc
        elif op == "jr":
            next_pc = iregs[RA]
        elif op == "pf":
            ea = iregs[instr.srcs[0]] + instr.imm
        elif op == "nop":
            pass
        elif op == "halt":
            if trace is not None:
                trace.append((pc, -1))
            return FunctionalResult(
                return_value=iregs[RV],
                instruction_count=count,
                trace=trace,
            )
        else:
            raise SimulationError(f"unknown opcode {op!r} at pc {pc}")

        iregs[ZERO] = 0  # r0 stays hardwired
        if trace is not None:
            trace.append((pc, ea))
        pc = next_pc

"""SimpleRISC: the target instruction set.

A load/store RISC with 32 integer and 32 floating-point registers,
modelled on the Alpha that the paper's SimpleScalar backend targets.

Register identifiers are small ints: 0-31 are the integer registers
(``r0`` hardwired to zero), 32-63 the float registers.  Conventions:

================  ====================================================
``r0``            hardwired zero
``r1``            integer return value
``r2``-``r7``     integer arguments
``r8``-``r15``    caller-saved temporaries
``r16``-``r26``   callee-saved
``r27``/``r28``   reserved assembler scratch (spill reloads)
``r29``           frame pointer (allocatable under -fomit-frame-pointer)
``r30``           stack pointer
``r31``           return address
``f1``            float return value; ``f2``-``f7`` float arguments
``f8``-``f15``    caller-saved; ``f16``-``f29`` callee-saved
``f30``/``f31``   reserved assembler scratch
================  ====================================================

Every instruction is one word; instruction addresses advance by 4 bytes
(so an I-cache block holds ``block_size / 4`` instructions).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

# ----------------------------------------------------------------------
# Registers
# ----------------------------------------------------------------------
N_INT_REGS = 32
N_FP_REGS = 32

ZERO = 0
RV = 1
ARG_REGS = tuple(range(2, 8))
CALLER_SAVED_INT = tuple(range(8, 16))
CALLEE_SAVED_INT = tuple(range(16, 27))
SCRATCH_INT = (27, 28)
FP_REG = 29
SP = 30
RA = 31

FRV = 32 + 1
FARG_REGS = tuple(range(32 + 2, 32 + 8))
CALLER_SAVED_FP = tuple(range(32 + 8, 32 + 16))
CALLEE_SAVED_FP = tuple(range(32 + 16, 32 + 30))
SCRATCH_FP = (32 + 30, 32 + 31)

#: A register id: 0-31 int, 32-63 float.
Reg = int


def is_fp_reg(reg: Reg) -> bool:
    return reg >= 32


def reg_name(reg: Reg) -> str:
    if reg < 32:
        return INT_REG_NAMES[reg]
    return FP_REG_NAMES[reg - 32]


INT_REG_NAMES = [f"r{i}" for i in range(32)]
INT_REG_NAMES[SP] = "sp"
INT_REG_NAMES[RA] = "ra"
INT_REG_NAMES[FP_REG] = "fp"
FP_REG_NAMES = [f"f{i}" for i in range(32)]


class OpClass(enum.Enum):
    """Functional-unit class of an instruction (SimpleScalar-style)."""

    IALU = "ialu"
    IMULT = "imult"
    FPALU = "fpalu"
    FPMULT = "fpmult"
    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"  # conditional
    JUMP = "jump"  # unconditional, direct
    CALL = "call"
    RET = "ret"
    PREFETCH = "prefetch"
    NOP = "nop"

    @property
    def is_control(self) -> bool:
        return self in (
            OpClass.BRANCH,
            OpClass.JUMP,
            OpClass.CALL,
            OpClass.RET,
        )


#: opcode -> OpClass for every opcode in the ISA.
OPCODE_CLASS = {
    # Integer ALU
    "li": OpClass.IALU,
    "la": OpClass.IALU,
    "mov": OpClass.IALU,
    "add": OpClass.IALU,
    "addi": OpClass.IALU,
    "sub": OpClass.IALU,
    "and": OpClass.IALU,
    "or": OpClass.IALU,
    "xor": OpClass.IALU,
    "shl": OpClass.IALU,
    "shr": OpClass.IALU,
    "neg": OpClass.IALU,
    "not": OpClass.IALU,
    "cmpeq": OpClass.IALU,
    "cmpne": OpClass.IALU,
    "cmplt": OpClass.IALU,
    "cmple": OpClass.IALU,
    "cmpgt": OpClass.IALU,
    "cmpge": OpClass.IALU,
    # Integer multiply/divide
    "mul": OpClass.IMULT,
    "div": OpClass.IMULT,
    "mod": OpClass.IMULT,
    # Float ALU
    "lif": OpClass.FPALU,
    "fmov": OpClass.FPALU,
    "fadd": OpClass.FPALU,
    "fsub": OpClass.FPALU,
    "fneg": OpClass.FPALU,
    "itof": OpClass.FPALU,
    "ftoi": OpClass.FPALU,
    "fcmpeq": OpClass.FPALU,
    "fcmpne": OpClass.FPALU,
    "fcmplt": OpClass.FPALU,
    "fcmple": OpClass.FPALU,
    "fcmpgt": OpClass.FPALU,
    "fcmpge": OpClass.FPALU,
    # Float multiply/divide
    "fmul": OpClass.FPMULT,
    "fdiv": OpClass.FPMULT,
    # Memory
    "ld": OpClass.LOAD,
    "fld": OpClass.LOAD,
    "st": OpClass.STORE,
    "fst": OpClass.STORE,
    "pf": OpClass.PREFETCH,
    # Control
    "beqz": OpClass.BRANCH,
    "bnez": OpClass.BRANCH,
    "j": OpClass.JUMP,
    "jal": OpClass.CALL,
    "jr": OpClass.RET,
    "nop": OpClass.NOP,
    "halt": OpClass.NOP,
}


@dataclass
class MachineInstr:
    """One machine instruction.

    ``dst`` and ``srcs`` hold register ids (virtual ids >= 64 before
    register allocation).  ``imm`` is the immediate (load/store offset,
    li constant, addi addend).  ``target`` is a label before linking and
    is resolved into ``target_pc`` by the linker.
    """

    op: str
    dst: Optional[Reg] = None
    srcs: Tuple[Reg, ...] = ()
    imm: Union[int, float, None] = None
    target: Optional[str] = None
    #: Filled by the linker for control transfers.
    target_pc: Optional[int] = None

    @property
    def op_class(self) -> OpClass:
        return OPCODE_CLASS[self.op]

    def regs_read(self) -> Tuple[Reg, ...]:
        return self.srcs

    def regs_written(self) -> Tuple[Reg, ...]:
        cls = self.op_class
        extra: Tuple[Reg, ...] = ()
        if cls is OpClass.CALL:
            extra = (RA,)
        if self.dst is None:
            return extra
        return (self.dst,) + extra

    def __repr__(self) -> str:
        return format_instr(self)


def format_instr(instr: MachineInstr) -> str:
    """Assembly-style rendering (virtual regs appear as ``v<n>``)."""

    def rn(reg: Reg) -> str:
        if reg >= 64:
            return f"v{reg}"
        return reg_name(reg)

    op = instr.op
    cls = instr.op_class
    if op in ("li", "lif"):
        return f"{op} {rn(instr.dst)}, {instr.imm}"
    if op == "la":
        return f"la {rn(instr.dst)}, {instr.target or instr.imm}"
    if cls is OpClass.LOAD:
        return f"{op} {rn(instr.dst)}, [{rn(instr.srcs[0])} + {instr.imm}]"
    if cls is OpClass.STORE:
        return f"{op} [{rn(instr.srcs[0])} + {instr.imm}], {rn(instr.srcs[1])}"
    if cls is OpClass.PREFETCH:
        return f"pf [{rn(instr.srcs[0])} + {instr.imm}]"
    if cls is OpClass.BRANCH:
        return f"{op} {rn(instr.srcs[0])}, {instr.target or instr.target_pc}"
    if cls is OpClass.JUMP or cls is OpClass.CALL:
        return f"{op} {instr.target or instr.target_pc}"
    if cls is OpClass.RET:
        return "jr ra"
    if op == "addi":
        return f"addi {rn(instr.dst)}, {rn(instr.srcs[0])}, {instr.imm}"
    parts = ", ".join(rn(r) for r in instr.srcs)
    if instr.dst is not None:
        return f"{op} {rn(instr.dst)}{', ' if parts else ''}{parts}"
    return f"{op} {parts}"

"""Differential tests of the block-translated functional simulator.

:func:`repro.sim.func.execute` translates straight-line runs into
Python functions; ``tests/func_reference.py`` keeps the per-instruction
interpreter it replaced.  Both must agree exactly -- return value,
instruction count, every trace pc and effective address -- on generated
programs of every workgen family and on built-in workloads, compiled
with seeded random flag vectors at several issue widths, and on
hand-built executables for the edge cases the translation has to get
right: writes to ``r0``, 64-bit wrap-around, ``fdiv`` by zero, jumps
into the middle of a translated block, bad pcs, unknown opcodes,
malformed operands and the instruction limit.  An error must be the
same exception with the same message, raised at the same instruction.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.lint import random_config
from repro.codegen import compile_module
from repro.codegen.isa import MachineInstr
from repro.codegen.linker import DATA_BASE, Executable, GlobalSymbol
from repro.minic import compile_source
from repro.sim.func import SimulationError, execute
from repro.sim.tracepack import PackedTrace
from repro.workgen import default_grammar
from repro.workloads import get_workload
from tests.func_reference import execute_reference

GRAMMAR = default_grammar()


def _outcome(run, exe, **kwargs):
    """What a simulator did: its result with the trace as two arrays,
    or the exception it raised."""
    try:
        result = run(exe, **kwargs)
    except Exception as exc:  # the comparison is the point
        return ("raised", type(exc), str(exc))
    trace = result.trace
    if isinstance(trace, list):  # the reference's (pc, ea) pairs
        trace = PackedTrace.from_pairs(trace)
    if trace is not None:
        trace = (trace.pcs, trace.eas)
    return ("ok", result.return_value, result.instruction_count, trace)


def _assert_same(exe, **kwargs):
    """``execute`` and the reference agree on ``exe``; returns the
    outcome."""
    new = _outcome(execute, exe, **kwargs)
    ref = _outcome(execute_reference, exe, **kwargs)
    assert new[:3] == ref[:3]
    if new[0] == "ok":
        if ref[3] is None:
            assert new[3] is None
        else:
            np.testing.assert_array_equal(new[3][0], ref[3][0])
            np.testing.assert_array_equal(new[3][1], ref[3][1])
    return new


def _assert_program_matches(exe):
    result = execute(exe)
    ref = execute_reference(exe)
    assert isinstance(result.trace, PackedTrace)
    assert result.return_value == ref.return_value
    assert result.instruction_count == ref.instruction_count
    np.testing.assert_array_equal(
        result.trace.pcs, np.array([pc for pc, _ in ref.trace], dtype=np.int64)
    )
    np.testing.assert_array_equal(
        result.trace.eas, np.array([ea for _, ea in ref.trace], dtype=np.int64)
    )
    untraced = execute(exe, collect_trace=False)
    assert untraced.trace is None
    assert untraced.return_value == ref.return_value
    assert untraced.instruction_count == ref.instruction_count


# ----------------------------------------------------------------------
# Compiled programs
# ----------------------------------------------------------------------
@settings(max_examples=36, deadline=None)
@given(
    family=st.sampled_from(GRAMMAR.families),
    program_seed=st.integers(0, 2**31 - 2),
    flag_seed=st.integers(0, 2**32 - 1),
    issue_width=st.sampled_from([2, 4, 8]),
)
def test_generated_programs_match_reference(
    family, program_seed, flag_seed, issue_width
):
    program = GRAMMAR.generate(family, program_seed)
    config = random_config(random.Random(flag_seed))
    exe = compile_module(
        compile_source(program.source), config, issue_width=issue_width
    )
    _assert_program_matches(exe)


@pytest.mark.parametrize(
    "workload, issue_width", [("mcf", 2), ("art", 4), ("vortex", 8)]
)
def test_builtin_workloads_match_reference(workload, issue_width):
    config = random_config(random.Random(f"func-{workload}"))
    exe = compile_module(
        get_workload(workload).module("train"), config, issue_width=issue_width
    )
    _assert_program_matches(exe)


# ----------------------------------------------------------------------
# Hand-built executables
# ----------------------------------------------------------------------
def _exe(instrs, data=()):
    """An executable of ``instrs`` with words ``data`` at DATA_BASE."""
    symbols = {}
    if data:
        symbols["data"] = GlobalSymbol(
            name="data",
            address=DATA_BASE,
            count=len(data),
            is_float=any(isinstance(v, float) for v in data),
            init=list(data),
        )
    return Executable(
        instrs=list(instrs),
        entry_pc=0,
        symbols=symbols,
        function_entries={"main": 0},
    )


def ins(op, dst=None, srcs=(), imm=None, target_pc=None):
    return MachineInstr(op, dst=dst, srcs=srcs, imm=imm, target_pc=target_pc)


HALT = ins("halt")
#: Load the data segment's base address into r9.
BASE = ins("la", dst=9, imm=DATA_BASE)
F = 32  # float register ids start here

MAX = (1 << 63) - 1
MIN = -(1 << 63)


def test_writes_to_r0_are_discarded():
    exe = _exe(
        [
            BASE,
            ins("li", dst=0, imm=7),
            ins("mov", dst=2, srcs=(0,)),
            ins("addi", dst=0, srcs=(9,), imm=5),
            ins("add", dst=3, srcs=(0, 2)),
            ins("ld", dst=0, srcs=(9,), imm=0),  # a float-valued word
            ins("cmpeq", dst=0, srcs=(0, 0)),
            ins("ld", dst=4, srcs=(9,), imm=0),
            ins("add", dst=1, srcs=(0, 3)),
            ins("add", dst=1, srcs=(1, 4)),
            HALT,
        ],
        data=[2.75],
    )
    outcome = _assert_same(exe)
    assert outcome[1] == 2  # r0 read 0 throughout; r4 = int(2.75)


@pytest.mark.parametrize("word", [math.inf, -math.inf, math.nan])
def test_load_of_unrepresentable_float_raises_like_reference(word):
    """``ld`` into r0 still converts the word, so inf and nan raise."""
    exe = _exe([BASE, ins("ld", dst=0, srcs=(9,), imm=0), HALT], data=[word])
    outcome = _assert_same(exe)
    assert outcome[0] == "raised"


def test_64_bit_wrap():
    exe = _exe(
        [
            ins("li", dst=2, imm=MAX),
            ins("li", dst=3, imm=MIN),
            ins("li", dst=4, imm=3),
            ins("addi", dst=10, srcs=(2,), imm=1),
            ins("add", dst=11, srcs=(2, 2)),
            ins("sub", dst=12, srcs=(3, 4)),
            ins("mul", dst=13, srcs=(2, 4)),
            ins("shl", dst=14, srcs=(2, 4)),
            ins("neg", dst=15, srcs=(3,)),
            ins("addi", dst=16, srcs=(3,), imm=-1),
            ins("div", dst=17, srcs=(3, 0)),
            ins("mod", dst=18, srcs=(2, 4)),
            ins("li", dst=5, imm=40),
            ins("li", dst=6, imm=70),  # shift amounts use the low 6 bits
            ins("shr", dst=19, srcs=(3, 5)),
            ins("shr", dst=20, srcs=(2, 6)),
            ins("shl", dst=21, srcs=(4, 5)),
            ins("shl", dst=22, srcs=(4, 6)),
        ]
        + [ins("xor", dst=1, srcs=(1, r)) for r in range(10, 23)]
        + [HALT]
    )
    _assert_same(exe)
    # The wrapped values themselves, not just agreement.
    probe = _exe(
        [ins("li", dst=2, imm=MAX), ins("addi", dst=1, srcs=(2,), imm=1), HALT]
    )
    assert execute(probe).return_value == MIN
    probe = _exe([ins("li", dst=2, imm=MIN), ins("neg", dst=1, srcs=(2,)), HALT])
    assert execute(probe).return_value == MIN


@pytest.mark.parametrize("pair", [(3, 3), (2, 7), (7, 2), (-5, 4)])
def test_every_comparison(pair):
    """Each compare opcode, integer and float, on one operand pair; the
    results are packed into distinct bits of the return value."""
    lo, hi = pair
    body = [
        ins("li", dst=2, imm=lo),
        ins("li", dst=3, imm=hi),
        ins("itof", dst=F + 2, srcs=(2,)),
        ins("itof", dst=F + 3, srcs=(3,)),
    ]
    ops = ["cmpeq", "cmpne", "cmplt", "cmple", "cmpgt", "cmpge"]
    ops += ["f" + op for op in ops]
    for bit, op in enumerate(ops):
        srcs = (F + 2, F + 3) if op.startswith("f") else (2, 3)
        body += [
            ins(op, dst=4, srcs=srcs),
            ins("li", dst=5, imm=bit),
            ins("shl", dst=4, srcs=(4, 5)),
            ins("or", dst=1, srcs=(1, 4)),
        ]
    body += [ins("not", dst=6, srcs=(2,)), ins("add", dst=1, srcs=(1, 6)), HALT]
    value = _assert_same(_exe(body))[1]
    expect = [lo == hi, lo != hi, lo < hi, lo <= hi, lo > hi, lo >= hi] * 2
    assert value == sum(bit << i for i, bit in enumerate(expect)) + (lo == 0)


def test_fdiv_by_zero_is_zero():
    exe = _exe(
        [
            ins("lif", dst=F + 1, imm=3.5),
            ins("lif", dst=F + 2, imm=0.0),
            ins("lif", dst=F + 3, imm=-0.0),
            ins("fdiv", dst=F + 4, srcs=(F + 1, F + 2)),
            ins("fdiv", dst=F + 5, srcs=(F + 1, F + 3)),
            ins("fdiv", dst=F + 6, srcs=(F + 1, F + 1)),
            ins("fadd", dst=F + 7, srcs=(F + 4, F + 5)),
            ins("fadd", dst=F + 7, srcs=(F + 7, F + 6)),
            ins("ftoi", dst=1, srcs=(F + 7,)),
            HALT,
        ]
    )
    assert _assert_same(exe)[1] == 1


def test_nonfinite_immediates_and_ftoi():
    """inf and nan immediates reach the registers (they have no literal
    form); converting them to an int raises as before."""
    exe = _exe(
        [
            ins("lif", dst=F + 1, imm=math.inf),
            ins("lif", dst=F + 2, imm=math.nan),
            ins("fcmpne", dst=2, srcs=(F + 2, F + 2)),
            ins("fcmpgt", dst=3, srcs=(F + 1, F + 2)),
            ins("add", dst=1, srcs=(2, 3)),
            HALT,
        ]
    )
    assert _assert_same(exe)[1] == 1
    exe = _exe(
        [
            ins("lif", dst=F + 1, imm=math.inf),
            ins("ftoi", dst=1, srcs=(F + 1,)),
            ins("nop"),
            HALT,
        ]
    )
    assert _assert_same(exe)[:2] == ("raised", OverflowError)
    # A block that crosses the limit still runs the instructions that
    # fit, so the conversion raises first ...
    assert _assert_same(exe, max_instructions=2)[:2] == ("raised", OverflowError)
    # ... unless the limit comes before it.
    assert _assert_same(exe, max_instructions=1)[2].startswith("exceeded 1 ")


def test_immediate_is_data_not_source():
    """An immediate whose repr is Python code is stored, never run."""
    payload = "__import__('os').getpid()"
    exe = _exe([ins("li", dst=1, imm=payload), HALT])
    assert _assert_same(exe)[1] == payload


def test_jr_into_the_middle_of_a_translated_block():
    exe = _exe(
        [
            ins("li", dst=8, imm=3),
            ins("addi", dst=5, srcs=(5,), imm=1),  # re-entered from the jr
            ins("cmplt", dst=7, srcs=(5, 8)),
            ins("beqz", srcs=(7,), target_pc=6),
            ins("li", dst=31, imm=1),
            ins("jr", srcs=(31,)),
            ins("mov", dst=1, srcs=(5,)),
            HALT,
        ]
    )
    outcome = _assert_same(exe)
    assert outcome[1] == 3
    assert outcome[3][0].tolist() == [0, 1, 2, 3, 4, 5, 1, 2, 3, 4, 5, 1, 2, 3, 6, 7]


def test_calls_and_memory_trace():
    exe = _exe(
        [
            BASE,
            ins("jal", target_pc=5),
            ins("ld", dst=1, srcs=(9,), imm=8),
            ins("pf", srcs=(9,), imm=64),
            HALT,
            ins("li", dst=2, imm=41),  # callee
            ins("addi", dst=2, srcs=(2,), imm=1),
            ins("st", srcs=(9, 2), imm=8),
            ins("lif", dst=F + 1, imm=1.5),
            ins("fst", srcs=(9, F + 1), imm=16),
            ins("fld", dst=F + 2, srcs=(9,), imm=16),
            ins("jr", srcs=(31,)),
        ],
        data=[0, 0, 0.0],
    )
    outcome = _assert_same(exe)
    assert outcome[1] == 42
    eas = outcome[3][1].tolist()
    assert [ea for ea in eas if ea >= 0] == [
        DATA_BASE + 8,
        DATA_BASE + 16,
        DATA_BASE + 16,
        DATA_BASE + 8,
        DATA_BASE + 64,
    ]


@pytest.mark.parametrize(
    "instrs, message",
    [
        ([ins("li", dst=1, imm=1), ins("nop")], "pc 2 out of range"),
        ([ins("li", dst=31, imm=-4), ins("jr", srcs=(31,))], "pc -4 out of range"),
        ([ins("j", target_pc=99)], "pc 99 out of range"),
    ],
)
def test_pc_out_of_range(instrs, message):
    outcome = _assert_same(_exe(instrs))
    assert outcome == ("raised", SimulationError, message)


def test_unknown_opcode_raises_after_k_instructions():
    k = 3
    exe = _exe(
        [ins("li", dst=1, imm=1), ins("addi", dst=1, srcs=(1,), imm=1), ins("nop"),
         ins("bogus", dst=1), HALT]
    )
    assert _assert_same(exe) == (
        "raised", SimulationError, "unknown opcode 'bogus' at pc 3"
    )
    # k instructions run first: with room for only k, the limit trips.
    assert _assert_same(exe, max_instructions=k)[2] == (
        f"exceeded {k} instructions (infinite loop?)"
    )
    assert _assert_same(exe, max_instructions=k + 1)[2].startswith("unknown opcode")
    # Reached again after a block was translated around it.
    loop = _exe([ins("bnez", srcs=(0,), target_pc=0), ins("bogus")])
    assert _assert_same(loop)[2] == "unknown opcode 'bogus' at pc 1"


def test_max_instructions_boundary():
    exe = _exe(
        [
            ins("li", dst=2, imm=4),
            ins("addi", dst=2, srcs=(2,), imm=-1),  # loop body
            ins("addi", dst=1, srcs=(1,), imm=3),
            ins("bnez", srcs=(2,), target_pc=1),
            HALT,
        ]
    )
    n = execute(exe).instruction_count
    assert n == 1 + 4 * 3 + 1
    for limit in range(1, n + 2):
        outcome = _assert_same(exe, max_instructions=limit)
        if limit >= n:
            assert outcome[0] == "ok" and outcome[2] == n
        else:
            assert outcome == (
                "raised",
                SimulationError,
                f"exceeded {limit} instructions (infinite loop?)",
            )


def test_instruction_limit_stops_an_infinite_loop():
    exe = _exe([ins("j", target_pc=0)])
    assert _assert_same(exe, max_instructions=1000)[2] == (
        "exceeded 1000 instructions (infinite loop?)"
    )


@pytest.mark.parametrize(
    "bad",
    [
        ins("add", dst=1, srcs=(2,)),  # a missing source
        ins("add", dst=None, srcs=(2, 3)),  # no destination
        ins("mov", dst=1, srcs=(40,)),  # a float register as an int source
        ins("fmov", dst=5, srcs=(F + 1,)),  # an int id as a float dst (aliases)
        ins("mov", dst=-31, srcs=(2,)),  # a negative id (aliases r1)
        ins("mov", dst=1, srcs=(70,)),  # a virtual register
        ins("ld", dst=1, srcs=None, imm=0),
    ],
)
def test_malformed_operands_fail_or_alias_as_before(bad):
    """Operands that are not register ids 0-63 are read off the
    instruction at run time, exactly as the interpreter did."""
    exe = _exe(
        [ins("li", dst=2, imm=5), ins("lif", dst=F + 1, imm=2.5), bad,
         ins("fmov", dst=F + 2, srcs=(F + 5,)), ins("ftoi", dst=3, srcs=(F + 2,)),
         ins("add", dst=1, srcs=(1, 3)), HALT]
    )
    _assert_same(exe)
    _assert_same(exe, collect_trace=False)


def test_untraced_run_matches():
    exe = _exe(
        [BASE, ins("st", srcs=(9, 9), imm=0), ins("ld", dst=1, srcs=(9,), imm=0), HALT]
    )
    outcome = _assert_same(exe, collect_trace=False)
    assert outcome[1] == DATA_BASE and outcome[3] is None

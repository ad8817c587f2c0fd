"""Tests for smaller surfaces: SMARTS at interval 1, reorder polarity,
space description, disassembly."""

import numpy as np
import pytest

from repro.codegen import compile_module
from repro.ir import Branch, Cmp
from repro.minic import compile_source
from repro.opt import CompilerConfig, O2, cleanup_module, reorder_blocks
from repro.sim import MicroarchConfig, OooTimingModel
from repro.sim.func import execute
from repro.sim.smarts import smarts_simulate
from repro.space import full_space
from tests.util import ALL_PROGRAMS


class TestAdaptiveSmarts:
    def test_interval_one_is_near_exhaustive(self):
        # Needs a long enough trace that per-window pipeline-fill
        # bracketing effects amortize away.
        src = """
        int N = 4000;
        int a[4096];
        int main() {
            int i;
            int s = 0;
            for (i = 0; i < N; i = i + 1) { a[i] = i * 3; }
            for (i = 0; i < N; i = i + 1) { s = s + a[i] % 97; }
            return s;
        }
        """
        module = compile_source(src)
        exe = compile_module(module, O2)
        fr = execute(exe)
        est = smarts_simulate(exe, MicroarchConfig(), fr.trace,
                              unit_size=2000, interval=1)
        detailed = OooTimingModel(exe, MicroarchConfig()).simulate_trace(
            fr.trace
        )
        err = abs(est.estimated_cycles - detailed.cycles) / detailed.cycles
        assert err < 0.05  # window bracketing differences only


class TestReorderPolarity:
    def test_branch_inverted_when_then_falls_through(self):
        src = """
        int g = 0;
        int main() {
            int i;
            int s = 0;
            for (i = 0; i < 50; i = i + 1) {
                if (i % 7 == 0) {
                    s = s + 100;
                } else {
                    s = s + i;
                }
            }
            return s;
        }
        """
        module = compile_source(src)
        cleanup_module(module)
        before = _count_cmp_ops(module)
        reorder_blocks(module)
        after = _count_cmp_ops(module)
        # Op multiset may change (inversions); semantics must not.
        from tests.util import run_program

        assert run_program(src, CompilerConfig(reorder_blocks=True)) == \
            run_program(src, CompilerConfig())


def _count_cmp_ops(module):
    ops = []
    for f in module.functions.values():
        for b in f.blocks:
            for i in b.instrs:
                if isinstance(i, Cmp):
                    ops.append(i.op)
    return ops


class TestDescribeAndDisassemble:
    def test_space_describe_lists_all_rows(self):
        text = full_space().describe()
        assert len(text.splitlines()) == 26  # header + 25 variables
        assert "memory_latency" in text

    def test_disassembly_has_every_function(self):
        src = """
        int helper(int x) { return x * 2; }
        int main() { return helper(21); }
        """
        exe = compile_module(compile_source(src), O2)
        text = exe.disassemble()
        assert "helper:" in text and "main:" in text

    def test_executable_addresses(self):
        src = "int a[4]; int main() { return a[0]; }"
        exe = compile_module(compile_source(src), CompilerConfig())
        assert exe.global_addr("a") >= exe.data_base
        assert exe.text_size_bytes == len(exe.instrs) * 4
        assert exe.pc_to_byte_addr(1) - exe.pc_to_byte_addr(0) == 4


class TestCompileProgramConvenience:
    def test_compile_program_helper(self):
        from repro.codegen.compile import compile_program

        exe = compile_program("int main() { return 5; }")
        assert execute(exe, collect_trace=False).return_value == 5

"""Tests for the synthetic SPEC-like workload suite."""

import numpy as np
import pytest

from repro.codegen import compile_module
from repro.opt import CompilerConfig, O2, O3
from repro.sim.func import execute
from repro.workloads import WORKLOADS, get_workload, workload_names

#: The seven programs the paper evaluates.
EXPECTED_NAMES = {"gzip", "vpr", "mesa", "art", "mcf", "vortex", "bzip2"}


def checksum(workload, input_name, config, issue_width=4):
    module = get_workload(workload).module(input_name)
    exe = compile_module(module, config, issue_width=issue_width)
    return execute(exe, collect_trace=False)


class TestRegistry:
    def test_all_seven_present(self):
        assert set(workload_names()) == EXPECTED_NAMES

    def test_unknown_workload(self):
        with pytest.raises(KeyError):
            get_workload("gcc")

    def test_each_has_train_and_ref(self):
        for w in WORKLOADS.values():
            assert set(w.input_names()) == {"train", "ref"}

    def test_unknown_input(self):
        with pytest.raises(KeyError):
            get_workload("art").source("huge")

    def test_source_substitution_complete(self):
        for w in WORKLOADS.values():
            for inp in w.input_names():
                assert "$" not in w.source(inp)

    def test_module_cached(self):
        w = get_workload("gzip")
        assert w.module("train") is w.module("train")


@pytest.mark.parametrize("name", sorted(EXPECTED_NAMES))
class TestWorkloadBehavior:
    def test_train_runs_and_is_deterministic(self, name):
        a = checksum(name, "train", CompilerConfig())
        b = checksum(name, "train", CompilerConfig())
        assert a.return_value == b.return_value

    def test_optimization_preserves_checksum(self, name):
        base = checksum(name, "train", CompilerConfig())
        opt = checksum(name, "train", O3)
        assert base.return_value == opt.return_value

    def test_issue_width_does_not_change_checksum(self, name):
        a = checksum(name, "train", O2, issue_width=2)
        b = checksum(name, "train", O2, issue_width=4)
        assert a.return_value == b.return_value

    def test_ref_differs_from_train(self, name):
        train = checksum(name, "train", CompilerConfig())
        ref = checksum(name, "ref", CompilerConfig())
        assert ref.instruction_count > train.instruction_count

    def test_train_size_in_simulation_budget(self, name):
        r = checksum(name, "train", O2)
        assert 100_000 <= r.instruction_count <= 1_200_000


class TestWorkloadDiversity:
    def test_fp_heavy_vs_int_heavy(self):
        """mesa/art must execute many FP ops; gzip/mcf almost none."""

        def fp_fraction(name):
            module = get_workload(name).module("train")
            exe = compile_module(module, O2)
            fr = execute(exe)
            from repro.codegen.isa import OpClass

            fp = sum(
                1
                for pc in fr.trace.pcs.tolist()
                if exe.instrs[pc].op_class
                in (OpClass.FPALU, OpClass.FPMULT)
            )
            return fp / fr.instruction_count

        assert fp_fraction("art") > 0.08
        assert fp_fraction("mesa") > 0.10
        assert fp_fraction("gzip") < 0.01
        assert fp_fraction("mcf") < 0.01

    def test_mcf_has_largest_data_footprint(self):
        footprints = {}
        for name in EXPECTED_NAMES:
            module = get_workload(name).module("train")
            footprints[name] = sum(
                g.size_bytes for g in module.globals.values()
            )
        assert max(footprints, key=footprints.get) == "mcf"
        assert footprints["mcf"] >= 300 * 1024

    def test_programs_respond_differently_to_o3(self):
        """Paper: "no two programs respond to compiler optimizations in
        similar ways" -- O3's dynamic-instruction saving must vary."""
        ratios = []
        for name in sorted(EXPECTED_NAMES):
            o0 = checksum(name, "train", CompilerConfig()).instruction_count
            o3 = checksum(name, "train", O3).instruction_count
            ratios.append(o3 / o0)
        assert max(ratios) - min(ratios) > 0.05

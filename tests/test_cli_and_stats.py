"""Tests for the CLI and the simulation statistics module."""

import io
import sys

import pytest

from repro.cli import build_parser, main
from repro.codegen import compile_module
from repro.minic import compile_source
from repro.opt import O2
from repro.sim import MicroarchConfig
from repro.sim.func import execute
from repro.sim.stats import detailed_statistics, instruction_mix
from tests.util import ALL_PROGRAMS


class TestStats:
    def build(self, src):
        exe = compile_module(compile_source(src), O2)
        fr = execute(exe)
        return exe, fr

    def test_mix_sums_to_total(self):
        exe, fr = self.build(ALL_PROGRAMS["float_kernel"])
        mix = instruction_mix(exe, fr.trace)
        assert sum(mix.counts.values()) == mix.total == len(fr.trace)

    def test_mix_counts_every_position(self):
        exe, fr = self.build(ALL_PROGRAMS["float_kernel"])
        counts = {}
        for pc in fr.trace.pcs.tolist():
            name = exe.instrs[pc].op_class.value
            counts[name] = counts.get(name, 0) + 1
        assert instruction_mix(exe, fr.trace).counts == counts

    def test_fp_program_has_fp_mix(self):
        exe, fr = self.build(ALL_PROGRAMS["float_kernel"])
        mix = instruction_mix(exe, fr.trace)
        assert mix.fp_fraction > 0.05

    def test_statistics_fields_sane(self):
        exe, fr = self.build(ALL_PROGRAMS["sum_loop"])
        stats = detailed_statistics(exe, MicroarchConfig(), fr.trace)
        assert stats.timing.cycles > 0
        assert 0 <= stats.dl1_miss_rate <= 1
        assert 0 <= stats.branch_mispredict_rate <= 1
        assert "CPI" in stats.summary()


class TestCli:
    def test_parser_commands(self):
        parser = build_parser()
        args = parser.parse_args(["measure", "art", "--opt", "O3"])
        assert args.workload == "art" and args.opt == "O3"

    def test_spaces_command(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "off")
        assert main(["spaces"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "max_unroll_times" in out

    def test_workloads_command(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        for name in ("gzip", "mcf", "bzip2"):
            assert name in out

    def test_measure_command(self, capsys):
        assert main(
            ["measure", "gzip", "--opt", "O2", "--machine", "constrained"]
        ) == 0
        out = capsys.readouterr().out
        assert "checksum" in out and "CPI" in out

    def test_measure_with_flag_overrides(self, capsys):
        assert main(
            [
                "measure",
                "gzip",
                "--opt",
                "O2",
                "--flag",
                "unroll_loops=1",
                "--flag",
                "max_unroll_times=4",
            ]
        ) == 0

    def test_random_points_print_sampling_error_in_percent(self, capsys, monkeypatch):
        """``Measurement.sampling_error`` is a fraction: 0.028 is ±2.80%."""
        from repro import cli
        from repro.harness.measure import Measurement

        class Engine:
            jobs = 1

            def measure_batch(self, workload, points, input_name):
                return [Measurement(1000.0, 7, 900, 0.028, 40) for _ in points]

            def save(self):
                pass

        monkeypatch.setattr(cli, "_measure_engine", lambda args: Engine())
        assert main(["measure", "art", "--random-points", "2"]) == 0
        out = capsys.readouterr().out
        assert out.count("(±2.80%, 900 instructions)") == 2, out

    def test_bad_flag_rejected(self):
        with pytest.raises(SystemExit):
            main(["measure", "gzip", "--flag", "warp_speed=1"])

    def test_disasm_command(self, capsys):
        assert main(["disasm", "art", "--opt", "O0"]) == 0
        out = capsys.readouterr().out
        assert "main:" in out and "jr ra" in out

"""Bit-identity, key-soundness and size tests for the timing memo.

``tests/data/golden_measure_pr8.json`` holds 27 measurements captured
*before* the hot-loop rewrite and the memo/artifact caches existed.
Every cached path -- fresh engine, artifact-store warm engine, run memo
hit -- must reproduce those numbers exactly: the caches are allowed to
make measurement cheaper, never different.

The memo keeps whole runs only.  Files written while it also kept
sampled units still load, and their units are dropped on the next save.
"""

import json
import math
from dataclasses import fields, replace
from pathlib import Path

import pytest

from repro.codegen import compile_module
from repro.harness.measure import MeasurementEngine
from repro.opt import O2
from repro.sim import TimingMemo, execute, smarts_simulate, static_digest, timing_key
from repro.sim.config import CONSTRAINED, TYPICAL, MicroarchConfig
from repro.sim.memo import SIM_MEMO_VERSION
from repro.workloads import get_workload

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "golden_measure_pr8.json").read_text()
)

#: A stored run outcome, as ``smarts_simulate`` writes it.
RUN = {
    "estimated_cycles": 123.5,
    "cpi": 1.1,
    "relative_error": float("inf"),
    "sampled_units": 1,
    "instructions": 100,
}


def _check(m, entry):
    label = entry["label"]
    assert m.cycles == entry["cycles"], label
    assert m.checksum == entry["checksum"], label
    assert m.instructions == entry["instructions"], label
    assert m.sampling_error == entry["sampling_error"], label
    assert m.code_size == entry["code_size"], label


@pytest.fixture(scope="module")
def art_run():
    exe = compile_module(
        get_workload("art").module("train"), O2, issue_width=4
    )
    return exe, execute(exe, collect_trace=True)


class TestGoldenBitIdentity:
    def test_all_cached_paths_reproduce_pre_memo_measurements(self, tmp_path):
        """Cold engine (populating artifacts+memo as it goes), then a
        fresh engine served entirely from the on-disk stores: both must
        match the pre-optimization golden numbers bit for bit."""
        cold = MeasurementEngine(cache_dir=str(tmp_path))
        for entry in GOLDEN:
            _check(cold.measure(entry["workload"], entry["point"]), entry)
        cold.save()

        # Fresh engine, no measurement cache -- only the artifact store
        # and the timing memo persist.  Every simulation collapses to a
        # run-level memo hit and no compile may happen.
        warm = MeasurementEngine(
            artifact_dir=str(tmp_path / "artifacts"),
            memo_path=str(tmp_path / "sim_memo.json"),
        )
        for entry in GOLDEN:
            _check(warm.measure(entry["workload"], entry["point"]), entry)
        assert warm.compilations == 0, "warm engine recompiled a binary"


class TestFlagNoiseCollapse:
    def test_codegen_inert_flag_pairs_share_one_memo_entry(self):
        """Heuristic knobs whose governing flag is off (O2 has inlining,
        unrolling and prefetching disabled) cannot change the emitted
        code, so their design points must collapse to one memo entry --
        and every memoized result must equal its cold counterpart."""
        variants = [
            O2,
            replace(O2, max_inline_insns_auto=250),
            replace(O2, inline_unit_growth=80),
            replace(O2, inline_call_cost=4),
            replace(O2, max_unroll_times=2),
            replace(O2, max_unrolled_insns=50),
            replace(O2, omit_frame_pointer=False),  # codegen-relevant
        ]
        module = get_workload("art").module("train")
        memo = TimingMemo()
        functional_by_digest = {}
        for cfg in variants:
            exe = compile_module(module, cfg, issue_width=4)
            dig = static_digest(exe)
            if dig not in functional_by_digest:
                functional_by_digest[dig] = execute(exe, collect_trace=True)
            trace = functional_by_digest[dig].trace
            cold = smarts_simulate(exe, TYPICAL, trace)
            memoized = smarts_simulate(exe, TYPICAL, trace, memo=memo)
            assert memoized == cold, f"memo changed the result for {cfg}"
        assert len(functional_by_digest) < len(variants), (
            "expected at least one codegen-inert flag pair"
        )
        assert memo.n_runs == len(functional_by_digest), (
            "distinct binaries and memo entries must correspond 1:1"
        )


class TestCrossMicroarchKeys:
    def test_every_config_field_changes_the_timing_key(self):
        base = timing_key(TYPICAL)
        assert base.startswith(f"v{SIM_MEMO_VERSION}|")
        for f in fields(MicroarchConfig):
            bumped = replace(TYPICAL, **{f.name: getattr(TYPICAL, f.name) + 1})
            assert timing_key(bumped) != base, (
                f"{f.name} does not participate in the timing key: two "
                f"microarchitectures could collide in the memo"
            )

    def test_shared_memo_keeps_microarchs_apart(self, art_run):
        exe, functional = art_run
        memo = TimingMemo()
        typ = smarts_simulate(exe, TYPICAL, functional.trace, memo=memo)
        con = smarts_simulate(exe, CONSTRAINED, functional.trace, memo=memo)
        assert typ.estimated_cycles != con.estimated_cycles
        assert memo.n_runs == 2
        # Re-running hits the run level and returns the same objects.
        assert smarts_simulate(exe, TYPICAL, functional.trace, memo=memo) == typ
        assert (
            smarts_simulate(exe, CONSTRAINED, functional.trace, memo=memo)
            == con
        )


class TestPersistence:
    def test_round_trip_including_inf(self, tmp_path):
        path = tmp_path / "memo.json"
        m = TimingMemo(path)
        m.put_run("rk", RUN)
        m.save()
        got = TimingMemo(path).get_run("rk")
        assert math.isinf(got["relative_error"])
        assert got == RUN

    def test_version_mismatch_ignored(self, tmp_path):
        path = tmp_path / "memo.json"
        path.write_text(json.dumps({"version": -1, "runs": {"rk": {}}}))
        assert TimingMemo(path).get_run("rk") is None

    def test_concurrent_writers_merge(self, tmp_path):
        path = tmp_path / "memo.json"
        a = TimingMemo(path)
        b = TimingMemo(path)
        a.put_run("ra", {"estimated_cycles": 1.0})
        b.put_run("rb", {"estimated_cycles": 2.0})
        a.save()
        b.save()  # must absorb a's entry, not clobber it
        fresh = TimingMemo(path)
        assert fresh.n_runs == 2
        assert fresh.get_run("ra") == {"estimated_cycles": 1.0}
        assert fresh.get_run("rb") == {"estimated_cycles": 2.0}

    def test_clean_memo_save_is_noop(self, tmp_path):
        path = tmp_path / "memo.json"
        TimingMemo(path).save()
        assert not path.exists()

    def test_file_with_units_loads_and_sheds_them(self, tmp_path):
        """A memo file written while the memo also kept sampled units:
        every run is served, and the next save writes no ``units``."""
        path = tmp_path / "memo.json"
        runs = {f"r{i}": dict(RUN, instructions=100 + i) for i in range(3)}
        units = {f"u{i}": [4200 + i, 1000] for i in range(40)}
        path.write_text(
            json.dumps({"version": SIM_MEMO_VERSION, "runs": runs, "units": units})
        )
        memo = TimingMemo(path)
        assert memo.n_runs == 3
        for key, run in runs.items():
            assert memo.get_run(key) == run
        memo.put_run("new", RUN)
        memo.save()
        raw = json.loads(path.read_text())
        assert set(raw) == {"version", "runs"}
        assert raw["runs"] == {**runs, "new": RUN}

    def test_stored_run_is_small(self, tmp_path, art_run):
        """One real SMARTS run leaves at most 300 bytes in the file."""
        exe, functional = art_run
        path = tmp_path / "sim_memo.json"
        memo = TimingMemo(path)
        smarts_simulate(exe, TYPICAL, functional.trace, interval=3, memo=memo)
        memo.save()
        assert memo.n_runs == 1
        assert path.stat().st_size <= 300 * memo.n_runs

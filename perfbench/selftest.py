"""Self-tests of the benchmark (``python3 perfbench/run.py --selftest``).

* every workload runs traced at a tiny size, each run in fresh
  processes like a real one, and two runs with the same seed give
  identical work counts and output digests;
* a deliberately wrong reference checksum is counted as a failure;
* the tracer installs a wrapper on every target and removes them all;
* compare mode pairs runs and flags a clear win.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads as wl
from hostspeed import HostSpeed
from stats import compare
from tracer import PATCHES, Tracer, root_span, wrapped_targets

RUN = Path(__file__).resolve().parent / "run.py"

#: Tiny sizes: cold points, sweep draws per program, serve requests.
TINY = {"measure_cold": 3, "uarch_sweep": 1, "tune_serve": 40}


class CheckFailed(Exception):
    pass


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _tiny_traced_run(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "7",
         "--trace", "1", "--size", str(TINY[workload])],
        capture_output=True, text=True, timeout=300,
    )
    check(proc.returncode == 0, f"{workload}: exit {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    tagged = {l.split()[1]: l.split(None, 2)[2] for l in lines if l.startswith("# ")}
    return {
        "result": json.loads(lines[-1]),
        "counts": json.loads(tagged["counts"]),
        "digest": tagged["digest"].split()[0],
    }


def test_tiny_runs_repeat_exactly() -> None:
    for workload in wl.WORKLOADS:
        a, b = _tiny_traced_run(workload), _tiny_traced_run(workload)
        for run in (a, b):
            check(run["result"]["correct"] and run["result"]["failed"] == 0,
                  f"{workload}: failures in a tiny run")
        check(a["counts"] == b["counts"], f"{workload}: counts differ: {a['counts']} vs {b['counts']}")
        check(a["digest"] == b["digest"], f"{workload}: digests differ")
        print(f"  {workload}: {a['result']['attempted']} ops, {len(a['counts'])} counters,"
              f" digest {a['digest']}")


def test_wrong_reference_counts_a_failure(scratch: Path) -> None:
    reference = wl.reference_checksums()
    wrong = dict(reference)
    wrong[wl.PROGRAMS[0]] += 1
    out = wl.measure_cold(3, 1, scratch, wrong, root_span(None), HostSpeed(enabled=False))
    check(out.attempted == 1 and out.failed == 1, f"attempted {out.attempted}, failed {out.failed}")


def test_tracer_patches_and_restores() -> None:
    check(not wrapped_targets(), "wrappers installed before tracing")
    tracer = Tracer()
    with tracer:
        check(len(wrapped_targets()) == len(PATCHES), "not every target wrapped")
    check(not wrapped_targets() and tracer.restored_ok, "wrappers left installed")


def test_compare_flags_a_clear_win(scratch: Path) -> None:
    spec = {"ops_per_s": {"name": "ops_per_s", "better": "higher", "bound": 0.1}}
    paths = []
    for side, base in (("a", 100.0), ("b", 150.0)):
        path = scratch / f"{side}.jsonl"
        with open(path, "w") as f:
            for i in range(10):
                result = {"metrics": {"ops_per_s": {"value": base + i, "unit": "1/s"}}}
                f.write(json.dumps({"workload": "w", "seed": i, "trace": 0, "result": result}) + "\n")
        paths.append(path)
    table = compare(paths[0], paths[1], spec)
    row = [line for line in table.splitlines() if "ops_per_s" in line][0]
    check("B better" in row and " 1.00 " in row, table)


def main(work: Path) -> int:
    work.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=str(work)))
    tests = [
        ("tracer patches and restores", test_tracer_patches_and_restores),
        ("compare flags a clear win", lambda: test_compare_flags_a_clear_win(scratch)),
        ("wrong reference counts a failure", lambda: test_wrong_reference_counts_a_failure(scratch)),
        ("tiny runs repeat exactly", test_tiny_runs_repeat_exactly),
    ]
    failures = 0
    try:
        for name, fn in tests:
            t = time.perf_counter()
            try:
                fn()
            except CheckFailed as e:
                failures += 1
                print(f"FAIL {name}: {e}")
            else:
                print(f"ok   {name} ({time.perf_counter() - t:.1f} s)")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("selftest", "FAILED" if failures else "passed")
    return 1 if failures else 0

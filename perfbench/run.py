"""Repository benchmark entry point.

Run one workload (from the repository root)::

    python3 perfbench/run.py --workload measure_cold --seed 1 --seconds 16 --trace 0

``--trace 0`` prints every end-to-end metric, times normalised to a
reference host speed (``hostspeed.py``); ``--trace 1`` runs the
workload untraced in a child process and then traced in this one, and
prints every per-layer metric.  The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--out
FILE`` also appends that result, tagged with workload and seed, to a
JSON-lines file.

Other modes::

    python3 perfbench/run.py --compare A.jsonl B.jsonl   # side by side
    python3 perfbench/run.py --selftest                   # benchmark self-tests

See ``perfbench/README.md`` for the metrics and the layer mapping.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
WORK = ROOT / ".perfbench_work"

#: Set-up repetitions per run, setup_s being their median: at least
#: SETUP_REPEATS, and more, up to SETUP_MAX_REPEATS, until they have
#: taken SETUP_BUDGET_S.  A set-up that only starts an interpreter takes
#: 0.2-0.4 s and spreads widely, so it gets nine tries; one that
#: compiles seven binaries takes ~4 s and gets three.
SETUP_REPEATS = 3
SETUP_MAX_REPEATS = 9
SETUP_BUDGET_S = 2.0
CHILD_TIMEOUT_S = 150


def _configure_environment() -> None:
    """One thread per numeric library (the load must fit two cores and
    BLAS sums must not depend on thread scheduling), no ledger, no
    telemetry, and every cache inside the checkout.  Child processes
    inherit it."""
    for var in ("REPRO_TRACE", "REPRO_VERIFY", "REPRO_JOBS", "REPRO_LEDGER_PATH"):
        os.environ.pop(var, None)
    os.environ.update(
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        REPRO_LEDGER="off",
        REPRO_CACHE_DIR=str(WORK / "cache"),
        REPRO_REGISTRY_DIR=str(WORK / "registry"),
        PYTHONPATH=str(SRC) + os.pathsep + str(HERE),
    )


def _child(args, timeout: float = CHILD_TIMEOUT_S) -> str:
    """Run ``run.py <args>`` in a fresh interpreter and return its stdout."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve())] + [str(a) for a in args],
        cwd=str(ROOT),
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"child {args[:2]} exited with {proc.returncode}")
    return proc.stdout


def _tagged(text: str, tag: str) -> str:
    """The word after ``# <tag> `` on the last such line of ``text``."""
    lines = [l for l in text.splitlines() if l.startswith(f"# {tag} ")]
    return lines[-1].split()[2]


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def _spec() -> dict:
    return json.loads(SPEC.read_text())


def _end_to_end(out, setup_s: float, factor: float = 1.0) -> dict:
    """The end-to-end metrics, times multiplied by the host-speed
    ``factor`` (see hostspeed.py); 0 where every operation failed (the
    result then reads incorrect)."""
    return {
        "setup_s": setup_s * factor,
        "ops_per_s": len(out.op_s) / (out.ops_wall_s * factor) if out.ops_wall_s else 0.0,
        "op_ms_p50": _pct(out.op_s, 50) * factor,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _run_pass(workload: str, seed: int, size: int, workdir: Path, tracer, speed):
    """One timed pass of ``workload``, then its off-the-clock checks."""
    import workloads as wl
    from tracer import root_span

    root = root_span(tracer)
    patched = tracer if tracer is not None else contextlib.nullcontext()
    if workload == "tune_serve":
        with patched:
            out, served = wl.tune_serve(seed, size, workdir, root, speed)
        wl.verify_served(out, served)
        return out
    reference = _reference()
    fn = wl.measure_cold if workload == "measure_cold" else wl.uarch_sweep
    with patched:
        return fn(seed, size, workdir, reference, root, speed)


def _reference() -> dict:
    """Reference checksums, computed in a child process once per
    version of the sources and kept in the scratch directory."""
    digest = hashlib.md5()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(path.read_bytes())
    cache = WORK / f"reference-{digest.hexdigest()}.json"
    if not cache.exists():
        tmp = cache.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(_last_json(_child(["--reference"]))))
        os.replace(tmp, cache)
    return json.loads(cache.read_text())


def _setup(workload: str, workdir: Path, repeats: int, speed, budget_s: float = 0.0) -> float:
    """Median wall seconds of ``repeats`` or more set-ups (see
    SETUP_BUDGET_S), each in a fresh interpreter after a host-speed
    sample; the last one's stores are left in ``workdir``."""
    times = []
    while len(times) < repeats or (sum(times) < budget_s and len(times) < SETUP_MAX_REPEATS):
        for sub in ("cold", "artifacts", "registry"):
            shutil.rmtree(workdir / sub, ignore_errors=True)
        speed.sample()
        t = time.perf_counter()
        _child(["--setup", workload, "--dir", workdir])
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def run(args) -> dict:
    import workloads as wl
    from hostspeed import HostSpeed
    from tracer import Tracer, wrapped_targets

    size = args.size or wl.size_for(args.workload, args.seconds, traced=bool(args.trace))
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    checks_ok = True
    try:
        if not args.trace:
            speed = HostSpeed()
            setup_s = _setup(args.workload, workdir, SETUP_REPEATS, speed, SETUP_BUDGET_S)
            if wrapped_targets():
                raise RuntimeError(f"untraced run found wrappers: {wrapped_targets()}")
            out = _run_pass(args.workload, args.seed, size, workdir, None, speed)
            speed.sample()
            checks_ok = not wrapped_targets()
            metrics = _end_to_end(out, setup_s, speed.factor)
            raw = _end_to_end(out, setup_s)
            print(f"# timed_s {out.timed_s!r}")
            print(f"# host_speed factor {speed.factor!r} samples {len(speed.samples)}")
            print("# raw " + " ".join(f"{k} {v!r}" for k, v in raw.items()))
        else:
            untraced = _child(
                ["--workload", args.workload, "--seed", args.seed,
                 "--seconds", args.seconds, "--trace", 0, "--size", size]
            )
            untraced_s = float(_tagged(untraced, "timed_s"))
            off = HostSpeed(enabled=False)
            _setup(args.workload, workdir, 1, off)
            tracer = Tracer()
            out = _run_pass(args.workload, args.seed, size, workdir, tracer, off)
            checks_ok = bool(tracer.restored_ok)
            if out.digest.hexdigest() != _tagged(untraced, "digest"):
                out.fail("traced and untraced runs produced different outputs")
            metrics = {m["name"]: 0.0 for m in _spec()["per_layer"]}
            metrics.update(tracer.layer_metrics(out.timed_s))
            metrics["trace_overhead_frac"] = out.timed_s / untraced_s - 1.0
            metrics["op_ms_p90"] = _pct(out.op_s, 90)
            metrics["preds_per_s"] = out.preds / out.serve_wall_s if out.serve_wall_s else 0.0
            metrics["request_ms_p50"] = _pct(out.request_s, 50)
            metrics["request_ms_p90"] = _pct(out.request_s, 90)
            metrics["batch_ms_p50"] = _pct(out.batch_s, 50)
            metrics["batch_ms_p90"] = _pct(out.batch_s, 90)
            print(f"# timed_s {out.timed_s!r} untraced {untraced_s!r}")
            print(f"# counts {json.dumps(tracer.counts, sort_keys=True)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not checks_ok:
        out.fail("tracer wrappers found installed when they should not be")
    if args.trace:
        metrics["failed_frac"] = out.failed / max(1, out.attempted)
    for message in out.errors:
        print(f"# FAILED {message}", file=sys.stderr)
    print(f"# digest {out.digest.hexdigest()} attempted {out.attempted} failed {out.failed}"
          f" op_samples {len(out.op_s)}"
          f" requests {len(out.request_s)} batches {len(out.batch_s)}")
    return {
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }


def _pct(values, q) -> float:
    from stats import percentile

    return percentile([v * 1e3 for v in values], q) if values else 0.0


def _print_result(result: dict, section: str) -> dict:
    units = {m["name"]: m["unit"] for m in _spec()[section]}
    missing = sorted(set(units) - set(result["metrics"]))
    if missing:
        raise RuntimeError(f"metrics missing from the result: {missing}")
    for name in units:
        print(f"{name:34s} {result['metrics'][name]:16.6g} {units[name]}")
    result = dict(result)
    result["metrics"] = {
        name: {"value": float(result["metrics"][name]), "unit": units[name]} for name in units
    }
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", help="measure_cold, uarch_sweep or tune_serve")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=16.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--out", type=Path, help="append the result to this JSON-lines file")
    p.add_argument("--size", type=int, default=0, help=argparse.SUPPRESS)
    p.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--setup", help=argparse.SUPPRESS)
    p.add_argument("--dir", type=Path, help=argparse.SUPPRESS)
    p.add_argument("--reference", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if not (SRC / "repro").is_dir() or not SPEC.is_file():
        print(f"perfbench: no program to measure under {SRC}", file=sys.stderr)
        return 2
    _configure_environment()
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads as wl

    if args.compare:
        from stats import compare

        spec = _spec()
        specs = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
        print(compare(args.compare[0], args.compare[1], specs))
        return 0
    if args.selftest:
        import selftest

        return selftest.main(WORK)
    if args.reference:
        print(json.dumps(wl.reference_checksums()))
        return 0
    if args.setup:
        wl.setup(args.setup, args.dir)
        return 0
    if args.workload not in wl.WORKLOADS:
        p.error(f"--workload must be one of {', '.join(wl.WORKLOADS)}")

    result = run(args)
    result = _print_result(result, "per_layer" if args.trace else "end_to_end")
    if args.out:
        with open(args.out, "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                "trace": args.trace, "result": result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

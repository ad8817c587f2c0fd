"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``spaces``
    Print the Table 1 / Table 2 parameter spaces.
``workloads``
    List the built-in SPEC-like workloads; with ``--corpus-size`` it
    also lists a reproducible generated corpus, each entry tagged
    ``source: generated(seed=..)`` (``--families`` filters the corpus).
``workgen``
    Generate a seeded synthetic-workload corpus from the MiniC kernel
    grammar: list it, run the semantic-check gate (``--check``), write
    or verify a reproducibility manifest (``--manifest``/``--verify``),
    export the sources (``--export``), or print one program
    (``--show``).  See docs/WORKLOADS.md.
``generalize``
    Cross-program model fitting over a generated corpus plus the seed
    workloads: one pooled model over [design point | program features]
    evaluated leave-one-workload-out against per-program baselines;
    ``--save`` publishes the pooled model (with its feature schema) to
    the registry so ``repro predict --workload`` answers for any
    program.
``measure``
    Compile + simulate one workload at given flag/microarch settings and
    print the run statistics.  With ``--random-points N`` it measures a
    batch of seeded random design points instead (through the process
    pool with ``--jobs``); ``--profile`` wraps either path in the
    sampling profiler and writes a collapsed-stack hotspot profile.
``bench``
    Run the ``benchmarks/bench_*.py`` scenarios, each at the one size
    its committed baseline was measured at, write schema-versioned
    ``BENCH_<name>.json`` result files, and fail on regressions against
    the previous results or on a missed floor (see
    docs/OBSERVABILITY.md).
``disasm``
    Disassemble a workload's binary at given compiler settings.
``model``
    Build an empirical model for a workload (the Figure 1 loop) and
    report its accuracy.
``tune``
    Model-based GA search of the compiler flags for a Table 5 machine,
    verified by actual simulation (the paper's Section 6.3 use case).
    With ``--surrogate NAME`` the fitness comes from a registry model
    instead of a freshly built one: the search touches the simulator
    only to re-validate elite individuals (see docs/SERVING.md).
``serve``
    Long-running prediction server: registry models over a JSON-lines
    TCP protocol, one thread per connection.
``predict``
    One prediction from a registry model -- locally, or through a
    running ``repro serve`` instance with ``--host``.  With
    ``--workload`` the model must be a pooled ``repro generalize``
    model: the prediction row is the design point concatenated with
    that program's feature vector from the model's stored schema
    (extracted live for programs outside the training corpus).
``registry``
    List the model registry, or show one model's manifest.
``lint``
    Sweep a workload across preset-corner and seeded random flag
    vectors under full verification (deep IR checks after every pass,
    machine-code checks after every backend stage, differential
    execution against the reference interpreter) and report violations
    per pass (see docs/ANALYSIS.md); ``--json`` emits the report
    machine-readably.
``analyze``
    Static analysis summary plus an optimization-remark sweep: compile
    one configured point (or, with ``--vectors N``, the lint corners
    plus N seeded random vectors) under a remark collector and report
    every pass's fired/declined decisions as schema-versioned JSONL.
    ``--check`` gates on analysis invariants and remark-stream schema
    validity; ``--drift GOLDEN`` cross-checks the static cost model and
    remark benefit claims against measured timings (see
    docs/ANALYSIS.md).
``trace``
    Run any other command with tracing enabled and dump the spans as
    JSONL + Chrome ``trace_event`` JSON + a self-timing text report
    (equivalent to ``REPRO_TRACE=1 python -m repro <cmd>``).
``stats``
    Print the telemetry counters/histograms accumulated in
    ``<cache_dir>/metrics.json`` across runs (see docs/OBSERVABILITY.md);
    ``--json`` emits the same data machine-readably.
``ledger``
    Query (``list``), integrity-check (``verify``), or retention-prune
    (``compact``) the provenance ledger (see docs/OBSERVABILITY.md).
``lineage``
    Reconstruct a registry model's provenance chain from the ledger:
    publish -> fit -> measurement batches -> serve sessions.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import List, Optional

import numpy as np


def _add_flag_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--opt",
        choices=["O0", "O2", "O3"],
        default="O2",
        help="optimization preset (default O2)",
    )
    parser.add_argument(
        "--flag",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="override a Table 1 flag/heuristic, e.g. "
        "--flag unroll_loops=1 --flag max_unroll_times=8",
    )
    parser.add_argument(
        "--machine",
        choices=["constrained", "typical", "aggressive"],
        default="typical",
        help="Table 5 microarchitecture (default typical)",
    )


def _add_verify_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--verify",
        choices=["off", "ir", "full"],
        default=None,
        metavar="LEVEL",
        help="verification level: off, ir (post-pipeline IR check, the "
        "default), or full (per-pass deep IR + machine-code + linked-"
        "image checks); equivalent to setting REPRO_VERIFY",
    )


def _apply_verify_argument(args) -> None:
    """Export ``--verify`` as ``REPRO_VERIFY`` so every compile in this
    process -- and in forked measurement workers -- inherits it."""
    if getattr(args, "verify", None):
        os.environ["REPRO_VERIFY"] = args.verify


def _add_jobs_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for batch measurements "
        "(default $REPRO_JOBS or 1; 0 = all cores)",
    )


def _add_registry_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--registry",
        default=None,
        metavar="DIR",
        help="model registry directory (default $REPRO_REGISTRY_DIR "
        "or results/registry)",
    )


def _registry(args):
    from repro.serve import ModelRegistry, default_registry

    if getattr(args, "registry", None):
        return ModelRegistry(args.registry)
    return default_registry()


def _compiler_config(args):
    from repro.opt import O0, O2, O3

    base = {"O0": O0, "O2": O2, "O3": O3}[args.opt]
    overrides = {}
    for item in args.flag:
        if "=" not in item:
            raise SystemExit(f"bad --flag {item!r}; expected NAME=VALUE")
        name, value = item.split("=", 1)
        overrides[name] = int(value)
    if not overrides:
        return base
    point = base.to_point()
    for name, value in overrides.items():
        if name not in point:
            raise SystemExit(f"unknown compiler parameter {name!r}")
        point[name] = float(value)
    from repro.opt import CompilerConfig

    return CompilerConfig.from_point(point)


def _microarch(args):
    from repro.harness.configs import TABLE5_CONFIGS

    return TABLE5_CONFIGS[args.machine]


def cmd_spaces(_args) -> int:
    from repro.space import compiler_space, microarch_space

    print("Table 1 -- compiler flags and heuristics")
    print(compiler_space().describe())
    print()
    print("Table 2 -- microarchitectural parameters")
    print(microarch_space().describe())
    return 0


def _parse_families(text: Optional[str]) -> tuple:
    if not text:
        return ()
    return tuple(f.strip() for f in text.split(",") if f.strip())


def cmd_workloads(args) -> int:
    from repro.workloads import WORKLOADS, get_workload

    families = _parse_families(getattr(args, "families", None))
    listing = [] if families else list(WORKLOADS)
    if getattr(args, "corpus_size", None):
        from repro.workgen import CorpusSpec, generate_corpus

        spec = CorpusSpec(
            seed=args.corpus_seed, count=args.corpus_size, families=families
        )
        listing.extend(p.name for p in generate_corpus(spec))
    elif families:
        raise SystemExit(
            "--families filters a generated corpus; pass --corpus-size "
            "(and optionally --corpus-seed) to list one"
        )
    for name in listing:
        w = get_workload(name)
        if getattr(args, "names_only", False):
            print(name)
        else:
            inputs = ", ".join(w.input_names())
            print(
                f"{name:20s} [{inputs}]  source: {w.source_tag():22s} "
                f"{w.description}"
            )
    return 0


def cmd_workgen(args) -> int:
    from repro.workgen import (
        CorpusSpec,
        SemanticCheckFailure,
        check_program,
        corpus_digest,
        generate_corpus,
        load_manifest,
        verify_manifest,
        write_manifest,
    )
    from repro.workgen.corpus import export_corpus

    if args.show:
        from repro.workloads import get_workload

        w = get_workload(args.show)
        print(f"// {w.name}: {w.description} [{w.source_tag()}]")
        print(w.source("train"), end="")
        return 0

    if args.verify:
        manifest = load_manifest(args.verify)
        problems = verify_manifest(manifest)
        spec = manifest.get("spec", {})
        print(
            f"manifest {args.verify}: seed {spec.get('seed')}, "
            f"{spec.get('count')} program(s), grammar "
            f"v{manifest.get('grammar_version')}"
        )
        if problems:
            print(f"MANIFEST VERIFICATION FAILED ({len(problems)}):")
            for p in problems:
                print(f"  {p}")
            return 1
        print("verified: corpus regenerates byte-identically")
        return 0

    spec = CorpusSpec(
        seed=args.seed,
        count=args.count,
        families=_parse_families(args.families),
    )
    programs = generate_corpus(spec)
    print(
        f"corpus seed {spec.seed}: {len(programs)} program(s), "
        f"digest {corpus_digest(programs)}"
    )
    failures = 0
    for p in programs:
        line = f"  {p.name:24s} {len(p.source.splitlines()):4d} lines"
        if args.check:
            try:
                result = check_program(p)
                line += (
                    f"  gate ok (checksum {result.checksum}, "
                    f"{result.dynamic_instructions} dyn instrs)"
                )
            except SemanticCheckFailure as exc:
                failures += 1
                line += f"  GATE FAILED: {exc.reason}"
        print(line)
    if args.check:
        print(
            f"semantic gate: {len(programs) - failures}/{len(programs)} passed"
        )
    if args.export:
        root = export_corpus(args.export, spec, programs)
        print(f"exported corpus + manifest -> {root}")
    elif args.manifest:
        write_manifest(args.manifest, spec, programs)
        print(f"manifest -> {args.manifest}")
    return 1 if failures else 0


def cmd_generalize(args) -> int:
    import json as _json

    from repro.workgen import (
        GeneralizeConfig,
        build_dataset,
        evaluate_lowo,
        publish_pooled,
    )

    config = GeneralizeConfig(
        corpus_seed=args.corpus_seed,
        corpus_size=args.corpus_size,
        families=_parse_families(args.families),
        include_seed_workloads=not args.no_seed_workloads,
        points_per_workload=args.points,
        design_seed=args.seed,
        oracle=args.oracle,
        jobs=args.jobs,
    )
    print(
        f"measuring {config.points_per_workload} design points per workload "
        f"(corpus seed {config.corpus_seed}, size {config.corpus_size}, "
        f"oracle {config.oracle})..."
    )
    dataset = build_dataset(config)
    report = evaluate_lowo(config, dataset=dataset)
    if args.json:
        print(_json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(
            f"{'workload':24s} {'origin':10s} "
            f"{'pooled':>9s} {'per-prog':>9s}"
        )
        for e in report.evals:
            marker = "<" if e.pooled_mape <= e.baseline_mape else " "
            print(
                f"{e.workload:24s} {e.origin:10s} "
                f"{e.pooled_mape:8.1f}% {e.baseline_mape:8.1f}% {marker}"
            )
        wins = sum(
            1 for e in report.evals if e.pooled_mape <= e.baseline_mape
        )
        print(
            f"\nLOWO over {len(report.evals)} workloads "
            f"({report.n_rows} measured rows):"
        )
        print(
            f"  pooled model    mean {report.pooled_mape:6.1f}%  "
            f"median {np.median([e.pooled_mape for e in report.evals]):6.1f}%"
        )
        print(
            f"  per-program     mean {report.baseline_mape:6.1f}%  "
            f"median "
            f"{np.median([e.baseline_mape for e in report.evals]):6.1f}%"
        )
        print(f"  pooled wins on {wins}/{len(report.evals)} workloads")
    if args.save:
        entry = publish_pooled(
            _registry(args), args.save, config, dataset, report=report
        )
        print(
            f"saved pooled model as {args.save!r} (id {entry.id}) in "
            f"{_registry(args).root}; predict with "
            f"`repro predict {args.save} --workload <name>`"
        )
    return 0


def cmd_measure(args) -> int:
    profiler = None
    if args.profile:
        from repro.obs import SamplingProfiler

        profiler = SamplingProfiler().start()
    try:
        if args.random_points:
            return _measure_random_points(args)
        return _measure_single(args)
    finally:
        if profiler is not None:
            profiler.stop()
            out_dir = Path(args.profile_out or _trace_out_dir())
            path = profiler.write_collapsed(out_dir / "profile.collapsed")
            print(
                f"\n[profile] {profiler.samples} samples -> {path} "
                "(feed to flamegraph.pl or speedscope.app)"
            )
            print(profiler.report(top=15))


def _measure_engine(args):
    """The engine for ``repro measure``: shared accurate engine, or a
    static-mode engine sharing the same on-disk cache (estimates carry
    mode-tagged keys, so the two never collide)."""
    from repro.harness.measure import MeasurementEngine, default_engine
    from repro.store import cache_dir

    if getattr(args, "oracle", "accurate") != "static":
        return default_engine()
    return MeasurementEngine(mode="static", cache_dir=cache_dir())


def _measure_single(args) -> int:
    from repro.harness.measure import default_engine
    from repro.sim.stats import detailed_statistics

    compiler = _compiler_config(args)
    microarch = _microarch(args)
    if args.oracle == "static":
        from repro.analysis.static.oracle import default_static_oracle

        breakdown = default_static_oracle().estimate(
            args.workload, compiler, microarch, args.input
        )
        print(f"workload  {args.workload} ({args.input})")
        print(f"compiler  {compiler.describe()}")
        print(f"machine   {args.machine}")
        print("oracle    static (analytical estimate; nothing executed)")
        print(f"cycles    {breakdown.cycles:14.0f}")
        print(f"instrs    {breakdown.instructions:14.0f}")
        print(f"code size {breakdown.code_size:14d}")
        for name, value in sorted(breakdown.components.items()):
            print(f"  {name:14s} {value:14.1f}")
        return 0
    # Route through the shared engine so the binary+trace cache (and its
    # hit/miss telemetry) covers interactive measurements too.
    exe, functional = default_engine().compile_and_trace(
        args.workload, args.input, compiler, microarch.issue_width
    )
    stats = detailed_statistics(exe, microarch, functional.trace)
    print(f"workload  {args.workload} ({args.input})")
    print(f"compiler  {compiler.describe()}")
    print(f"machine   {args.machine}")
    print(f"checksum  {functional.return_value}")
    print(stats.summary())
    return 0


def _measure_random_points(args) -> int:
    """Batch path of ``repro measure``: seeded random design points fanned
    out over the measurement pool (``--opt``/``--flag`` are unused --
    each random point carries its own compiler settings)."""
    from repro.harness.measure import worker_count
    from repro.space import full_space

    space = full_space()
    rng = np.random.default_rng(args.seed)
    points = [space.random_point(rng) for _ in range(args.random_points)]
    engine = _measure_engine(args)
    if args.jobs is not None:
        engine.jobs = worker_count(args.jobs)
    print(
        f"measuring {len(points)} random points of {args.workload} "
        f"({args.input}), seed {args.seed}, jobs {engine.jobs}, "
        f"oracle {args.oracle}"
    )
    try:
        measurements = engine.measure_batch(args.workload, points, args.input)
    finally:
        engine.save()
    for i, m in enumerate(measurements):
        print(
            f"  point {i:3d}: {m.cycles:12.0f} cycles "
            f"(±{m.sampling_error * 100:.2f}%, {m.instructions} instructions)"
        )
    cycles = [m.cycles for m in measurements]
    print(
        f"best {min(cycles):.0f} / worst {max(cycles):.0f} / "
        f"mean {sum(cycles) / len(cycles):.0f} cycles"
    )
    return 0


def cmd_bench(args) -> int:
    from repro.obs.bench import ScenarioFailures, discover_scenarios, run_scenarios

    bench_dir = Path(args.bench_dir)
    scenarios = discover_scenarios(bench_dir)
    if args.list:
        for s in scenarios:
            gated = ", ".join(sorted(s.gates)) or "(ungated)"
            print(f"{s.name:20s} {s.description}  [gates: {gated}]")
        return 0
    if args.scenarios:
        by_name = {s.name: s for s in scenarios}
        unknown = [n for n in args.scenarios if n not in by_name]
        if unknown:
            raise SystemExit(
                f"unknown scenario(s) {', '.join(unknown)}; "
                f"available: {', '.join(sorted(by_name))}"
            )
        scenarios = [by_name[n] for n in args.scenarios]
    if not scenarios:
        raise SystemExit(f"no BENCH_SCENARIO found in {bench_dir}/bench_*.py")
    failed = {}
    try:
        written, regressions = run_scenarios(
            scenarios,
            args.out,
            baseline_dir=args.baseline,
            threshold_pct=args.threshold,
        )
    except ScenarioFailures as exc:
        written, regressions, failed = exc.written, exc.regressions, exc.failed
    print(f"\n{len(written)} result file(s) written")
    if failed:
        print(f"SCENARIOS FAILED ({len(failed)}):")
        for name, error in failed.items():
            print(f"  {name}: {error}")
    if regressions:
        print(f"REGRESSION GATE FAILED ({len(regressions)} finding(s)):")
        for finding in regressions:
            print("  " + finding.describe())
    return 1 if failed or regressions else 0


def cmd_disasm(args) -> int:
    from repro.codegen import compile_module
    from repro.workloads import get_workload

    compiler = _compiler_config(args)
    microarch = _microarch(args)
    module = get_workload(args.workload).module(args.input)
    exe = compile_module(module, compiler, issue_width=microarch.issue_width)
    print(exe.disassemble())
    return 0


def cmd_model(args) -> int:
    from repro.harness.measure import default_engine, worker_count
    from repro.harness.model_zoo import standard_factories
    from repro.pipeline import build_model
    from repro.space import full_space

    space = full_space()
    engine = default_engine()
    if args.jobs is not None:
        engine.jobs = worker_count(args.jobs)
    factory_key = {"linear": "linear", "mars": "mars", "rbf": "rbf-rt"}[
        args.family
    ]
    # finally: a crash or Ctrl-C mid-sweep keeps the measurements taken.
    try:
        result = build_model(
            oracle=engine.oracle(args.workload, args.input),
            space=space,
            model_factory=standard_factories(space.names, args.samples)[
                factory_key
            ],
            rng=np.random.default_rng(args.seed),
            initial_size=args.samples // 2,
            batch_size=max(10, args.samples // 4),
            max_samples=args.samples,
            target_error=args.target_error,
            n_candidates=max(300, 4 * args.samples),
            test_size=max(15, args.samples // 4),
        )
    finally:
        engine.save()
    for n, err, std in result.error_history:
        print(f"{n:5d} samples -> {err:6.2f}% (±{std:.2f}) test error")
    if args.save:
        entry = _registry(args).save(
            result.model,
            args.save,
            space=space,
            corpus=(result.x_train, result.y_train),
            fit_metrics={
                "test_error_pct": result.test_error,
                "n_train": result.n_samples,
                "workload": args.workload,
                "input": args.input,
                "seed": args.seed,
            },
        )
        print(
            f"saved {args.family} model as {args.save!r} "
            f"(id {entry.id}) in {_registry(args).root}"
        )
    return 0


def cmd_tune(args) -> int:
    from repro.harness.experiments.search import frozen_microarch_objective
    from repro.harness.measure import default_engine, worker_count
    from repro.models import RbfModel
    from repro.opt import O2, O3, CompilerConfig
    from repro.pipeline import build_model
    from repro.search import GeneticSearch
    from repro.space import COMPILER_VARIABLE_NAMES, full_space

    space = full_space()
    engine = default_engine()
    if args.jobs is not None:
        engine.jobs = worker_count(args.jobs)
    microarch = _microarch(args)
    rng = np.random.default_rng(args.seed)

    # finally: a crash or Ctrl-C mid-sweep keeps the measurements taken.
    try:
        if args.surrogate:
            settings = _tune_surrogate(args, space, microarch, engine, rng)
        else:
            print(
                f"Building a model for {args.workload} "
                f"({args.samples} sims)..."
            )
            built = build_model(
                oracle=engine.oracle(args.workload, args.input),
                space=space,
                model_factory=lambda: RbfModel(variable_names=space.names),
                rng=rng,
                initial_size=args.samples,
                batch_size=args.samples,
                max_samples=args.samples,
                n_candidates=max(300, 4 * args.samples),
                test_size=max(15, args.samples // 5),
            )
            print(f"  model test error {built.test_error:.2f}%")

            compiler_space = space.subspace(COMPILER_VARIABLE_NAMES)
            objective = frozen_microarch_objective(
                built.model, space, compiler_space, microarch
            )
            ga = GeneticSearch(compiler_space, population=60, generations=40)
            result = ga.run(objective, rng)
            settings = CompilerConfig.from_point(result.best_point)
        print(f"prescribed settings: {settings.describe()}")

        o2, o3, best = engine.measure_many(
            [
                (args.workload, O2, microarch, args.input),
                (args.workload, O3, microarch, args.input),
                (args.workload, settings, microarch, args.input),
            ]
        )
    finally:
        engine.save()
    print(f"-O2      {o2.cycles:12.0f} cycles")
    print(f"-O3      {o3.cycles:12.0f} cycles ({(o2.cycles/o3.cycles-1)*100:+.2f}%)")
    print(f"searched {best.cycles:12.0f} cycles ({(o2.cycles/best.cycles-1)*100:+.2f}%)")
    return 0


def _tune_surrogate(args, space, microarch, engine, rng):
    """Surrogate path of ``repro tune``: fitness from a registry model,
    simulator spend limited to elite re-validation."""
    from repro.opt import CompilerConfig
    from repro.serve import space_fingerprint, surrogate_search

    loaded = _registry(args).load(args.surrogate)
    declared = loaded.manifest.get("space_fingerprint")
    if declared and declared != space_fingerprint(space):
        raise SystemExit(
            f"registry model {args.surrogate!r} was fitted on a different "
            f"design space (fingerprint {declared}, current "
            f"{space_fingerprint(space)}); refit and re-save it"
        )
    if loaded.model._n_features != space.dim:
        raise SystemExit(
            f"registry model {args.surrogate!r} has "
            f"{loaded.model._n_features} features; the joint space has "
            f"{space.dim}"
        )
    print(
        f"Searching with surrogate {args.surrogate!r} "
        f"(id {loaded.id}, {loaded.manifest['family']})..."
    )
    res = surrogate_search(
        loaded.model,
        space,
        microarch,
        args.workload,
        engine,
        rng,
        input_name=args.input,
        population=60,
        generations=40,
        validate_every=args.validate_every,
        n_elites=args.elites,
    )
    default_sims = args.samples + max(15, args.samples // 5)
    print(res.summary())
    print(
        f"  (the default path would have spent {default_sims} simulator "
        f"measurements building a model)"
    )
    for v in res.validations:
        print(
            f"  elite @gen {v.generation:>3}: predicted "
            f"{v.predicted:12.0f}, measured {v.measured:12.0f} "
            f"({v.abs_pct_error:6.2f}% off)"
        )
    return CompilerConfig.from_point(res.search.best_point)


def cmd_serve(args) -> int:
    from repro.serve import PredictionServer

    registry = _registry(args)
    server = PredictionServer(
        registry=registry,
        preload=args.model,
        host=args.host,
        port=args.port,
        allow_remote_shutdown=not args.no_remote_shutdown,
    )
    host, port = server.address
    known = registry.names()
    print(f"serving registry {registry.root} on {host}:{port}")
    print(
        f"  models: {', '.join(known) if known else '(none registered yet)'}"
    )
    print("  protocol: one JSON object per line (see docs/SERVING.md)")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        server.shutdown()
        print("\nserver stopped")
    return 0


def cmd_predict(args) -> int:
    from repro.harness.configs import joint_point

    compiler = _compiler_config(args)
    microarch = _microarch(args)
    point = joint_point(compiler, microarch)
    if getattr(args, "workload", None):
        return _predict_pooled(args, compiler, point)
    if args.host:
        from repro.serve import PredictionClient

        with PredictionClient(args.host, args.port) as client:
            predicted = client.predict_point(args.model_ref, point)
        source = f"{args.host}:{args.port}"
    else:
        from repro.serve import Predictor

        predictor = Predictor.from_registry(
            args.model_ref, registry=_registry(args)
        )
        predicted = predictor.predict_point(point)
        source = f"registry {_registry(args).root}"
    print(f"model     {args.model_ref} ({source})")
    print(f"compiler  {compiler.describe()}")
    print(f"machine   {args.machine}")
    print(f"predicted {predicted:.0f} cycles")
    return 0


def _predict_pooled(args, compiler, point) -> int:
    """``repro predict --workload``: program-aware prediction from a
    pooled ``repro generalize`` model.  The feature schema always comes
    from the local registry manifest (the wire protocol ships raw
    matrices only); with ``--host`` the assembled row is evaluated by
    the server, otherwise locally."""
    from repro.space import full_space
    from repro.workgen import pooled_response, pooled_row, pooled_schema

    loaded = _registry(args).load(args.model_ref)
    schema = pooled_schema(loaded.manifest)
    if schema is None:
        raise SystemExit(
            f"registry model {args.model_ref!r} has no workgen feature "
            "schema; --workload needs a pooled model saved by "
            "`repro generalize --save`"
        )
    coded = full_space().encode(point)
    row = pooled_row(schema, coded, args.workload)
    if args.host:
        from repro.serve import PredictionClient

        with PredictionClient(args.host, args.port) as client:
            raw = client.predict(args.model_ref, [row.tolist()])
        source = f"{args.host}:{args.port}"
    else:
        from repro.serve import Predictor

        predictor = Predictor(
            loaded.model,
            name=loaded.name or loaded.id,
            model_id=loaded.id,
            input_bound=None,
        )
        raw = predictor.predict(row.reshape(1, -1))
        source = f"registry {_registry(args).root}"
    predicted = float(pooled_response(schema, raw)[0])
    in_corpus = args.workload in schema.get("workload_features", {})
    print(f"model     {args.model_ref} ({source})")
    print(f"workload  {args.workload} "
          f"({'in training corpus' if in_corpus else 'features extracted live'})")
    print(f"compiler  {compiler.describe()}")
    print(f"machine   {args.machine}")
    print(f"predicted {predicted:.0f} cycles")
    return 0


def cmd_registry(args) -> int:
    import json as _json

    registry = _registry(args)
    if args.action == "list":
        print(registry.describe())
        return 0
    if not args.ref:
        raise SystemExit("usage: repro registry show <name-or-id>")
    loaded = registry.load(args.ref)
    manifest = dict(loaded.manifest)
    manifest.pop("space", None)  # 25 variable specs drown the output
    print(_json.dumps(manifest, indent=2, sort_keys=True))
    from repro.serve import RegistryError

    try:
        history = registry.versions(args.ref)
    except RegistryError:
        history = []  # looked up by raw object id, not by name
    if history:
        print(f"\nversions ({len(history)}):")
        for v in history:
            print(f"  {v['id']}")
    return 0


def cmd_lint(args) -> int:
    import json

    from repro.analysis import lint_workload

    microarch = _microarch(args)
    progress = None
    if args.verbose and not args.json:
        progress = lambda vec: print(f"  linting {vec}...", flush=True)
    report = lint_workload(
        args.workload,
        input_name=args.input,
        n_random=args.vectors,
        seed=args.seed,
        issue_width=microarch.issue_width,
        progress=progress,
    )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.summary())
    return 0 if report.ok else 1


def cmd_analyze(args) -> int:
    """Static analysis summary + optimization-remark sweep.

    Single mode (default) compiles one configured point under a remark
    collector; ``--vectors N`` sweeps the lint corner configs plus N
    seeded random flag vectors.  ``--check`` gates on the analysis
    invariants (:meth:`ModuleSummary.check`) and on the remark stream
    being schema-valid; ``--drift GOLDEN`` additionally cross-checks the
    static cost model and remark benefit claims against a golden
    measurement fixture.
    """
    import copy
    import json

    from repro.analysis.static import remarks
    from repro.analysis.static.analyses import analyze_module
    from repro.codegen import compile_module
    from repro.opt.cleanup import cleanup_module
    from repro.workloads import get_workload

    microarch = _microarch(args)
    base = get_workload(args.workload).module(args.input)
    exit_code = 0

    # -- static analysis summary (over the post-cleanup module, the
    # form every pipeline run starts from) -----------------------------
    module = copy.deepcopy(base)
    cleanup_module(module)
    summary = analyze_module(module)
    n_loops = sum(len(f.loops) for f in summary.functions.values())
    n_streams = sum(len(f.streams) for f in summary.functions.values())
    n_branches = sum(len(f.branches) for f in summary.functions.values())
    print(
        f"analyze {args.workload}/{args.input}: "
        f"{len(summary.functions)} function(s), "
        f"{summary.total_instrs} instruction(s), {n_loops} loop(s), "
        f"{n_streams} memory stream(s), {n_branches} branch(es)"
    )
    if args.summary:
        print(json.dumps(summary.to_dict(), indent=2, sort_keys=True))
    if args.check:
        problems = summary.check(module)
        if problems:
            exit_code = 1
            print(f"ANALYSIS INVARIANT VIOLATIONS ({len(problems)}):")
            for p in problems:
                print(f"  {p}")
        else:
            print("invariants: ok")

    # -- remark sweep ---------------------------------------------------
    if args.vectors is not None:
        from repro.analysis.lint import lint_vectors

        vectors = lint_vectors(args.vectors, args.seed)
    else:
        vectors = [("single", _compiler_config(args))]

    all_lines: List[str] = []
    for vec_name, config in vectors:
        with remarks.collecting() as rc:
            compile_module(
                copy.deepcopy(base),
                config,
                issue_width=microarch.issue_width,
            )
        all_lines.extend(
            remarks.report_lines(
                rc.remarks,
                header={
                    "workload": args.workload,
                    "input": args.input,
                    "vector": vec_name,
                    "machine": args.machine,
                },
            )
        )
        counts = rc.counts()
        fired = sum(c.get("fired", 0) for c in counts.values())
        declined = sum(c.get("declined", 0) for c in counts.values())
        print(
            f"[{vec_name}] {len(rc.remarks)} remark(s): "
            f"{fired} fired, {declined} declined"
        )
        if args.verbose:
            for r in rc.remarks:
                mark = "+" if r.action == "fired" else "-"
                print(
                    f"  {mark} {r.pass_name:9s} "
                    f"{r.function}:{r.location}  {r.reason}"
                )

    if args.check:
        stream_problems = remarks.validate_report_lines(all_lines)
        if stream_problems:
            exit_code = 1
            print(f"REMARK STREAM INVALID ({len(stream_problems)}):")
            for p in stream_problems:
                print(f"  {p}")
        else:
            print("remark stream: schema-valid")

    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text("\n".join(all_lines) + "\n")
        print(f"report -> {out} ({len(all_lines)} lines)")

    # -- drift lint -----------------------------------------------------
    if args.drift:
        from repro.analysis.static.driftlint import drift_lint

        report = drift_lint(args.drift)
        for w, corr in sorted(report.correlations.items()):
            print(f"  drift {w:9s} estimate rank corr {corr:+.3f}")
        for pass_name, (r, t) in sorted(report.votes.items()):
            print(f"  drift {pass_name:9s} claims refuted {r}/{t}")
        if report.ok:
            print("drift: ok")
        else:
            exit_code = 1
            print(f"DRIFT FINDINGS ({len(report.findings)}):")
            for f in report.findings:
                print(f"  {f}")

    return exit_code


def _metrics_path() -> Optional[Path]:
    """Where cross-run metrics accumulate; None when persistence is off."""
    from repro.store import cache_dir

    directory = cache_dir()
    return directory / "metrics.json" if directory is not None else None


def _trace_out_dir() -> Path:
    return Path(os.environ.get("REPRO_TRACE_DIR", ".repro_trace"))


_TRACE_DUMPED = False


def _dump_trace(out_dir: Path) -> None:
    """Write trace.jsonl / trace.chrome.json / report.txt and print the
    self-timing report.  No-op if no spans were collected."""
    global _TRACE_DUMPED
    from repro.obs import get_tracer, self_timing_report, to_chrome_trace, to_jsonl

    spans = get_tracer().spans
    if not spans:
        return
    _TRACE_DUMPED = True
    out_dir.mkdir(parents=True, exist_ok=True)
    to_jsonl(spans, out_dir / "trace.jsonl")
    to_chrome_trace(spans, out_dir / "trace.chrome.json")
    report = self_timing_report(spans)
    (out_dir / "report.txt").write_text(report + "\n")
    print(
        f"\n[trace] {len(spans)} spans -> {out_dir / 'trace.jsonl'}, "
        f"{out_dir / 'trace.chrome.json'} (open in chrome://tracing or Perfetto)"
    )
    print(report)


def cmd_trace(args) -> int:
    from repro.obs import get_tracer

    rest = list(args.rest)
    if rest and rest[0] == "--":
        rest = rest[1:]
    if not rest:
        raise SystemExit("usage: repro trace [--out DIR] <command> [args...]")
    tracer = get_tracer()
    tracer.reset()
    tracer.enable()
    try:
        rc = main(rest)
    finally:
        _dump_trace(Path(args.out) if args.out else _trace_out_dir())
    return rc


def cmd_stats(args) -> int:
    import json as _json

    from repro.obs import get_registry
    from repro.obs.metrics import MetricsRegistry, format_report

    path = _metrics_path()
    if args.reset:
        get_registry().reset()
        if path is not None and path.exists():
            path.unlink()
        print("metrics reset")
        return 0
    persisted = MetricsRegistry.load_persisted(path) if path is not None else None
    live = get_registry().snapshot()
    has_live = bool(live["counters"]) or any(
        s.get("count") for s in live["histograms"].values()
    )
    if args.json:
        from repro.obs.metrics import summarize_histogram_entry

        def normalized(snap):
            return {
                "counters": dict(snap.get("counters") or {}),
                "histograms": {
                    name: summarize_histogram_entry(dict(entry))
                    for name, entry in (snap.get("histograms") or {}).items()
                },
            }

        print(
            _json.dumps(
                {
                    "path": str(path) if path is not None else None,
                    "persisted": normalized(persisted) if persisted else None,
                    "live": normalized(live) if has_live else None,
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    if persisted:
        print(f"cumulative metrics ({path})")
        print(format_report(persisted))
        if has_live:
            print("\nthis process")
            print(format_report(live))
    elif has_live:
        print(format_report(live))
    else:
        print("(no metrics recorded; run a measurement command first)")
    return 0


_AGE_UNITS = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0, "w": 604800.0}


def _parse_age(text: str) -> float:
    """``"90"``/``"90s"``/``"15m"``/``"6h"``/``"7d"`` -> seconds."""
    text = text.strip().lower()
    unit = 1.0
    if text and text[-1] in _AGE_UNITS:
        unit = _AGE_UNITS[text[-1]]
        text = text[:-1]
    try:
        seconds = float(text) * unit
    except ValueError:
        raise SystemExit(
            f"bad age {text!r}: expected NUMBER[s|m|h|d|w], e.g. 6h or 7d"
        )
    if seconds < 0:
        raise SystemExit("age must be non-negative")
    return seconds


def _ledger(args):
    from repro.obs.ledger import Ledger, default_ledger_path

    path = Path(args.path) if getattr(args, "path", None) else default_ledger_path()
    if path is None:
        raise SystemExit(
            "no ledger available: set REPRO_LEDGER_PATH or enable the "
            "cache directory (REPRO_CACHE_DIR)"
        )
    return Ledger(path)


def cmd_ledger(args) -> int:
    import json as _json

    ledger = _ledger(args)
    if args.action == "verify":
        report = ledger.verify()
        print(f"ledger {ledger.path}")
        print(report.summary())
        return 0 if report.ok else 1
    if args.action == "compact":
        if args.max_age is None and args.max_events is None:
            raise SystemExit(
                "repro ledger compact needs --max-age and/or --max-events"
            )
        result = ledger.compact(
            max_age_s=_parse_age(args.max_age) if args.max_age else None,
            max_events=args.max_events,
        )
        print(
            f"ledger {ledger.path}: kept {result['kept']} event(s), "
            f"dropped {result['dropped']}"
        )
        return 0
    # list
    events = ledger.events(kind=args.kind, run=args.run, limit=args.limit)
    if args.json:
        for e in events:
            print(e.to_json())
        return 0
    if not events:
        print(f"(ledger {ledger.path} has no matching events)")
        return 0
    import time as _time

    print(f"ledger {ledger.path}: {len(events)} event(s)")
    for e in events:
        when = _time.strftime("%Y-%m-%d %H:%M:%S", _time.localtime(e.ts))
        brief = {
            "measure_batch": lambda a, r: (
                f"{a.get('workload')}/{a.get('input')} "
                f"{a.get('n_points')} pts ({a.get('n_misses')} sims)"
            ),
            "model_fit": lambda a, r: (
                f"{a.get('family')} on {a.get('workload')}/{a.get('input')}, "
                f"{a.get('n_samples')} samples, "
                f"{a.get('test_error_pct', float('nan')):.2f}% err"
            ),
            "registry_publish": lambda a, r: (
                f"{a.get('name')!r} -> {r.get('model_id')}"
            ),
            "serve_session": lambda a, r: (
                f"[{a.get('phase')}] {a.get('address')} "
                + (f"{a.get('requests')} req" if a.get("phase") == "end" else "")
            ),
            "compact": lambda a, r: (
                f"dropped {a.get('dropped')}, kept {a.get('kept')}"
            ),
        }.get(e.kind, lambda a, r: "")(e.attrs, e.refs)
        print(f"  {when}  {e.run}  {e.kind:<17} {brief}")
    return 0


def cmd_lineage(args) -> int:
    import json as _json

    ledger = _ledger(args)
    lineage = ledger.lineage(args.model_ref, registry=_registry(args))
    if args.json:
        print(_json.dumps(lineage.to_dict(), indent=2, sort_keys=True))
    else:
        print(lineage.describe())
    if args.require_complete and not lineage.complete:
        return 1
    return 0


_FINAL_FLUSH_REGISTERED = False


def _register_final_flush() -> None:
    """Idempotently register an ``atexit`` flush of metrics + spans.

    The normal path flushes in :func:`main`'s ``finally`` block, but
    anything that ends the process early (an atexit-less sys.exit from
    a library, a KeyboardInterrupt swallowed upstream, embedding apps
    that call command handlers directly) would otherwise drop the tail
    of the telemetry.  ``persist`` is delta-tracked, so flushing twice
    never double-counts.
    """
    global _FINAL_FLUSH_REGISTERED
    if _FINAL_FLUSH_REGISTERED:
        return
    _FINAL_FLUSH_REGISTERED = True
    import atexit

    def _final_flush() -> None:
        try:
            _persist_metrics()
            from repro.obs.trace import _env_truthy

            if not _TRACE_DUMPED and _env_truthy(os.environ.get("REPRO_TRACE")):
                _dump_trace(_trace_out_dir())
        except Exception:  # noqa: BLE001 - dying process, best effort
            pass

    atexit.register(_final_flush)


def _persist_metrics() -> None:
    from repro.obs import get_registry

    path = _metrics_path()
    if path is None:
        return
    try:
        get_registry().persist(path)
    except OSError:
        pass  # telemetry must never break the command itself


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CGO'07 empirical compiler/microarchitecture models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("spaces", help="print the parameter tables")
    p = sub.add_parser("workloads", help="list workloads")
    p.add_argument(
        "--names-only",
        action="store_true",
        help="print bare workload names, one per line (for scripting)",
    )
    p.add_argument(
        "--corpus-seed",
        type=int,
        default=0,
        metavar="SEED",
        help="seed of the generated corpus to list (default 0)",
    )
    p.add_argument(
        "--corpus-size",
        type=int,
        default=0,
        metavar="N",
        help="also list the N-program generated corpus for --corpus-seed",
    )
    p.add_argument(
        "--families",
        default=None,
        metavar="LIST",
        help="comma-separated kernel families restricting the generated "
        "corpus (e.g. loopnest,chase); hides the built-ins",
    )

    p = sub.add_parser(
        "workgen", help="generate and gate a synthetic-workload corpus"
    )
    p.add_argument(
        "--seed", type=int, default=0, help="corpus seed (default 0)"
    )
    p.add_argument(
        "--count",
        type=int,
        default=16,
        metavar="N",
        help="programs to generate (default 16)",
    )
    p.add_argument(
        "--families",
        default=None,
        metavar="LIST",
        help="comma-separated kernel family subset (default: all)",
    )
    p.add_argument(
        "--check",
        action="store_true",
        help="run the semantic-check gate (frontend + IR interpreter vs "
        "functional simulator checksum agreement) on every program",
    )
    p.add_argument(
        "--manifest",
        default=None,
        metavar="FILE",
        help="write the reproducibility manifest (spec, grammar version, "
        "per-program source digests) to FILE",
    )
    p.add_argument(
        "--verify",
        default=None,
        metavar="FILE",
        help="regenerate the corpus recorded in manifest FILE and prove "
        "it is byte-identical (instead of generating a new one)",
    )
    p.add_argument(
        "--export",
        default=None,
        metavar="DIR",
        help="write one .mc source per program plus manifest.json to DIR",
    )
    p.add_argument(
        "--show",
        default=None,
        metavar="NAME",
        help="print one workload's source (e.g. gen-chase-7) and exit",
    )

    p = sub.add_parser(
        "generalize",
        help="fit + LOWO-evaluate a cross-program pooled model",
    )
    p.add_argument(
        "--corpus-seed",
        type=int,
        default=0,
        help="generated-corpus seed (default 0)",
    )
    p.add_argument(
        "--corpus-size",
        type=int,
        default=64,
        metavar="N",
        help="generated programs in the corpus (default 64)",
    )
    p.add_argument(
        "--families",
        default=None,
        metavar="LIST",
        help="comma-separated kernel family subset (default: all)",
    )
    p.add_argument(
        "--no-seed-workloads",
        action="store_true",
        help="exclude the 7 built-in SPEC stand-ins from the pool",
    )
    p.add_argument(
        "--points",
        type=int,
        default=48,
        metavar="N",
        help="design points measured per workload (default 48)",
    )
    p.add_argument(
        "--seed", type=int, default=0, help="design-point seed (default 0)"
    )
    p.add_argument(
        "--oracle",
        choices=["static", "accurate"],
        default="static",
        help="static: analytical cost model, microseconds per point "
        "(default); accurate: SMARTS-sampled cycle simulation",
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="emit the LOWO report as JSON instead of the table",
    )
    p.add_argument(
        "--save",
        default=None,
        metavar="NAME",
        help="publish the pooled model (fitted on the full dataset, with "
        "its feature schema) to the registry under NAME",
    )
    _add_registry_argument(p)
    _add_jobs_argument(p)

    for name, fn in (("measure", cmd_measure), ("disasm", cmd_disasm)):
        p = sub.add_parser(name, help=f"{name} a workload binary")
        p.add_argument("workload")
        p.add_argument("--input", default="train", choices=["train", "ref"])
        _add_flag_arguments(p)
        _add_verify_argument(p)
        if name == "measure":
            p.add_argument(
                "--oracle",
                choices=["accurate", "static"],
                default="accurate",
                help="accurate: compile + trace + simulate (default); "
                "static: analytical cost-model estimate from the static "
                "analysis framework -- microseconds per point, no "
                "execution, checksum 0",
            )
            p.add_argument(
                "--random-points",
                type=int,
                default=0,
                metavar="N",
                help="measure N seeded random design points (batch mode, "
                "fans out over --jobs workers) instead of one configured "
                "point",
            )
            p.add_argument(
                "--seed",
                type=int,
                default=0,
                help="random-point seed (default 0)",
            )
            _add_jobs_argument(p)
            p.add_argument(
                "--profile",
                action="store_true",
                help="run under the sampling profiler and write a "
                "collapsed-stack hotspot profile",
            )
            p.add_argument(
                "--profile-out",
                default=None,
                metavar="DIR",
                help="profile output directory (default $REPRO_TRACE_DIR "
                "or .repro_trace)",
            )

    p = sub.add_parser(
        "bench", help="run benchmark scenarios and the regression gate"
    )
    p.add_argument(
        "scenarios",
        nargs="*",
        metavar="NAME",
        help="scenario names to run (default: all discovered)",
    )
    p.add_argument(
        "--bench-dir",
        default="benchmarks",
        metavar="DIR",
        help="directory scanned for bench_*.py (default benchmarks/)",
    )
    p.add_argument(
        "--out",
        default=".",
        metavar="DIR",
        help="where BENCH_<name>.json files are written (default repo root)",
    )
    p.add_argument(
        "--baseline",
        default=None,
        metavar="DIR",
        help="directory holding baseline BENCH_*.json to gate against "
        "(default: --out, i.e. the previous results in place)",
    )
    p.add_argument(
        "--threshold",
        type=float,
        default=None,
        metavar="PCT",
        help="override every scenario's regression threshold percentage",
    )
    p.add_argument(
        "--list", action="store_true", help="list scenarios and exit"
    )

    p = sub.add_parser("model", help="build an empirical model")
    p.add_argument("workload")
    p.add_argument("--input", default="train", choices=["train", "ref"])
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--target-error", type=float, default=5.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--family",
        choices=["linear", "mars", "rbf"],
        default="rbf",
        help="model family (default rbf, the paper's most accurate)",
    )
    p.add_argument(
        "--save",
        default=None,
        metavar="NAME",
        help="persist the fitted model into the registry under NAME",
    )
    _add_registry_argument(p)
    _add_jobs_argument(p)
    _add_verify_argument(p)

    p = sub.add_parser("tune", help="model-based flag search")
    p.add_argument("workload")
    p.add_argument("--input", default="train", choices=["train", "ref"])
    p.add_argument("--samples", type=int, default=80)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--machine",
        choices=["constrained", "typical", "aggressive"],
        default="typical",
    )
    p.add_argument(
        "--surrogate",
        default=None,
        metavar="NAME",
        help="use a registry model as the fitness surrogate instead of "
        "building one (simulator spend drops to elite re-validation)",
    )
    p.add_argument(
        "--validate-every",
        type=int,
        default=10,
        metavar="G",
        help="surrogate mode: snapshot elites every G generations "
        "(default 10)",
    )
    p.add_argument(
        "--elites",
        type=int,
        default=2,
        metavar="N",
        help="surrogate mode: elites re-validated per checkpoint "
        "(default 2)",
    )
    _add_registry_argument(p)
    _add_jobs_argument(p)
    _add_verify_argument(p)

    p = sub.add_parser(
        "serve", help="serve registry models over TCP (JSON lines)"
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7425)
    p.add_argument(
        "--model",
        action="append",
        default=[],
        metavar="NAME",
        help="preload a registry model (repeatable; others load lazily)",
    )
    p.add_argument(
        "--no-remote-shutdown",
        action="store_true",
        help="ignore the wire protocol's shutdown op",
    )
    _add_registry_argument(p)

    p = sub.add_parser(
        "predict", help="predict cycles from a registry model"
    )
    p.add_argument("model_ref", metavar="model")
    _add_flag_arguments(p)
    p.add_argument(
        "--workload",
        default=None,
        metavar="NAME",
        help="program-aware prediction from a pooled `repro generalize` "
        "model (any registry-resolvable workload, incl. gen-<family>-"
        "<seed> names)",
    )
    p.add_argument(
        "--host",
        default=None,
        help="send the request to a running `repro serve` instead of "
        "loading the model locally",
    )
    p.add_argument("--port", type=int, default=7425)
    _add_registry_argument(p)

    p = sub.add_parser("registry", help="inspect the model registry")
    p.add_argument(
        "action", nargs="?", default="list", choices=["list", "show"]
    )
    p.add_argument("ref", nargs="?", default=None, metavar="name-or-id")
    _add_registry_argument(p)

    p = sub.add_parser(
        "lint", help="sweep flag vectors under full verification"
    )
    p.add_argument("workload")
    p.add_argument("--input", default="train", choices=["train", "ref"])
    p.add_argument(
        "--vectors",
        type=int,
        default=8,
        metavar="N",
        help="number of seeded random flag vectors beyond the preset "
        "corners (default 8)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--machine",
        choices=["constrained", "typical", "aggressive"],
        default="typical",
    )
    p.add_argument(
        "--verbose", action="store_true", help="print each vector as it runs"
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="emit the report as JSON (machine-readable; CI consumes it)",
    )

    p = sub.add_parser(
        "analyze",
        help="static analysis summary + optimization-remark sweep",
    )
    p.add_argument("workload")
    p.add_argument("--input", default="train", choices=["train", "ref"])
    _add_flag_arguments(p)
    p.add_argument(
        "--vectors",
        type=int,
        default=None,
        metavar="N",
        help="sweep the lint corner configs plus N seeded random flag "
        "vectors instead of the single --opt/--flag point",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="write the remark report (schema-versioned JSONL, one "
        "concatenated report per vector) to FILE",
    )
    p.add_argument(
        "--check",
        action="store_true",
        help="gate on analysis invariants and remark-stream schema "
        "validity (nonzero exit on violations)",
    )
    p.add_argument(
        "--summary",
        action="store_true",
        help="dump the full ModuleSummary as JSON",
    )
    p.add_argument(
        "--drift",
        default=None,
        metavar="GOLDEN",
        help="cross-check static estimates and remark benefit claims "
        "against a golden measurement fixture (JSON list of "
        "{workload, label, point, cycles} records)",
    )
    p.add_argument(
        "--verbose",
        action="store_true",
        help="print every remark, not just per-vector counts",
    )

    p = sub.add_parser(
        "trace", help="run a command with tracing on and dump the spans"
    )
    p.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="output directory (default $REPRO_TRACE_DIR or .repro_trace)",
    )
    p.add_argument("rest", nargs=argparse.REMAINDER, metavar="command ...")

    p = sub.add_parser("stats", help="print accumulated telemetry metrics")
    p.add_argument(
        "--reset",
        action="store_true",
        help="zero the in-process registry and delete the persisted file",
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="emit the merged persisted + live snapshot as JSON",
    )

    p = sub.add_parser(
        "ledger", help="query or maintain the provenance ledger"
    )
    p.add_argument(
        "action",
        nargs="?",
        default="list",
        choices=["list", "verify", "compact"],
    )
    p.add_argument(
        "--path",
        default=None,
        metavar="FILE",
        help="ledger file (default $REPRO_LEDGER_PATH or "
        "<cache_dir>/ledger.jsonl)",
    )
    p.add_argument(
        "--kind",
        default=None,
        metavar="KIND",
        help="list: only events of this kind (measure_batch, model_fit, "
        "registry_publish, serve_session, compact)",
    )
    p.add_argument(
        "--run",
        default=None,
        metavar="RUN",
        help="list: only events from this run id",
    )
    p.add_argument(
        "--limit",
        type=int,
        default=None,
        metavar="N",
        help="list: only the newest N matching events",
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="list: one raw JSON event per line",
    )
    p.add_argument(
        "--max-age",
        default=None,
        metavar="AGE",
        help="compact: drop events older than AGE (e.g. 30d)",
    )
    p.add_argument(
        "--max-events",
        type=int,
        default=None,
        metavar="N",
        help="compact: keep at most the N newest events",
    )

    p = sub.add_parser(
        "lineage", help="reconstruct a model's provenance chain"
    )
    p.add_argument("model_ref", metavar="model")
    p.add_argument(
        "--path",
        default=None,
        metavar="FILE",
        help="ledger file (default $REPRO_LEDGER_PATH or "
        "<cache_dir>/ledger.jsonl)",
    )
    p.add_argument(
        "--json", action="store_true", help="emit the chain as JSON"
    )
    p.add_argument(
        "--require-complete",
        action="store_true",
        help="exit nonzero unless the publish->fit->measurements chain "
        "is fully recorded",
    )
    _add_registry_argument(p)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "spaces": cmd_spaces,
        "workloads": cmd_workloads,
        "workgen": cmd_workgen,
        "generalize": cmd_generalize,
        "measure": cmd_measure,
        "bench": cmd_bench,
        "disasm": cmd_disasm,
        "model": cmd_model,
        "tune": cmd_tune,
        "serve": cmd_serve,
        "predict": cmd_predict,
        "registry": cmd_registry,
        "lint": cmd_lint,
        "analyze": cmd_analyze,
        "trace": cmd_trace,
        "stats": cmd_stats,
        "ledger": cmd_ledger,
        "lineage": cmd_lineage,
    }
    _apply_verify_argument(args)
    _register_final_flush()
    try:
        return handlers[args.command](args)
    finally:
        if args.command not in ("trace", "stats", "ledger", "lineage"):
            # Accumulate counters across processes next to the
            # measurement cache, and honour REPRO_TRACE=1 runs by
            # dumping the collected spans (`repro trace` dumps itself).
            _persist_metrics()
            from repro.obs.trace import _env_truthy

            if _env_truthy(os.environ.get("REPRO_TRACE")):
                _dump_trace(_trace_out_dir())


if __name__ == "__main__":
    sys.exit(main())


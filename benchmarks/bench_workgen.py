"""Workload-generation throughput: grammar emission, the semantic-check
gate, and static feature extraction.

The generator is on the hot path of every ``repro generalize`` run (the
corpus is *regenerated* from its seed each time -- nothing is stored)
and of every measurement-pool worker resolving a ``gen-<family>-<seed>``
name, so emission has to stay cheap.  Gated metrics, all
higher-is-better rates:

* ``programs_per_s`` -- grammar emission alone (generate + render
  source), over a mixed-family corpus.
* ``gate_checks_per_s`` -- the full admission gate: MiniC frontend, IR
  interpretation, O0 compile and functional simulation with checksum
  comparison.  This bounds how fast a fresh corpus can be admitted.
* ``feature_extractions_per_s`` -- static program-feature vectors
  (module summary -> 23 features) on cold caches; the pooled-model
  fitting path pays this once per workload.

Seeded corpora make every run see identical programs: 256 emitted, the
first 32 of them gated and feature-extracted.  So the committed
``BENCH_workgen.json`` baseline, CI's run and re-runs are comparing
like with like.
"""

import time

from repro.obs import BenchScenario

SEED = 20260807


def _bench() -> dict:
    from repro.workgen import CorpusSpec, check_corpus, generate_corpus
    from repro.workgen.features import static_features

    n_generate = 256
    n_gate = 32

    # Emission throughput (includes name/param derivation + rendering).
    t0 = time.perf_counter()
    programs = generate_corpus(CorpusSpec(seed=SEED, count=n_generate))
    gen_s = time.perf_counter() - t0

    # Admission-gate throughput on the corpus prefix.
    gated = programs[:n_gate]
    t0 = time.perf_counter()
    check_corpus(gated)
    gate_s = time.perf_counter() - t0

    # Static feature extraction, cold (fresh module + summary each time).
    from repro.analysis.static.analyses import analyze_module
    from repro.minic import compile_source

    t0 = time.perf_counter()
    for p in gated:
        module = compile_source(p.source, name=p.name)
        static_features(analyze_module(module))
    feat_s = time.perf_counter() - t0

    return {
        "programs_per_s": n_generate / max(gen_s, 1e-9),
        "gate_checks_per_s": n_gate / max(gate_s, 1e-9),
        "feature_extractions_per_s": n_gate / max(feat_s, 1e-9),
        "n_programs": float(n_generate),
        "n_gated": float(n_gate),
    }


BENCH_SCENARIO = BenchScenario(
    name="workgen",
    description="workload generation, semantic gate and feature throughput",
    run=_bench,
    gates={
        "programs_per_s": "higher",
        "gate_checks_per_s": "higher",
        "feature_extractions_per_s": "higher",
    },
    threshold_pct=50.0,
)

"""Tests for the grammar-driven workload generator (repro.workgen).

Covers the ISSUE-10 guarantees: seed determinism (in-process and across
interpreter instances with different hash seeds), the semantic-check
gate over a substantial corpus, grammar family coverage, manifest
round-trips with tamper detection, registry resolution of generated
names, and the ``repro workgen`` / ``repro workloads`` CLI surface.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.workgen import (
    GRAMMAR_VERSION,
    CorpusSpec,
    GrammarError,
    SemanticCheckFailure,
    check_program,
    corpus_digest,
    default_grammar,
    generate_corpus,
    load_manifest,
    parse_name,
    program_name,
    verify_manifest,
    write_manifest,
)
from repro.workgen.corpus import (
    check_corpus,
    export_corpus,
    manifest_dict,
    spec_from_manifest,
)

SRC_DIR = str(Path(__file__).resolve().parents[1] / "src")


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------
class TestDeterminism:
    def test_same_spec_same_corpus(self):
        spec = CorpusSpec(seed=7, count=12)
        a = generate_corpus(spec)
        b = generate_corpus(spec)
        assert [p.name for p in a] == [p.name for p in b]
        assert [p.source for p in a] == [p.source for p in b]
        assert corpus_digest(a) == corpus_digest(b)

    def test_different_seeds_differ(self):
        a = generate_corpus(CorpusSpec(seed=0, count=8))
        b = generate_corpus(CorpusSpec(seed=1, count=8))
        assert corpus_digest(a) != corpus_digest(b)

    def test_name_regenerates_program(self):
        grammar = default_grammar()
        program = grammar.generate("chase", 42)
        parsed = parse_name(program.name)
        assert parsed == ("chase", 42)
        again = grammar.generate(*parsed)
        assert again.source == program.source

    def test_name_round_trip(self):
        assert program_name("loopnest", 5) == "gen-loopnest-5"
        assert parse_name("gen-loopnest-5") == ("loopnest", 5)
        assert parse_name("gzip") is None
        assert parse_name("gen-loopnest-x") is None

    @pytest.mark.parametrize("hash_seed", ["0", "12345"])
    def test_cross_process_digest(self, hash_seed):
        """The corpus digest must not depend on Python's randomized
        string hashing -- pool workers and future sessions regenerate
        programs from names alone."""
        expected = corpus_digest(generate_corpus(CorpusSpec(seed=3, count=6)))
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = hash_seed
        env["PYTHONPATH"] = SRC_DIR
        env["REPRO_LEDGER"] = "off"
        out = subprocess.run(
            [
                sys.executable,
                "-c",
                "from repro.workgen import CorpusSpec, corpus_digest, "
                "generate_corpus; "
                "print(corpus_digest(generate_corpus("
                "CorpusSpec(seed=3, count=6))))",
            ],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == expected


# ----------------------------------------------------------------------
# Family coverage
# ----------------------------------------------------------------------
class TestFamilyCoverage:
    def test_small_corpus_covers_every_family_once(self):
        grammar = default_grammar()
        programs = generate_corpus(
            CorpusSpec(seed=0, count=len(grammar.families))
        )
        assert [p.family for p in programs] == list(grammar.families)

    def test_large_corpus_uses_every_family(self):
        grammar = default_grammar()
        programs = generate_corpus(CorpusSpec(seed=0, count=60))
        assert {p.family for p in programs} == set(grammar.families)

    def test_family_subset_respected(self):
        programs = generate_corpus(
            CorpusSpec(seed=0, count=10, families=("fppipe", "chase"))
        )
        assert {p.family for p in programs} == {"chase", "fppipe"}
        # Grammar order, not request order, decides the coverage prefix.
        assert [p.family for p in programs[:2]] == ["chase", "fppipe"]

    def test_unknown_family_rejected(self):
        with pytest.raises(GrammarError, match="unknown families"):
            generate_corpus(CorpusSpec(seed=0, count=4, families=("qux",)))

    def test_empty_corpus_rejected(self):
        with pytest.raises(GrammarError, match="count"):
            generate_corpus(CorpusSpec(seed=0, count=0))

    def test_no_name_collisions(self):
        programs = generate_corpus(CorpusSpec(seed=0, count=120))
        names = [p.name for p in programs]
        assert len(set(names)) == len(names)


# ----------------------------------------------------------------------
# Semantic-check gate
# ----------------------------------------------------------------------
class TestSemanticGate:
    def test_two_hundred_programs_pass_the_gate(self):
        """Every generated program must survive the full frontend and
        agree between the IR interpreter and the functional simulator
        (the ISSUE's >= 200 admission bar)."""
        programs = generate_corpus(CorpusSpec(seed=123, count=200))
        results = check_corpus(programs)
        assert len(results) == 200
        for result in results:
            assert result.dynamic_instructions > 0

    def test_gate_rejects_broken_program(self):
        grammar = default_grammar()
        program = grammar.generate("reduce", 0)
        broken = type(program)(
            name=program.name,
            family=program.family,
            seed=program.seed,
            params=program.params,
            source=program.source.replace("int main", "float main", 1),
        )
        with pytest.raises(SemanticCheckFailure) as exc:
            check_program(broken)
        # The failure message embeds the offending source for diagnosis.
        assert "float main" in str(exc.value)


# ----------------------------------------------------------------------
# Manifests
# ----------------------------------------------------------------------
class TestManifest:
    def test_round_trip_and_verify(self, tmp_path):
        spec = CorpusSpec(seed=11, count=5, families=("loopnest", "branchy"))
        programs = generate_corpus(spec)
        path = tmp_path / "manifest.json"
        write_manifest(str(path), spec, programs)
        manifest = load_manifest(str(path))
        assert manifest["grammar_version"] == GRAMMAR_VERSION
        assert spec_from_manifest(manifest) == spec
        assert verify_manifest(manifest) == []

    def test_tampered_digest_detected(self, tmp_path):
        spec = CorpusSpec(seed=1, count=3)
        programs = generate_corpus(spec)
        manifest = manifest_dict(spec, programs)
        manifest["programs"][1]["digest"] = "0" * 32
        problems = verify_manifest(manifest)
        assert any("digest mismatch" in p for p in problems)

    def test_grammar_version_drift_detected(self):
        spec = CorpusSpec(seed=1, count=3)
        manifest = manifest_dict(spec, generate_corpus(spec))
        manifest["grammar_version"] = GRAMMAR_VERSION + 1
        problems = verify_manifest(manifest)
        assert any("grammar version" in p for p in problems)

    def test_schema_version_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema_version": 999}))
        with pytest.raises(ValueError, match="schema"):
            load_manifest(str(path))

    def test_export_corpus(self, tmp_path):
        spec = CorpusSpec(seed=2, count=4)
        programs = generate_corpus(spec)
        root = export_corpus(str(tmp_path / "corpus"), spec, programs)
        for p in programs:
            assert (root / f"{p.name}.mc").read_text() == p.source
        manifest = load_manifest(str(root / "manifest.json"))
        assert verify_manifest(manifest) == []


# ----------------------------------------------------------------------
# Registry integration
# ----------------------------------------------------------------------
class TestDynamicFeatures:
    def test_features_match_a_scan_of_the_capped_trace(self, monkeypatch):
        import math

        from repro.codegen import compile_module
        from repro.codegen.isa import OpClass
        from repro.opt import CompilerConfig
        from repro.sim.func import execute
        from repro.workgen import features
        from repro.workloads import get_workload

        monkeypatch.setattr(features, "TRACE_EVENT_CAP", 5000)
        module = get_workload("gen-chase-3").module("train")
        exe = compile_module(module, CompilerConfig(), issue_width=4)
        functional = execute(exe)
        assert functional.instruction_count > 5000
        pcs = functional.trace.pcs[:5000].tolist()
        eas = functional.trace.eas[:5000].tolist()
        n_mem = n_branch = 0
        addrs = set()
        for pc, ea in zip(pcs, eas):
            cls = exe.instrs[pc].op_class
            if cls is OpClass.LOAD or cls is OpClass.STORE:
                n_mem += 1
                if ea >= 0:
                    addrs.add(ea)
            elif cls is OpClass.BRANCH:
                n_branch += 1
        assert features.dynamic_features(exe, functional) == {
            "dy_log_instrs": math.log1p(functional.instruction_count),
            "dy_mem_frac": n_mem / 5000,
            "dy_log_working_set": math.log1p(len(addrs)),
            "dy_branch_frac": n_branch / 5000,
        }


class TestRegistryIntegration:
    def test_get_workload_resolves_generated_names(self):
        from repro.workloads import get_workload

        w = get_workload("gen-chase-42")
        assert w.origin == "generated"
        assert w.source_tag() == "generated(seed=42)"
        assert w.input_names() == ["train", "ref"]
        # Same program as the grammar produces directly.
        program = default_grammar().generate("chase", 42)
        assert w.source("train") == program.source
        # Cached: the same object comes back.
        assert get_workload("gen-chase-42") is w

    def test_generated_module_compiles(self):
        from repro.workloads import get_workload

        module = get_workload("gen-reduce-7").module("train")
        assert module.functions

    def test_builtins_untouched(self):
        from repro.workloads import WORKLOADS, get_workload, workload_names

        assert workload_names() == list(WORKLOADS)
        assert get_workload("gzip").origin == "builtin"
        assert get_workload("gzip").source_tag() == "builtin"

    def test_unknown_names_still_rejected(self):
        from repro.workloads import get_workload

        with pytest.raises(KeyError):
            get_workload("gen-nosuchfamily-3")
        with pytest.raises(KeyError):
            get_workload("nosuchworkload")

    def test_generated_workload_measurable(self):
        """The measurement engine treats a generated name like any
        other workload (static oracle: no execution)."""
        from repro.harness.measure import MeasurementEngine
        from repro.space import full_space

        engine = MeasurementEngine(mode="static")
        space = full_space()
        point = space.decode([0.0] * space.dim)
        m = engine.measure("gen-loopnest-5", point, "train")
        assert m.cycles > 0


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCli:
    def test_workgen_generate_check_manifest(self, tmp_path, capsys):
        from repro.cli import main

        manifest_path = tmp_path / "m.json"
        rc = main(
            [
                "workgen",
                "--seed",
                "4",
                "--count",
                "3",
                "--check",
                "--manifest",
                str(manifest_path),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "semantic gate: 3/3 passed" in out
        assert manifest_path.exists()
        rc = main(["workgen", "--verify", str(manifest_path)])
        assert rc == 0
        assert "byte-identically" in capsys.readouterr().out

    def test_workgen_verify_tampered_manifest_fails(self, tmp_path, capsys):
        from repro.cli import main

        spec = CorpusSpec(seed=4, count=3)
        manifest = manifest_dict(spec, generate_corpus(spec))
        manifest["programs"][0]["digest"] = "f" * 32
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(manifest))
        rc = main(["workgen", "--verify", str(path)])
        assert rc == 1
        assert "FAILED" in capsys.readouterr().out

    def test_workgen_show(self, capsys):
        from repro.cli import main

        assert main(["workgen", "--show", "gen-branchy-9"]) == 0
        out = capsys.readouterr().out
        assert "int main()" in out

    def test_workgen_export(self, tmp_path, capsys):
        from repro.cli import main

        rc = main(
            ["workgen", "--count", "2", "--export", str(tmp_path / "c")]
        )
        assert rc == 0
        assert (tmp_path / "c" / "manifest.json").exists()
        assert len(list((tmp_path / "c").glob("*.mc"))) == 2

    def test_workloads_lists_generated_corpus(self, capsys):
        from repro.cli import main

        rc = main(["workloads", "--corpus-size", "3", "--corpus-seed", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "source: builtin" in out
        assert "source: generated(seed=" in out

    def test_workloads_families_filter(self, capsys):
        from repro.cli import main

        rc = main(
            [
                "workloads",
                "--corpus-size",
                "4",
                "--families",
                "chase",
                "--names-only",
            ]
        )
        out = capsys.readouterr().out.strip().splitlines()
        assert rc == 0
        assert len(out) == 4
        assert all(name.startswith("gen-chase-") for name in out)

    def test_workloads_families_without_corpus_rejected(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["workloads", "--families", "chase"])

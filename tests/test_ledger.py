"""Tests for the provenance ledger: events, verification, retention,
concurrent writers, and end-to-end lineage reconstruction."""

import json
import multiprocessing
import os
import time

import numpy as np
import pytest

from repro.obs.ledger import (
    LEDGER_SCHEMA_VERSION,
    MAX_RESULT_KEYS_PER_EVENT,
    Ledger,
    LedgerEvent,
    cap_result_keys,
    default_ledger,
    default_ledger_path,
    record_event,
    reset_default_ledger,
    set_default_ledger,
)


@pytest.fixture
def ledger(tmp_path):
    """A tmp ledger installed as the process default."""
    led = Ledger(tmp_path / "ledger.jsonl")
    set_default_ledger(led)
    yield led
    reset_default_ledger()


# ----------------------------------------------------------------------
# Event round-trip + querying
# ----------------------------------------------------------------------
class TestEvents:
    def test_append_and_read_back(self, ledger):
        e = ledger.append(
            "measure_batch",
            attrs={"workload": "gzip", "n_points": 3},
            refs={"result_keys": ["a", "b", "c"]},
        )
        assert e.schema == LEDGER_SCHEMA_VERSION
        assert e.run and e.event_id and e.pid == os.getpid()
        (got,) = ledger.events()
        assert got.kind == "measure_batch"
        assert got.attrs["workload"] == "gzip"
        assert got.refs["result_keys"] == ["a", "b", "c"]
        assert got.event_id == e.event_id

    def test_json_round_trip(self):
        e = LedgerEvent(
            kind="alert",
            ts=123.5,
            run="r1",
            event_id="e1",
            pid=7,
            attrs={"rule": "x"},
        )
        back = LedgerEvent.from_json(e.to_json())
        assert back == e

    def test_filtering(self, ledger):
        ledger.append("model_fit", attrs={"i": 0})
        ledger.append("measure_batch", attrs={"i": 1})
        ledger.append("model_fit", attrs={"i": 2})
        fits = ledger.events(kind="model_fit")
        assert [e.attrs["i"] for e in fits] == [0, 2]
        assert len(ledger.events(limit=2)) == 2
        assert ledger.events(limit=2)[-1].attrs["i"] == 2
        assert ledger.events(run="nope") == []
        assert len(ledger.events(run=fits[0].run)) == 3

    def test_since_filter(self, ledger):
        ledger.append("model_fit")
        cut = time.time() + 60
        assert ledger.events(since=cut) == []
        assert len(ledger.events(since=0)) == 1

    def test_missing_file_is_empty(self, tmp_path):
        led = Ledger(tmp_path / "nope.jsonl")
        assert led.events() == []
        assert led.verify().ok

    def test_corrupt_lines_skipped_by_events(self, ledger):
        ledger.append("model_fit")
        with open(ledger.path, "a") as f:
            f.write("this is not json\n")
        ledger.append("model_fit")
        assert len(ledger.events()) == 2

    def test_cap_result_keys(self):
        keys = [f"k{i}" for i in range(MAX_RESULT_KEYS_PER_EVENT + 50)]
        capped = cap_result_keys(keys)
        assert len(capped) == MAX_RESULT_KEYS_PER_EVENT
        assert capped[0] == "k0"


# ----------------------------------------------------------------------
# Verification
# ----------------------------------------------------------------------
class TestVerify:
    def test_clean_ledger_verifies(self, ledger):
        for _ in range(5):
            ledger.append("measure_batch")
        report = ledger.verify()
        assert report.ok
        assert report.n_events == 5
        assert report.by_kind == {"measure_batch": 5}
        assert "no issues" in report.summary()

    def test_detects_garbage_line(self, ledger):
        ledger.append("model_fit")
        with open(ledger.path, "a") as f:
            f.write("{broken\n")
        report = ledger.verify()
        assert not report.ok
        assert any("unparseable" in i for i in report.issues)

    def test_detects_duplicate_event_id(self, ledger):
        e = ledger.append("model_fit")
        with open(ledger.path, "a") as f:
            f.write(e.to_json() + "\n")
        report = ledger.verify()
        assert any("duplicate event id" in i for i in report.issues)

    def test_detects_schema_mismatch(self, ledger):
        e = ledger.append("model_fit")
        obj = json.loads(e.to_json())
        obj["schema"] = 999
        obj["id"] = "ffff0000ffff0000"
        with open(ledger.path, "a") as f:
            f.write(json.dumps(obj) + "\n")
        report = ledger.verify()
        assert any("schema 999" in i for i in report.issues)

    def test_detects_time_regression_within_run(self, ledger):
        e = ledger.append("model_fit")
        obj = json.loads(e.to_json())
        obj["ts"] = e.ts - 100.0
        obj["id"] = "eeee0000eeee0000"
        with open(ledger.path, "a") as f:
            f.write(json.dumps(obj) + "\n")
        report = ledger.verify()
        assert any("time went backwards" in i for i in report.issues)


# ----------------------------------------------------------------------
# Retention
# ----------------------------------------------------------------------
class TestCompact:
    def _backdate(self, ledger, age_s):
        """Rewrite every stored event's ts to be age_s seconds old."""
        events = ledger.events()
        with open(ledger.path, "w") as f:
            for e in events:
                obj = json.loads(e.to_json())
                obj["ts"] = time.time() - age_s
                f.write(json.dumps(obj) + "\n")

    def test_compact_by_age(self, ledger):
        for _ in range(3):
            ledger.append("measure_batch")
        self._backdate(ledger, 3600)
        ledger.append("model_fit")
        result = ledger.compact(max_age_s=60)
        assert result == {"kept": 1, "dropped": 3}
        kinds = [e.kind for e in ledger.events()]
        # The surviving new event plus the compact event recording the sweep.
        assert kinds == ["model_fit", "compact"]

    def test_compact_by_count(self, ledger):
        for i in range(6):
            ledger.append("measure_batch", attrs={"i": i})
        result = ledger.compact(max_events=2)
        assert result["dropped"] == 4
        kept = [e for e in ledger.events() if e.kind == "measure_batch"]
        assert [e.attrs["i"] for e in kept] == [4, 5]

    def test_compact_noop_records_nothing(self, ledger):
        ledger.append("measure_batch")
        result = ledger.compact(max_age_s=3600)
        assert result == {"kept": 1, "dropped": 0}
        assert [e.kind for e in ledger.events()] == ["measure_batch"]


# ----------------------------------------------------------------------
# Default-ledger resolution + record_event
# ----------------------------------------------------------------------
class TestDefaultLedger:
    def test_off_switch(self, monkeypatch):
        monkeypatch.setenv("REPRO_LEDGER", "off")
        reset_default_ledger()
        try:
            assert default_ledger_path() is None
            assert default_ledger() is None
            assert record_event("model_fit") is None
        finally:
            reset_default_ledger()

    def test_explicit_path_wins_over_disabled_cache(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_LEDGER", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", "off")
        monkeypatch.setenv("REPRO_LEDGER_PATH", str(tmp_path / "l.jsonl"))
        reset_default_ledger()
        try:
            assert default_ledger_path() == tmp_path / "l.jsonl"
            e = record_event("model_fit", attrs={"x": 1})
            assert e is not None
            assert (tmp_path / "l.jsonl").exists()
        finally:
            reset_default_ledger()

    def test_disabled_cache_disables_ledger(self, monkeypatch):
        monkeypatch.delenv("REPRO_LEDGER", raising=False)
        monkeypatch.delenv("REPRO_LEDGER_PATH", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", "off")
        reset_default_ledger()
        try:
            assert default_ledger_path() is None
        finally:
            reset_default_ledger()

    def test_cache_dir_placement(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_LEDGER", raising=False)
        monkeypatch.delenv("REPRO_LEDGER_PATH", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        reset_default_ledger()
        try:
            assert default_ledger_path() == tmp_path / "ledger.jsonl"
        finally:
            reset_default_ledger()


# ----------------------------------------------------------------------
# Concurrent writers (the acceptance criterion: events survive
# concurrent appenders, reusing the cache's flock+O_APPEND discipline)
# ----------------------------------------------------------------------
def _hammer_ledger(path, worker, n_events):
    led = Ledger(path)
    for i in range(n_events):
        led.append("measure_batch", attrs={"worker": worker, "i": i})


class TestConcurrentWriters:
    def test_parallel_processes_never_corrupt(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        n_workers, n_events = 4, 25
        ctx = multiprocessing.get_context("fork")
        procs = [
            ctx.Process(target=_hammer_ledger, args=(path, w, n_events))
            for w in range(n_workers)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
            assert p.exitcode == 0
        led = Ledger(path)
        report = led.verify()
        assert report.ok, report.issues
        events = led.events()
        assert len(events) == n_workers * n_events
        # Every worker's full sequence must be present, in its order.
        for w in range(n_workers):
            seq = [e.attrs["i"] for e in events if e.attrs["worker"] == w]
            assert seq == list(range(n_events))


# ----------------------------------------------------------------------
# measure_batch events reference result keys by digest
# ----------------------------------------------------------------------
class TestMeasureBatchEvent:
    def test_full_batch_line_is_bounded(self, ledger):
        """A result key carries the full timing key (~400 characters),
        so 256 whole keys would make a ~100 KB line; digests keep it
        small."""
        import hashlib

        from repro.harness.measure import MeasurementEngine
        from repro.space import full_space

        space = full_space()
        rng = np.random.default_rng(0)
        points = [space.random_point(rng) for _ in range(MAX_RESULT_KEYS_PER_EVENT)]
        engine = MeasurementEngine(mode="static")
        engine.measure_batch("gzip", points, jobs=1)
        lines = ledger.path.read_bytes().splitlines()
        assert len(lines) == 1
        assert len(lines[0]) <= 8 * 1024
        digests = ledger.events(kind="measure_batch")[0].refs["result_keys"]
        cached = {
            hashlib.md5(key.encode(), usedforsecurity=False).hexdigest()[:16]
            for key in engine._result_cache
        }
        assert len(digests) == len(engine._result_cache) == len(points)
        assert set(digests) == cached


# ----------------------------------------------------------------------
# End-to-end lineage: train -> publish -> serve, all in-process
# ----------------------------------------------------------------------
class TestLineage:
    @pytest.fixture
    def trained(self, tmp_path, ledger):
        """A tiny real model trained, published, and served once."""
        from repro.harness.measure import MeasurementEngine
        from repro.models import LinearModel
        from repro.pipeline import build_model
        from repro.serve import ModelRegistry, PredictionClient, PredictionServer
        from repro.space import full_space

        space = full_space()
        engine = MeasurementEngine(cache_dir=str(tmp_path / "cache"))
        result = build_model(
            oracle=engine.oracle("gzip", "train"),
            space=space,
            model_factory=lambda: LinearModel(variable_names=space.names),
            rng=np.random.default_rng(0),
            initial_size=3,
            batch_size=2,
            max_samples=3,
            target_error=0.0,
            n_candidates=40,
            test_size=2,
        )
        registry = ModelRegistry(tmp_path / "registry")
        entry = registry.save(result.model, "lin-e2e", space=space)
        with PredictionServer(registry=registry) as srv:
            host, port = srv.address
            with PredictionClient(host, port) as client:
                client.predict("lin-e2e", np.zeros((1, space.dim)))
        return registry, entry

    def test_chain_is_complete(self, ledger, trained):
        registry, entry = trained
        lineage = ledger.lineage("lin-e2e", registry=registry)
        assert lineage.model_id == entry.id
        assert lineage.complete
        assert len(lineage.publishes) == 1
        assert len(lineage.fits) == 1
        assert lineage.fits[0].attrs["workload"] == "gzip"
        assert lineage.batches, "measurement batches must be linked"
        assert lineage.result_keys(), "result keys must survive the chain"
        # The serve session references the published model id.
        assert any(
            entry.id in (e.refs.get("model_ids") or []) for e in lineage.serves
        )
        text = lineage.describe()
        assert "COMPLETE" in text and "lin-e2e" in text

    def test_resolves_by_name_without_registry(self, ledger, trained):
        _, entry = trained
        lineage = ledger.lineage("lin-e2e")
        assert lineage.model_id == entry.id
        assert lineage.complete

    def test_resolves_by_raw_id(self, ledger, trained):
        registry, entry = trained
        lineage = ledger.lineage(entry.id, registry=registry)
        assert lineage.complete

    def test_unknown_ref_incomplete(self, ledger, trained):
        registry, _ = trained
        lineage = ledger.lineage("no-such-model")
        assert not lineage.complete
        assert lineage.model_id is None

    def test_to_dict_is_json_serializable(self, ledger, trained):
        registry, _ = trained
        payload = json.dumps(ledger.lineage("lin-e2e", registry=registry).to_dict())
        back = json.loads(payload)
        assert back["complete"] is True


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestLedgerCli:
    def test_list_verify_and_lineage_cli(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        led = Ledger(tmp_path / "ledger.jsonl")
        led.append(
            "registry_publish",
            attrs={"name": "m"},
            refs={"model_id": "a" * 16},
        )
        monkeypatch.setenv("REPRO_LEDGER_PATH", str(led.path))
        monkeypatch.delenv("REPRO_LEDGER", raising=False)
        assert main(["ledger", "list"]) == 0
        out = capsys.readouterr().out
        assert "registry_publish" in out
        assert main(["ledger", "verify"]) == 0
        assert main(["ledger", "--json"]) == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        assert json.loads(line)["kind"] == "registry_publish"
        # Lineage of a publish-only model: reported, but incomplete.
        assert main(["lineage", "m"]) == 0
        assert main(["lineage", "m", "--require-complete"]) == 1

    def test_verify_cli_fails_on_corruption(self, tmp_path, monkeypatch):
        from repro.cli import main

        path = tmp_path / "ledger.jsonl"
        Ledger(path).append("model_fit")
        with open(path, "a") as f:
            f.write("junk\n")
        monkeypatch.setenv("REPRO_LEDGER_PATH", str(path))
        monkeypatch.delenv("REPRO_LEDGER", raising=False)
        assert main(["ledger", "verify"]) == 1

    def test_compact_cli(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        path = tmp_path / "ledger.jsonl"
        led = Ledger(path)
        for _ in range(5):
            led.append("measure_batch")
        monkeypatch.setenv("REPRO_LEDGER_PATH", str(path))
        monkeypatch.delenv("REPRO_LEDGER", raising=False)
        assert main(["ledger", "compact", "--max-events", "2"]) == 0
        assert "dropped 3" in capsys.readouterr().out

    def test_compact_cli_requires_a_policy(self, tmp_path, monkeypatch):
        from repro.cli import main

        monkeypatch.setenv("REPRO_LEDGER_PATH", str(tmp_path / "l.jsonl"))
        monkeypatch.delenv("REPRO_LEDGER", raising=False)
        with pytest.raises(SystemExit):
            main(["ledger", "compact"])

    def test_no_ledger_available_errors(self, monkeypatch):
        from repro.cli import main

        monkeypatch.setenv("REPRO_CACHE_DIR", "off")
        monkeypatch.delenv("REPRO_LEDGER_PATH", raising=False)
        monkeypatch.delenv("REPRO_LEDGER", raising=False)
        with pytest.raises(SystemExit):
            main(["ledger", "list"])

"""Tests for repro.store, the one persistence module behind every
on-disk store: the cache-directory lookup, the atomic write, the locked
read-merge-replace, quarantine of damaged files, and the stores that
use them under concurrent writers and writers that die mid-write."""

import json
import multiprocessing
import os
import random
from pathlib import Path

import numpy as np
import pytest

from repro import store
from repro.harness.measure import Measurement, MeasurementEngine
from repro.obs import counter
from repro.obs.metrics import MetricsRegistry
from repro.serve.registry import ModelRegistry
from repro.sim.memo import SIM_MEMO_VERSION, TimingMemo

QUARANTINED = counter("store.quarantined")


def _measurement(i):
    return Measurement(
        cycles=1000.0 + i,
        checksum=i,
        instructions=10 * i,
        sampling_error=0.01,
        code_size=4,
    )


def _damage(path, n_bytes=7):
    """Cut the last ``n_bytes`` off ``path``; returns what is left."""
    damaged = path.read_bytes()[:-n_bytes]
    path.write_bytes(damaged)
    return damaged


def _corrupt_files(path):
    return sorted(path.parent.glob(path.name + ".corrupt-*"))


def _linear_model(i):
    from repro.models import LinearModel

    x = np.random.default_rng(0).uniform(-1, 1, (12, 2))
    return LinearModel().fit(x, x @ np.array([1.0, float(i)]))


# ----------------------------------------------------------------------
# The primitives
# ----------------------------------------------------------------------
class TestCacheDir:
    @pytest.mark.parametrize("value", ["0", "off", "OFF", "none", ""])
    def test_off_values(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_CACHE_DIR", value)
        assert store.cache_dir() is None

    def test_default_and_override(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert store.cache_dir() == Path(".repro_cache")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert store.cache_dir() == tmp_path


class TestWriteAtomic:
    def test_failed_write_keeps_old_file_and_leaves_no_temp(self, tmp_path):
        path = tmp_path / "s.json"
        store.write_json(path, {"a": 1})

        def boom(f):
            f.write("partial")
            raise OSError("disk full")

        with pytest.raises(OSError):
            store.write_atomic(path, boom)
        assert json.loads(path.read_text()) == {"a": 1}
        assert list(tmp_path.glob("*.tmp")) == []

    def test_json_format_options(self, tmp_path):
        path = tmp_path / "s.json"
        obj = {"b": 1, "a": [2]}
        store.write_json(path, obj, newline=True, indent=1, sort_keys=True)
        expected = json.dumps(obj, indent=1, sort_keys=True) + "\n"
        assert path.read_text() == expected


class TestUpdateJson:
    def test_missing_file_merges_from_empty(self, tmp_path):
        path = tmp_path / "deep" / "s.json"
        seen = []
        store.update_json(path, lambda cur: seen.append(cur) or {"n": 1})
        assert seen == [{}]
        assert store.read_json(path) == {"n": 1}
        assert _corrupt_files(path) == []

    @pytest.mark.parametrize(
        "content", [b'{"n": 1', b"", b"[1, 2]", b"\xff\xfe\x00garbage"]
    )
    def test_unparseable_file_is_quarantined(self, tmp_path, content):
        path = tmp_path / "s.json"
        path.write_bytes(content)
        before = QUARANTINED.value
        seen = []
        store.update_json(path, lambda cur: seen.append(cur) or {"n": 2})
        assert seen == [{}]
        assert store.read_json(path) == {"n": 2}
        (aside,) = _corrupt_files(path)
        assert aside.read_bytes() == content
        assert QUARANTINED.value == before + 1

    def test_quarantined_files_get_unique_names(self, tmp_path):
        path = tmp_path / "s.json"
        for i in range(3):
            path.write_text(f"{{broken {i}")
            store.update_json(path, lambda cur: {})
        aside = _corrupt_files(path)
        assert len(aside) == 3
        assert sorted(p.read_text() for p in aside) == [
            "{broken 0", "{broken 1", "{broken 2"
        ]

    def test_read_json_never_quarantines(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text("{broken")
        assert store.read_json(path) is None
        assert store.read_json(tmp_path / "missing.json") is None
        assert path.read_text() == "{broken"
        assert _corrupt_files(path) == []


# ----------------------------------------------------------------------
# Every JSON store quarantines a damaged file instead of overwriting it
# ----------------------------------------------------------------------
class TestQuarantinePerStore:
    def test_measurement_cache(self, tmp_path):
        path = tmp_path / "measurements.json"
        full = MeasurementEngine(cache_dir=str(tmp_path))
        for i in range(100):
            full._result_cache[f"k{i}"] = _measurement(i)
        full._dirty = True
        full.save()
        damaged = _damage(path)
        before = QUARANTINED.value

        engine = MeasurementEngine(cache_dir=str(tmp_path))
        assert engine._result_cache == {}
        engine._result_cache["new"] = _measurement(7)
        engine._dirty = True
        engine.save()

        (aside,) = _corrupt_files(path)
        assert aside.read_bytes() == damaged
        assert QUARANTINED.value == before + 1
        assert set(json.loads(path.read_text())) == {"new"}

    def test_timing_memo(self, tmp_path):
        path = tmp_path / "sim_memo.json"
        full = TimingMemo(path)
        for i in range(50):
            full.put_run(f"r{i}", {"estimated_cycles": float(i)})
        full.save()
        damaged = _damage(path)
        before = QUARANTINED.value

        memo = TimingMemo(path)
        assert memo.n_runs == 0
        memo.put_run("new", {"estimated_cycles": 3.0})
        memo.save()

        (aside,) = _corrupt_files(path)
        assert aside.read_bytes() == damaged
        assert QUARANTINED.value == before + 1
        assert TimingMemo(path).get_run("new") == {"estimated_cycles": 3.0}

    def test_memo_with_other_version_is_replaced_not_quarantined(self, tmp_path):
        path = tmp_path / "sim_memo.json"
        path.write_text(
            json.dumps({"version": -1, "runs": {"old": {"estimated_cycles": 1.0}}})
        )
        memo = TimingMemo(path)
        memo.put_run("new", {"estimated_cycles": 3.0})
        memo.save()
        assert _corrupt_files(path) == []
        raw = json.loads(path.read_text())
        assert raw["version"] == SIM_MEMO_VERSION
        assert raw["binary_runs"] == {"new": {"estimated_cycles": 3.0}}

    def test_metrics(self, tmp_path):
        path = tmp_path / "metrics.json"
        reg = MetricsRegistry()
        reg.counter("c").inc(5)
        reg.histogram("h").observe(1.0)
        reg.persist(path)
        damaged = _damage(path)
        before = QUARANTINED.value

        reg2 = MetricsRegistry()
        reg2.counter("c").inc(2)
        reg2.persist(path)

        (aside,) = _corrupt_files(path)
        assert aside.read_bytes() == damaged
        assert QUARANTINED.value == before + 1
        assert MetricsRegistry.load_persisted(path)["counters"] == {"c": 2}

    def test_registry_name(self, tmp_path):
        registry = ModelRegistry(tmp_path / "reg")
        for i in range(3):
            registry.save(_linear_model(i), "m")
        path = tmp_path / "reg" / "names" / "m.json"
        damaged = _damage(path)
        before = QUARANTINED.value

        saved = registry.save(_linear_model(9), "m")

        (aside,) = _corrupt_files(path)
        assert aside.read_bytes() == damaged
        assert QUARANTINED.value == before + 1
        assert [v["id"] for v in registry.versions("m")] == [saved.id]
        assert registry.names() == ["m"]


# ----------------------------------------------------------------------
# Concurrent read-merge-replace writers lose nothing
# ----------------------------------------------------------------------
N_PROCS, N_PER_PROC = 4, 50


def _persist_counts(path, go):
    reg = MetricsRegistry()
    c = reg.counter("store.test.persisted")
    go.wait()
    for _ in range(N_PER_PROC):
        c.inc()
        reg.persist(path)


def _publish_versions(root, go):
    # Every process publishes the same N_PER_PROC models, so concurrent
    # saves of one object race on its directory as well as on the name.
    models = [_linear_model(i) for i in range(N_PER_PROC)]
    registry = ModelRegistry(root)
    go.wait()
    for model in models:
        registry.save(model, "shared")


def _run_together(target, arg):
    ctx = multiprocessing.get_context("fork")
    go = ctx.Event()
    procs = [ctx.Process(target=target, args=(arg, go)) for _ in range(N_PROCS)]
    for p in procs:
        p.start()
    go.set()
    for p in procs:
        p.join(timeout=120)
    return [p.exitcode for p in procs]


class TestConcurrentWriters:
    def test_metrics_persists_keep_every_count(self, tmp_path):
        path = tmp_path / "metrics.json"
        assert _run_together(_persist_counts, path) == [0] * N_PROCS
        counters = MetricsRegistry.load_persisted(path)["counters"]
        assert counters["store.test.persisted"] == N_PROCS * N_PER_PROC

    def test_registry_publishes_keep_every_version(self, tmp_path):
        root = tmp_path / "reg"
        assert _run_together(_publish_versions, root) == [0] * N_PROCS
        registry = ModelRegistry(root)
        history = registry.versions("shared")
        assert len(history) == N_PROCS * N_PER_PROC
        ids = {v["id"] for v in history}
        assert len(ids) == N_PER_PROC
        assert sorted(p.name for p in (root / "objects").iterdir()) == sorted(ids)
        assert list((root / "names").glob("*.tmp")) == []


# ----------------------------------------------------------------------
# A writer killed mid-write leaves the previous file intact
# ----------------------------------------------------------------------
CRASH_EXIT = 17


def _die_mid_write(kind, directory, fraction, conn):
    """Save one new entry, but die after writing ``fraction`` of the
    payload (``None`` means all but its last byte)."""

    def dying_dump(obj, f, **kwargs):
        text = json.dumps(obj, **kwargs)
        k = len(text) - 1 if fraction is None else int(fraction * len(text))
        f.write(text[:k])
        f.flush()
        conn.send((k, len(text)))
        os._exit(CRASH_EXIT)

    json.dump = dying_dump
    if kind == "measurements":
        engine = MeasurementEngine(cache_dir=str(directory))
        engine._result_cache["crashed"] = _measurement(999)
        engine._dirty = True
        engine.save()
    else:
        memo = TimingMemo(directory / "sim_memo.json")
        memo.put_run("crashed", {"estimated_cycles": 9.0})
        memo.save()


def _seeded_fractions(seed, n=3):
    rng = random.Random(seed)
    return [0.0, None] + [rng.random() for _ in range(n)]


class TestCrashMidWrite:
    def _fill(self, kind, directory):
        """Write a 20-entry store; returns (path, load) where ``load``
        reads its entries back through a fresh instance."""
        if kind == "measurements":
            engine = MeasurementEngine(cache_dir=str(directory))
            for i in range(20):
                engine._result_cache[f"k{i}"] = _measurement(i)
            engine._dirty = True
            engine.save()
            return directory / "measurements.json", lambda: dict(
                MeasurementEngine(cache_dir=str(directory))._result_cache
            )
        memo = TimingMemo(directory / "sim_memo.json")
        for i in range(20):
            memo.put_run(f"r{i}", {"estimated_cycles": float(i)})
        memo.save()

        def load():
            return dict(TimingMemo(directory / "sim_memo.json")._runs)

        return directory / "sim_memo.json", load

    @pytest.mark.parametrize("kind", ["measurements", "sim_memo"])
    def test_killed_writer_changes_nothing(self, tmp_path, kind):
        path, load = self._fill(kind, tmp_path)
        before_bytes = path.read_bytes()
        before = load()
        quarantined = QUARANTINED.value
        ctx = multiprocessing.get_context("fork")
        temps = set()
        for fraction in _seeded_fractions(seed=20070313):
            parent_end, child_end = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=_die_mid_write, args=(kind, tmp_path, fraction, child_end)
            )
            proc.start()
            proc.join(timeout=60)
            assert proc.exitcode == CRASH_EXIT
            k, length = parent_end.recv()
            assert 0 <= k < length
            if fraction == 0.0:
                assert k == 0
            if fraction is None:
                assert k == length - 1
            (new_temp,) = set(tmp_path.glob(path.name + "*.tmp")) - temps
            assert new_temp.stat().st_size == k
            temps.add(new_temp)
            assert path.read_bytes() == before_bytes
            assert load() == before

        # The leftovers change no later save either.
        if kind == "measurements":
            engine = MeasurementEngine(cache_dir=str(tmp_path))
            engine._result_cache["after"] = _measurement(1)
            engine._dirty = True
            engine.save()
            after = load()
            assert after == {**before, "after": _measurement(1)}
        else:
            memo = TimingMemo(path)
            memo.put_run("after", {"estimated_cycles": 1.0})
            memo.save()
            after = load()
            assert after == {**before, "after": {"estimated_cycles": 1.0}}
        assert set(tmp_path.glob(path.name + "*.tmp")) == temps
        assert _corrupt_files(path) == []
        assert QUARANTINED.value == quarantined

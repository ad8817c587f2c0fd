"""Tests for the model registry + prediction-serving subsystem."""

import json
import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.models import LinearModel, MarsModel, RbfModel
from repro.serve import (
    ARRAYS_NAME,
    MANIFEST_NAME,
    SCHEMA_VERSION,
    ModelRegistry,
    PredictionClient,
    PredictionServer,
    Predictor,
    RegistryError,
    SchemaVersionError,
    SerializationError,
    corpus_fingerprint,
    load_model,
    model_from_payload,
    model_to_payload,
    payload_digest,
    save_model,
    space_fingerprint,
    space_from_spec,
    space_spec,
)
from repro.space import ParameterSpace, Variable, VariableKind, full_space


# ----------------------------------------------------------------------
# Shared fixtures
# ----------------------------------------------------------------------
def make_corpus(seed, n=80, k=6):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, (n, k))
    y = (
        100
        + 12 * x[:, 0]
        - 7 * x[:, 1]
        + 5 * np.maximum(0, x[:, 2] - 0.3)
        + 3 * x[:, 0] * x[:, 3]
        + rng.normal(0, 0.5, n)
    )
    return x, y


def small_space(k=6):
    return ParameterSpace(
        [
            Variable(f"v{i}", VariableKind.DISCRETE, 0, 10, 11)
            for i in range(k)
        ]
    )


FAMILIES = {
    "linear": lambda: LinearModel(interactions=True, quadratic=True),
    "mars": lambda: MarsModel(max_terms=12),
    "rbf": lambda: RbfModel(),
}


def fitted(family, seed=0):
    x, y = make_corpus(seed)
    return FAMILIES[family]().fit(x, y), x, y


# ----------------------------------------------------------------------
# Serialization round-trip
# ----------------------------------------------------------------------
class TestRoundTrip:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_save_load_predicts_bit_identically(self, tmp_path, family):
        model, x, y = fitted(family)
        save_model(model, tmp_path / family, space=small_space(), corpus=(x, y))
        loaded, manifest = load_model(tmp_path / family)
        xq = np.random.default_rng(99).uniform(-1, 1, (64, 6))
        assert np.array_equal(model.predict(xq), loaded.predict(xq))
        assert manifest["family"] == family
        assert manifest["n_features"] == 6

    @settings(max_examples=4, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 2**16))
    def test_linear_round_trip_property(self, tmp_path, seed):
        # Property: for any seeded corpus, a reloaded model is the same
        # function bit for bit.
        model, x, y = fitted("linear", seed)
        d = tmp_path / f"m{seed}"
        save_model(model, d)
        loaded, _ = load_model(d)
        xq = np.random.default_rng(seed + 1).uniform(-1, 1, (32, 6))
        assert np.array_equal(model.predict(xq), loaded.predict(xq))

    @settings(max_examples=3, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 2**16))
    def test_mars_round_trip_property(self, tmp_path, seed):
        model, _, _ = fitted("mars", seed)
        d = tmp_path / f"m{seed}"
        save_model(model, d)
        loaded, _ = load_model(d)
        xq = np.random.default_rng(seed + 1).uniform(-1, 1, (32, 6))
        assert np.array_equal(model.predict(xq), loaded.predict(xq))
        assert loaded.gcv_score == model.gcv_score

    @settings(max_examples=3, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 2**16))
    def test_rbf_round_trip_property(self, tmp_path, seed):
        model, _, _ = fitted("rbf", seed)
        d = tmp_path / f"m{seed}"
        save_model(model, d)
        loaded, _ = load_model(d)
        xq = np.random.default_rng(seed + 1).uniform(-1, 1, (32, 6))
        assert np.array_equal(model.predict(xq), loaded.predict(xq))

    def test_full_space_model_round_trips(self, tmp_path):
        space = full_space()
        rng = np.random.default_rng(7)
        x = rng.uniform(-1, 1, (120, space.dim))
        y = 1e5 + 1e4 * x[:, 0] - 5e3 * x[:, 14] + rng.normal(0, 50, 120)
        model = LinearModel(variable_names=space.names).fit(x, y)
        manifest = save_model(model, tmp_path / "m", space=space)
        assert manifest["space_fingerprint"] == space_fingerprint(space)
        loaded, m2 = load_model(tmp_path / "m")
        assert loaded.variable_names == space.names
        xq = rng.uniform(-1, 1, (40, space.dim))
        assert np.array_equal(model.predict(xq), loaded.predict(xq))

    def test_unfitted_model_rejected(self, tmp_path):
        with pytest.raises(SerializationError):
            save_model(LinearModel(), tmp_path)

    def test_fit_metrics_survive_but_do_not_change_id(self, tmp_path):
        model, x, y = fitted("linear")
        m1 = save_model(model, tmp_path / "a", fit_metrics={"err": 4.2})
        m2 = save_model(model, tmp_path / "b", fit_metrics={"err": 9.9})
        assert m1["fit_metrics"] == {"err": 4.2}
        assert m1["id"] == m2["id"]  # metrics are digest-volatile


class TestSchemaAndCorruption:
    def test_schema_version_mismatch_rejected(self, tmp_path):
        model, _, _ = fitted("linear")
        save_model(model, tmp_path)
        path = tmp_path / MANIFEST_NAME
        manifest = json.loads(path.read_text())
        manifest["schema_version"] = SCHEMA_VERSION + 1
        path.write_text(json.dumps(manifest))
        with pytest.raises(SchemaVersionError):
            load_model(tmp_path)

    def test_corrupt_array_checksum_rejected(self, tmp_path):
        model, _, _ = fitted("linear")
        save_model(model, tmp_path)
        path = tmp_path / MANIFEST_NAME
        manifest = json.loads(path.read_text())
        manifest["arrays"]["beta"]["md5"] = "0" * 32
        path.write_text(json.dumps(manifest))
        with pytest.raises(SerializationError, match="corrupt"):
            load_model(tmp_path)

    def test_missing_array_rejected(self):
        model, _, _ = fitted("linear")
        manifest, arrays = model_to_payload(model)
        arrays.pop("beta")
        with pytest.raises(SerializationError, match="array set"):
            model_from_payload(manifest, arrays)

    def test_unknown_family_rejected(self):
        model, _, _ = fitted("linear")
        manifest, arrays = model_to_payload(model)
        manifest["family"] = "perceptron"
        with pytest.raises(SerializationError, match="family"):
            model_from_payload(manifest, arrays)

    def test_missing_directory(self, tmp_path):
        with pytest.raises(SerializationError):
            load_model(tmp_path / "nope")


class TestFingerprints:
    def test_space_spec_round_trips(self):
        space = full_space()
        rebuilt = space_from_spec(space_spec(space))
        assert space_fingerprint(rebuilt) == space_fingerprint(space)
        assert rebuilt.names == space.names

    def test_different_spaces_different_fingerprints(self):
        assert space_fingerprint(small_space(5)) != space_fingerprint(
            small_space(6)
        )

    def test_corpus_fingerprint_sensitivity(self):
        x, y = make_corpus(0)
        assert corpus_fingerprint(x, y) == corpus_fingerprint(x, y)
        y2 = y.copy()
        y2[0] += 1e-9
        assert corpus_fingerprint(x, y) != corpus_fingerprint(x, y2)

    def test_digest_changes_with_arrays(self):
        model, _, _ = fitted("linear")
        manifest, arrays = model_to_payload(model)
        d1 = payload_digest(manifest, arrays)
        arrays2 = dict(arrays)
        arrays2["beta"] = arrays2["beta"] + 1.0
        assert payload_digest(manifest, arrays2) != d1


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_save_load_by_name_and_id(self, tmp_path):
        reg = ModelRegistry(tmp_path)
        model, x, y = fitted("linear")
        entry = reg.save(model, "lin", space=small_space(), corpus=(x, y))
        by_name = reg.load("lin")
        by_id = reg.load(entry.id)
        xq = np.random.default_rng(1).uniform(-1, 1, (16, 6))
        assert np.array_equal(model.predict(xq), by_name.model.predict(xq))
        assert np.array_equal(model.predict(xq), by_id.model.predict(xq))
        assert by_name.space is not None
        assert by_name.space.names == small_space().names

    def test_content_addressed_dedupe(self, tmp_path):
        reg = ModelRegistry(tmp_path)
        model, _, _ = fitted("linear")
        e1 = reg.save(model, "lin")
        e2 = reg.save(model, "lin")
        assert e1.id == e2.id
        assert len(reg.versions("lin")) == 2
        assert len(list((tmp_path / "objects").iterdir())) == 1

    def test_name_moves_to_newest_version(self, tmp_path):
        reg = ModelRegistry(tmp_path)
        m1, _, _ = fitted("linear", seed=0)
        m2, _, _ = fitted("linear", seed=1)
        reg.save(m1, "lin")
        e2 = reg.save(m2, "lin")
        assert reg.resolve("lin") == e2.id
        history = reg.versions("lin")
        assert len(history) == 2
        assert history[-1]["id"] == e2.id

    def test_unknown_ref_raises(self, tmp_path):
        reg = ModelRegistry(tmp_path)
        with pytest.raises(RegistryError):
            reg.load("missing")
        with pytest.raises(RegistryError):
            reg.versions("missing")

    def test_bad_name_rejected(self, tmp_path):
        reg = ModelRegistry(tmp_path)
        model, _, _ = fitted("linear")
        with pytest.raises(ValueError):
            reg.save(model, "../escape")

    def test_names_and_entries(self, tmp_path):
        reg = ModelRegistry(tmp_path)
        assert reg.names() == []
        m, _, _ = fitted("linear")
        reg.save(m, "b-model", fit_metrics={"err": 1.0})
        reg.save(m, "a-model")
        assert reg.names() == ["a-model", "b-model"]
        entries = {e["name"]: e for e in reg.entries()}
        assert entries["b-model"]["fit_metrics"] == {"err": 1.0}
        assert "a-model" in reg.describe()

    def test_env_var_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_REGISTRY_DIR", str(tmp_path / "r"))
        reg = ModelRegistry()
        assert reg.root == tmp_path / "r"


# ----------------------------------------------------------------------
# Predictor
# ----------------------------------------------------------------------
class TestPredictor:
    def test_matches_model_and_caches(self):
        model, _, _ = fitted("linear")
        pred = Predictor(model)
        xq = np.random.default_rng(2).uniform(-1, 1, (20, 6))
        first = pred.predict(xq)
        assert np.array_equal(first, model.predict(xq))
        assert pred.cache_len == 20
        # Second pass is served fully from cache, bit-identically.
        assert np.array_equal(pred.predict(xq), first)
        assert pred.cache_len == 20

    def test_cache_eviction(self):
        model, _, _ = fitted("linear")
        pred = Predictor(model, cache_size=8)
        xq = np.random.default_rng(3).uniform(-1, 1, (20, 6))
        pred.predict(xq)
        assert pred.cache_len == 8

    def test_cache_disabled(self):
        model, _, _ = fitted("linear")
        pred = Predictor(model, cache_size=0)
        xq = np.random.default_rng(4).uniform(-1, 1, (5, 6))
        assert np.array_equal(pred.predict(xq), model.predict(xq))
        assert pred.cache_len == 0

    def test_validation_errors(self):
        model, _, _ = fitted("linear")
        pred = Predictor(model)
        with pytest.raises(ValueError, match="features"):
            pred.predict(np.zeros((3, 5)))
        with pytest.raises(ValueError, match="non-finite"):
            pred.predict(np.full((1, 6), np.nan))
        with pytest.raises(ValueError, match=r"\[-1, 1\]"):
            pred.predict(np.full((1, 6), 3.0))
        with pytest.raises(ValueError, match="3-D input"):
            pred.predict(np.zeros((2, 2, 6)))

    def test_unfitted_model_rejected(self):
        with pytest.raises(ValueError):
            Predictor(LinearModel())

    def test_space_dim_mismatch_rejected(self):
        model, _, _ = fitted("linear")
        with pytest.raises(ValueError):
            Predictor(model, space=small_space(5))

    def test_predict_point(self):
        model, _, _ = fitted("linear")
        space = small_space()
        pred = Predictor(model, space=space)
        point = {f"v{i}": float(i) for i in range(6)}
        expected = model.predict_one(space.encode(point))
        assert pred.predict_point(point) == expected

    def test_predict_point_needs_space(self):
        model, _, _ = fitted("linear")
        with pytest.raises(ValueError, match="space"):
            Predictor(model).predict_point({"v0": 1.0})

    def test_from_registry(self, tmp_path):
        reg = ModelRegistry(tmp_path)
        model, _, _ = fitted("linear")
        reg.save(model, "lin", space=small_space())
        pred = Predictor.from_registry("lin", registry=reg)
        assert pred.name == "lin"
        assert pred.space is not None
        info = pred.info()
        assert info["family"] == "LinearModel"
        assert info["n_features"] == 6


# ----------------------------------------------------------------------
# Server
# ----------------------------------------------------------------------
@pytest.fixture
def registry_with_model(tmp_path):
    reg = ModelRegistry(tmp_path)
    model, x, y = fitted("linear")
    reg.save(model, "lin", space=small_space(), corpus=(x, y))
    return reg, model


class TestServer:
    def test_wire_round_trip_matches_direct(self, registry_with_model):
        reg, model = registry_with_model
        with PredictionServer(registry=reg) as server:
            host, port = server.address
            with PredictionClient(host, port) as client:
                assert client.ping()
                xq = np.random.default_rng(5).uniform(-1, 1, (32, 6))
                # JSON float repr round-trips exactly, so even the wire
                # path is bit-identical for an all-miss batch.
                assert np.array_equal(
                    client.predict("lin", xq), model.predict(xq)
                )
                info = client.info("lin")
                assert info["n_features"] == 6
                models = client.models()
                assert models["models"] == ["lin"]
                assert models["loaded"] == ["lin"]

    def test_predict_point_and_errors(self, registry_with_model):
        reg, model = registry_with_model
        with PredictionServer(registry=reg) as server:
            with PredictionClient(*server.address) as client:
                point = {f"v{i}": 2.0 for i in range(6)}
                y = client.predict_point("lin", point)
                assert y == pytest.approx(
                    Predictor(model, space=small_space()).predict_point(point)
                )
                with pytest.raises(RuntimeError, match="no model named"):
                    client.predict("missing", np.zeros((1, 6)))
                with pytest.raises(RuntimeError, match="features"):
                    client.predict("lin", np.zeros((1, 3)))
                # The connection survives errors.
                assert client.ping()

    def test_stats_op_reports_red_metrics(self, registry_with_model):
        reg, _ = registry_with_model
        with PredictionServer(registry=reg) as server:
            with PredictionClient(*server.address) as client:
                client.ping()
                xq = np.zeros((2, 6))
                for _ in range(4):
                    client.predict("lin", xq)
                with pytest.raises(RuntimeError, match="features"):
                    client.predict("lin", np.zeros((1, 3)))
                stats = client.stats()

        # ping + 5 predicts; the in-flight stats request is recorded
        # only after its response is built, so it is not yet counted.
        assert stats["requests"] == 6
        assert stats["errors"] == 1
        assert stats["error_rate"] == pytest.approx(1 / 6, abs=1e-4)
        assert stats["uptime_s"] >= 0
        assert stats["started_unix"] <= time.time()
        assert stats["loaded"] == ["lin"]

        ops = stats["ops"]
        assert ops["ping"]["count"] == 1 and ops["ping"]["errors"] == 0
        predict = ops["predict"]
        assert predict["count"] == 5
        assert predict["errors"] == 1  # bad-shape request charged to its op
        for key in ("mean_ms", "p50_ms", "p95_ms", "p99_ms"):
            assert predict[key] >= 0.0
        assert predict["p50_ms"] <= predict["p95_ms"] <= predict["p99_ms"]

    def test_stats_buckets_unparseable_requests(self, registry_with_model):
        reg, _ = registry_with_model
        with PredictionServer(registry=reg) as server:
            with PredictionClient(*server.address) as client:
                # Malformed JSON straight onto the socket: no "op" to
                # attribute, so it lands in the _invalid bucket.
                client._file.write(b"this is not json\n")
                client._file.flush()
                line = client._file.readline()
                assert json.loads(line)["ok"] is False
                stats = client.stats()
        assert stats["ops"]["_invalid"]["count"] == 1
        assert stats["ops"]["_invalid"]["errors"] == 1

    def test_unknown_ops_share_the_invalid_bucket(self, registry_with_model):
        """Client-chosen op names cannot grow serving telemetry: a flood
        of distinct unknown ops adds only the ``_invalid`` op, per
        server and to the global ``serve.server.op_ms.*`` histograms."""
        from repro.obs import get_registry

        def op_histograms():
            return {
                name
                for name in get_registry().snapshot()["histograms"]
                if name.startswith("serve.server.op_ms.")
            }

        reg, _ = registry_with_model
        before = op_histograms()
        with PredictionServer(registry=reg) as server:
            with PredictionClient(*server.address) as client:
                for i in range(200):
                    with pytest.raises(RuntimeError, match="unknown op"):
                        client.request(f"bogus-{i}")
                stats = client.stats()
        assert set(stats["ops"]) == {"_invalid"}
        assert stats["ops"]["_invalid"]["count"] == 200
        assert stats["ops"]["_invalid"]["errors"] == 200
        assert op_histograms() - before <= {
            "serve.server.op_ms._invalid",
            "serve.server.op_ms.stats",
        }

    def test_concurrent_clients_match_direct_predict(
        self, registry_with_model
    ):
        reg, model = registry_with_model
        n_clients, batch = 4, 16
        rng = np.random.default_rng(6)
        # Disjoint batches: every batch is all-miss, so the server
        # computes it in one vectorized call -- exactly what a direct
        # model.predict of the same batch does.
        batches = [rng.uniform(-1, 1, (batch, 6)) for _ in range(n_clients)]
        results = [None] * n_clients
        errors = []

        def worker(i):
            try:
                with PredictionClient(*server.address) as client:
                    for _ in range(3):  # repeats exercise the shared cache
                        results[i] = client.predict("lin", batches[i])
            except Exception as e:  # pragma: no cover
                errors.append(e)

        with PredictionServer(registry=reg) as server:
            threads = [
                threading.Thread(target=worker, args=(i,))
                for i in range(n_clients)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        assert not errors
        for i in range(n_clients):
            assert np.array_equal(results[i], model.predict(batches[i]))

    def test_remote_shutdown_is_clean(self, registry_with_model):
        reg, _ = registry_with_model
        server = PredictionServer(registry=reg).start_background()
        with PredictionClient(*server.address) as client:
            client.shutdown_server()
        server._thread.join(timeout=5)
        assert not server._thread.is_alive()
        # server_close runs on a helper thread after the ack, so poll
        # until the listening socket is actually gone.
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            try:
                PredictionClient(*server.address, timeout=0.5).close()
            except OSError:
                break
            time.sleep(0.05)
        else:
            pytest.fail("server still accepting connections after shutdown")

    def test_shutdown_can_be_disabled(self, registry_with_model):
        reg, _ = registry_with_model
        with PredictionServer(
            registry=reg, allow_remote_shutdown=False
        ) as server:
            with PredictionClient(*server.address) as client:
                with pytest.raises(RuntimeError, match="disabled"):
                    client.shutdown_server()
                assert client.ping()

    def test_preload(self, registry_with_model):
        reg, _ = registry_with_model
        with PredictionServer(registry=reg, preload=["lin"]) as server:
            with PredictionClient(*server.address) as client:
                assert client.models()["loaded"] == ["lin"]

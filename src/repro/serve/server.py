"""Long-running prediction server (stdlib-only, JSON-lines over TCP).

The server loads models from a :class:`ModelRegistry` on demand and
serves predictions to any number of concurrent clients; one thread per
connection (``ThreadingTCPServer``), with all model state shared through
thread-safe :class:`Predictor` instances.

Wire protocol -- one JSON object per line, in both directions::

    -> {"id": 1, "op": "predict", "model": "gzip-rbf", "x": [[...], ...]}
    <- {"id": 1, "ok": true, "y": [123.4, ...], "elapsed_ms": 0.21}

Ops
---
``ping``
    Liveness check; echoes ``{"pong": true}``.
``models``
    Registry names plus currently loaded models.
``info``
    Predictor metadata for ``model``.
``predict``
    ``x`` is one coded point or a list of coded points; returns ``y``
    as a list (always, even for a single point).
``predict_point``
    ``point`` is a raw ``{variable: value}`` dict, validated against
    the model's design space and encoded server-side.
``stats``
    RED/SLO telemetry for this server instance: uptime, total request
    and error counts, and per-op count / errors / latency percentiles
    (p50/p95/p99 in milliseconds).  See :meth:`PredictionServer.stats`.
``shutdown``
    Acknowledge, then stop the server (available unless the server was
    started with ``allow_remote_shutdown=False``).

Errors never kill the connection: a malformed line or failed op yields
``{"ok": false, "error": "..."}`` and the loop continues.  See
``docs/SERVING.md`` for the full protocol reference.
"""

from __future__ import annotations

import json
import socket
import socketserver
import threading
import time
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.obs import counter, histogram, span
from repro.obs.ledger import record_event
from repro.obs.metrics import Histogram
from repro.serve.predictor import Predictor
from repro.serve.registry import ModelRegistry, RegistryError, default_registry

_REQUESTS = counter("serve.server.requests")
_ERRORS = counter("serve.server.errors")
_CONNECTIONS = counter("serve.server.connections")
_REQUEST_MS = histogram("serve.server.request_ms")

#: The ops :meth:`PredictionServer._dispatch` implements.
_OPS = frozenset(
    {"ping", "models", "info", "predict", "predict_point", "stats", "shutdown"}
)

#: Op label used in stats for every request whose ``op`` is not in
#: ``_OPS``, unparseable lines included, so client-chosen names can
#: never add a metric.
_INVALID_OP = "_invalid"


class _Handler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        _CONNECTIONS.inc()
        for raw in self.rfile:
            raw = raw.strip()
            if not raw:
                continue
            response, stop = self.server.app.handle_line(raw)
            self.wfile.write((json.dumps(response) + "\n").encode())
            self.wfile.flush()
            if stop:
                # Ack is already on the wire; stop the accept loop from
                # a helper thread (shutdown() joins serve_forever).
                threading.Thread(
                    target=self.server.app.shutdown, daemon=True
                ).start()
                return


class _ThreadedServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True
    app: "PredictionServer"


class PredictionServer:
    """Serve registry models over a JSON-lines TCP socket.

    Parameters
    ----------
    registry:
        Source of models (default :func:`default_registry`).
    preload:
        Model refs to load eagerly at startup; other registry models
        load lazily on first request.
    host / port:
        Bind address; port 0 picks an ephemeral port (see ``address``).
    cache_size:
        Per-predictor LRU prediction-cache capacity.
    allow_remote_shutdown:
        Whether the ``shutdown`` op is honoured (on by default: the
        server is a local-loopback tool, and tests/CI need clean stops).
    """

    def __init__(
        self,
        registry: Optional[ModelRegistry] = None,
        preload: Optional[List[str]] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        cache_size: int = 65536,
        allow_remote_shutdown: bool = True,
    ):
        self.registry = registry or default_registry()
        self.cache_size = cache_size
        self.allow_remote_shutdown = allow_remote_shutdown
        self._predictors: Dict[str, Predictor] = {}
        self._lock = threading.Lock()
        # Per-instance RED accounting for the `stats` op.  The op
        # latency histograms are private Histogram objects (not registry
        # entries) so two servers in one process never mix their SLOs;
        # the registry-level serve.server.* metrics above still feed
        # `repro stats` as before.
        self._started_unix = time.time()
        self._started_monotonic = time.perf_counter()
        self._op_counts: Dict[str, int] = {}
        self._op_errors: Dict[str, int] = {}
        self._op_latency: Dict[str, Histogram] = {}
        for ref in preload or []:
            self._predictor(ref)
        self._server = _ThreadedServer((host, port), _Handler)
        self._server.app = self
        self._thread: Optional[threading.Thread] = None
        self._session_ended = False
        record_event(
            "serve_session",
            attrs={
                "phase": "start",
                "address": list(self.address),
                "preload": list(preload or []),
            },
            refs=self._model_refs(),
        )

    # ------------------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)``."""
        return self._server.server_address[:2]

    def _model_refs(self) -> Dict[str, Any]:
        """Ledger refs naming every currently loaded model."""
        with self._lock:
            preds = list(self._predictors.values())
        return {
            "model_ids": sorted({p.model_id for p in preds if p.model_id}),
            "model_names": sorted({p.name for p in preds if p.name}),
        }

    def serve_forever(self) -> None:
        """Block serving requests until :meth:`shutdown`."""
        self._server.serve_forever()

    def start_background(self) -> "PredictionServer":
        """Serve from a daemon thread; returns self for chaining."""
        self._thread = threading.Thread(
            target=self.serve_forever, name="repro-serve", daemon=True
        )
        self._thread.start()
        return self

    def shutdown(self) -> None:
        """Stop the accept loop and close the listening socket."""
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None and self._thread is not threading.current_thread():
            self._thread.join(timeout=5)
        if not self._session_ended:
            # Guard against double shutdown (context-manager exit after a
            # remote `shutdown` op): one end event per session.
            self._session_ended = True
            stats = self.stats()
            record_event(
                "serve_session",
                attrs={
                    "phase": "end",
                    "address": list(self.address),
                    "uptime_s": stats["uptime_s"],
                    "requests": stats["requests"],
                    "errors": stats["errors"],
                    "error_rate": stats["error_rate"],
                    "ops": {op: o["count"] for op, o in stats["ops"].items()},
                },
                refs=self._model_refs(),
            )

    def __enter__(self) -> "PredictionServer":
        return self.start_background()

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    def _predictor(self, ref: str) -> Predictor:
        with self._lock:
            pred = self._predictors.get(ref)
        if pred is not None:
            return pred
        # Load outside the lock (disk I/O); worst case two threads both
        # load and one wins the insert -- predictors are stateless apart
        # from their cache, so either instance serves correctly.
        pred = Predictor.from_registry(
            ref, registry=self.registry, cache_size=self.cache_size
        )
        with self._lock:
            return self._predictors.setdefault(ref, pred)

    # ------------------------------------------------------------------
    def handle_line(self, raw: bytes) -> Tuple[Dict[str, Any], bool]:
        """Process one request line -> (response dict, stop server?)."""
        t0 = time.perf_counter()
        _REQUESTS.inc()
        request_id = None
        op: Optional[str] = None
        failed = False
        try:
            request = json.loads(raw)
            if not isinstance(request, dict):
                raise ValueError("request must be a JSON object")
            request_id = request.get("id")
            if isinstance(request.get("op"), str) and request["op"] in _OPS:
                op = request["op"]
            with span("serve.request", op=op or _INVALID_OP):
                response, stop = self._dispatch(request)
        except (ValueError, KeyError, TypeError, RegistryError) as e:
            _ERRORS.inc()
            failed = True
            response, stop = {"ok": False, "error": str(e)}, False
        response.setdefault("ok", True)
        if request_id is not None:
            response["id"] = request_id
        elapsed_ms = (time.perf_counter() - t0) * 1e3
        response["elapsed_ms"] = round(elapsed_ms, 4)
        _REQUEST_MS.observe(elapsed_ms)
        self._record_op(op or _INVALID_OP, elapsed_ms, failed)
        return response, stop

    def _record_op(self, op: str, elapsed_ms: float, failed: bool) -> None:
        """Attribute one finished request to its op's RED accounting."""
        # Global histogram: feeds `repro stats` / cross-invocation
        # persistence.  Unknown ops share the `_invalid` bucket: a flood
        # of bad requests is exactly what SLO telemetry must surface,
        # without growing one histogram per name.
        histogram(f"serve.server.op_ms.{op}").observe(elapsed_ms)
        with self._lock:
            self._op_counts[op] = self._op_counts.get(op, 0) + 1
            if failed:
                self._op_errors[op] = self._op_errors.get(op, 0) + 1
            hist = self._op_latency.get(op)
            if hist is None:
                hist = self._op_latency[op] = Histogram(f"op_ms.{op}")
        hist.observe(elapsed_ms)

    def stats(self) -> Dict[str, Any]:
        """RED/SLO snapshot for this server instance.

        ``requests``/``errors`` are instance totals (not the
        process-global ``serve.server.*`` counters, which other server
        instances in the same process also feed); ``ops`` maps each op
        seen so far to its count, error count, and latency percentiles
        in milliseconds.
        """
        with self._lock:
            counts = dict(self._op_counts)
            errors = dict(self._op_errors)
            hists = dict(self._op_latency)
            loaded = sorted(self._predictors)
        ops = {}
        for op, hist in sorted(hists.items()):
            n = counts.get(op, 0)
            ops[op] = {
                "count": n,
                "errors": errors.get(op, 0),
                "mean_ms": round(hist.sum / hist.count, 4) if hist.count else 0.0,
                "p50_ms": round(hist.percentile(50), 4),
                "p95_ms": round(hist.percentile(95), 4),
                "p99_ms": round(hist.percentile(99), 4),
            }
        total = sum(counts.values())
        total_errors = sum(errors.values())
        return {
            "uptime_s": round(time.perf_counter() - self._started_monotonic, 3),
            "started_unix": self._started_unix,
            "requests": total,
            "errors": total_errors,
            "error_rate": round(total_errors / total, 6) if total else 0.0,
            "ops": ops,
            "loaded": loaded,
        }

    def _dispatch(self, request: Dict[str, Any]) -> Tuple[Dict[str, Any], bool]:
        op = request.get("op")
        if op == "ping":
            return {"pong": True}, False
        if op == "models":
            with self._lock:
                loaded = sorted(self._predictors)
            return {"models": self.registry.names(), "loaded": loaded}, False
        if op == "info":
            return {"info": self._predictor(_model_ref(request)).info()}, False
        if op == "predict":
            pred = self._predictor(_model_ref(request))
            x = np.asarray(request["x"], dtype=float)
            y = pred.predict(x)
            return {"y": [float(v) for v in y]}, False
        if op == "predict_point":
            pred = self._predictor(_model_ref(request))
            point = request["point"]
            if not isinstance(point, dict):
                raise ValueError("'point' must be a {variable: value} object")
            return {"y": pred.predict_point(point)}, False
        if op == "stats":
            return {"stats": self.stats()}, False
        if op == "shutdown":
            if not self.allow_remote_shutdown:
                raise ValueError("shutdown is disabled on this server")
            return {"stopping": True}, True
        raise ValueError(f"unknown op {op!r}")


def _model_ref(request: Dict[str, Any]) -> str:
    ref = request.get("model")
    if not ref or not isinstance(ref, str):
        raise ValueError("request needs a 'model' name or id")
    return ref


class ProtocolError(RuntimeError):
    """The server's reply line was not a valid protocol response.

    Distinct from :class:`ConnectionError` (the connection died) and
    from the plain :class:`RuntimeError` raised for well-formed
    ``{"ok": false}`` error responses.
    """


class PredictionClient:
    """Blocking JSON-lines client for :class:`PredictionServer`.

    One TCP connection per client; safe to share across threads only
    with external locking -- concurrent test clients should each open
    their own.

    Failure modes of :meth:`request`: :class:`ConnectionError` when the
    server closes the connection, :class:`ProtocolError` when the reply
    line is not a JSON object, :class:`RuntimeError` for server-side op
    errors, and :class:`socket.timeout` when no reply arrives within the
    connection timeout.
    """

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rwb")
        self._next_id = 0

    # ------------------------------------------------------------------
    def request(self, op: str, **fields: Any) -> Dict[str, Any]:
        """Send one op and wait for its response; raises on protocol or
        server-side errors."""
        self._next_id += 1
        payload = {"id": self._next_id, "op": op, **fields}
        self._file.write((json.dumps(payload) + "\n").encode())
        self._file.flush()
        raw = self._file.readline()
        if not raw:
            raise ConnectionError("server closed the connection")
        try:
            response = json.loads(raw)
        except json.JSONDecodeError as e:
            raise ProtocolError(
                f"malformed server reply {raw[:80]!r}: {e}"
            ) from e
        if not isinstance(response, dict):
            raise ProtocolError(
                f"server reply is {type(response).__name__}, expected object"
            )
        if not response.get("ok"):
            raise RuntimeError(f"server error: {response.get('error')}")
        return response

    def ping(self) -> bool:
        return bool(self.request("ping").get("pong"))

    def models(self) -> Dict[str, Any]:
        return self.request("models")

    def info(self, model: str) -> Dict[str, Any]:
        return self.request("info", model=model)["info"]

    def predict(
        self, model: str, x: Union[np.ndarray, List[List[float]]]
    ) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        response = self.request("predict", model=model, x=x.tolist())
        return np.asarray(response["y"], dtype=float)

    def predict_point(self, model: str, point: Dict[str, float]) -> float:
        return float(
            self.request("predict_point", model=model, point=point)["y"]
        )

    def stats(self) -> Dict[str, Any]:
        return self.request("stats")["stats"]

    def shutdown_server(self) -> None:
        self.request("shutdown")

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "PredictionClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

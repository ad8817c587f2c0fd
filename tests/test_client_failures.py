"""Failure-path tests for PredictionClient: refused connections,
malformed server replies, dead servers, and read timeouts."""

import json
import socket
import threading

import pytest

from repro.serve import PredictionClient, ProtocolError


@pytest.fixture
def fake_server():
    """A raw TCP server whose reply script each test controls.

    Yields ``(host, port, set_script)`` where ``set_script`` installs a
    callable ``(request_line) -> bytes | None``; None closes the
    connection without replying.
    """
    script = {"fn": lambda line: b'{"ok": true}\n'}
    listener = socket.socket()
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    host, port = listener.getsockname()
    alive = True

    def serve():
        while alive:
            try:
                conn, _ = listener.accept()
            except OSError:
                return
            with conn:
                # makefile dups the socket fd: the file object must be
                # closed too or the client never sees FIN.
                f = conn.makefile("rwb")
                try:
                    line = f.readline()
                    if not line:
                        continue
                    reply = script["fn"](line)
                    if reply is None:
                        continue  # close without replying
                    f.write(reply)
                    f.flush()
                    # Hold the connection open until the client is done.
                    f.readline()
                except OSError:
                    pass
                finally:
                    try:
                        f.close()
                    except OSError:
                        pass

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield host, port, lambda fn: script.__setitem__("fn", fn)
    finally:
        alive = False
        # Closing a listening socket does not wake a thread blocked in
        # accept() on Linux; shutting it down first does.
        try:
            listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        listener.close()
        thread.join(timeout=5)
        assert not thread.is_alive(), "fake server thread did not exit"


class TestConnectionRefused:
    def test_constructor_raises(self):
        # Grab a port that is guaranteed closed.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        _, port = probe.getsockname()
        probe.close()
        with pytest.raises(OSError):
            PredictionClient("127.0.0.1", port, timeout=2.0)


class TestMalformedReply:
    def test_non_json_reply_raises_protocol_error(self, fake_server):
        host, port, set_script = fake_server
        set_script(lambda line: b"garbage not json\n")
        with PredictionClient(host, port, timeout=5.0) as client:
            with pytest.raises(ProtocolError) as exc:
                client.ping()
        assert "malformed server reply" in str(exc.value)

    def test_non_object_reply_raises_protocol_error(self, fake_server):
        host, port, set_script = fake_server
        set_script(lambda line: b"[1, 2, 3]\n")
        with PredictionClient(host, port, timeout=5.0) as client:
            with pytest.raises(ProtocolError) as exc:
                client.ping()
        assert "expected object" in str(exc.value)

    def test_protocol_error_is_a_runtime_error(self):
        # Callers catching the documented RuntimeError keep working.
        assert issubclass(ProtocolError, RuntimeError)

    def test_server_side_error_is_plain_runtime_error(self, fake_server):
        host, port, set_script = fake_server
        set_script(lambda line: b'{"ok": false, "error": "boom"}\n')
        with PredictionClient(host, port, timeout=5.0) as client:
            with pytest.raises(RuntimeError) as exc:
                client.ping()
        assert not isinstance(exc.value, ProtocolError)
        assert "boom" in str(exc.value)


class TestDeadServer:
    def test_closed_connection_raises_connection_error(self, fake_server):
        host, port, set_script = fake_server
        set_script(lambda line: None)  # close without replying
        with PredictionClient(host, port, timeout=5.0) as client:
            with pytest.raises(ConnectionError):
                client.ping()


class TestReadTimeout:
    def test_silent_server_times_out(self):
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        host, port = listener.getsockname()
        accepted = []
        thread = threading.Thread(
            # Accept, never reply, keep the socket open so the client
            # has to wait the full timeout.
            target=lambda: accepted.append(listener.accept()[0]),
            daemon=True,
        )
        thread.start()
        try:
            client = PredictionClient(host, port, timeout=0.5)
            with pytest.raises(socket.timeout):
                client.ping()
            client.close()
        finally:
            for conn in accepted:
                conn.close()
            listener.close()


class TestRealServerStillHappy:
    def test_happy_path_unaffected(self, tmp_path):
        """Hardening must not change the good-weather protocol."""
        import numpy as np

        from repro.models import LinearModel
        from repro.serve import ModelRegistry, PredictionServer

        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, (40, 3))
        model = LinearModel().fit(x, x @ [1.0, 2.0, 3.0] + 5)
        registry = ModelRegistry(tmp_path / "reg")
        registry.save(model, "m")
        with PredictionServer(registry=registry) as srv:
            host, port = srv.address
            with PredictionClient(host, port) as client:
                assert client.ping()
                y = client.predict("m", [[0.0, 0.0, 0.0]])
                assert y.shape == (1,)
                assert client.stats()["requests"] >= 2

"""Server-side fault tolerance: hostile clients, degraded components,
and the resilient client's reconnect/retry/deadline behavior."""

import socket
import threading
import time

import numpy as np
import pytest

from repro.core import (
    DataTypePlugin,
    FeatureMeta,
    ObjectSignature,
    SimilaritySearchEngine,
    SketchParams,
)
from repro.server import (
    ClientError,
    ClientTimeout,
    CommandProcessor,
    FerretClient,
    FerretServer,
    RetryPolicy,
    ServerDegraded,
    serve_background,
)
from repro.server.server import MAX_LINE_BYTES
from repro.storage.errors import StorageError
from repro.system import HealthState


def _build_processor(num_objects=12):
    meta = FeatureMeta(4, np.zeros(4), np.ones(4))
    engine = SimilaritySearchEngine(
        DataTypePlugin("t", meta), SketchParams(128, meta, seed=0)
    )
    rng = np.random.default_rng(2)
    proc = CommandProcessor(engine, health=HealthState())
    for i in range(num_objects):
        oid = engine.insert(ObjectSignature(rng.random((2, 4)), [1, 1]))
        proc.register_attributes(oid, {"bucket": str(i % 3)})
    return proc, engine


@pytest.fixture()
def served():
    proc, engine = _build_processor()
    server = serve_background(proc)
    host, port = server.server_address
    yield host, port, proc, engine
    server.shutdown()
    server.server_close()


def _raw_roundtrip(host, port, payload, read_bytes=4096):
    with socket.create_connection((host, port), timeout=5.0) as sock:
        sock.sendall(payload)
        sock.settimeout(5.0)
        return sock.recv(read_bytes)


# ---------------------------------------------------------------------------
# Hostile input
# ---------------------------------------------------------------------------

class TestMalformedInput:
    @pytest.mark.parametrize(
        "line",
        [
            b'query "unterminated\n',
            b"\x00\x01\x02\xff\xfe\n",
            b"query\n",
            b"insertfile\n",
            b"query notanumber\n",
            b"query 0 top=NaNsense\n",
            b"=weird\n",
        ],
    )
    def test_malformed_lines_get_err_not_crash(self, served, line):
        host, port, _, _ = served
        reply = _raw_roundtrip(host, port, line)
        assert reply.startswith(b"ERR ")
        # And the server is still alive for the next client.
        with FerretClient(host, port) as client:
            assert client.ping()

    def test_oversized_request_is_rejected_and_connection_closed(self, served):
        host, port, _, _ = served
        with socket.create_connection((host, port), timeout=10.0) as sock:
            sock.sendall(b"query " + b"9" * (MAX_LINE_BYTES + 64) + b"\n")
            sock.settimeout(10.0)
            chunks = b""
            while b"\n" not in chunks:
                chunk = sock.recv(4096)
                if not chunk:
                    break
                chunks += chunk
            assert chunks.startswith(b"ERR ")
            assert b"exceeds" in chunks
            # The stream is unrecoverable; the server must hang up.
            sock.settimeout(5.0)
            assert sock.recv(4096) == b""
        with FerretClient(host, port) as client:
            assert client.ping()

    def test_disconnect_mid_response_does_not_kill_server(self, served):
        host, port, _, _ = served
        for _ in range(3):
            sock = socket.create_connection((host, port), timeout=5.0)
            # Ask for a full result set, then vanish without reading.
            sock.sendall(b"query 0 top=10\n")
            sock.close()
        time.sleep(0.1)
        with FerretClient(host, port) as client:
            assert client.ping()
            assert client.count() == 12

    def test_concurrent_clients_with_failures_mixed_in(self, served):
        host, port, _, _ = served
        errors = []

        def hammer(i):
            try:
                with FerretClient(host, port) as client:
                    for _ in range(10):
                        assert client.count() == 12
                        if i % 2:
                            with pytest.raises(ClientError):
                                client.send("query 99999")
                        assert len(client.query(i % 12, top=3)) == 3
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors


# ---------------------------------------------------------------------------
# Health + graceful degradation
# ---------------------------------------------------------------------------

class TestDegradation:
    def test_health_command_reports_ok(self, served):
        host, port, _, _ = served
        with FerretClient(host, port) as client:
            report = client.health()
        assert report["status"] == "ok"
        assert float(report["uptime_seconds"]) >= 0.0

    def test_storage_error_becomes_err_degraded(self, served):
        host, port, proc, engine = served
        original = engine.stats
        engine.stats = lambda: (_ for _ in ()).throw(StorageError("disk gone"))
        try:
            with FerretClient(host, port) as client:
                with pytest.raises(ServerDegraded) as exc_info:
                    client.stat()
                assert "disk gone" in exc_info.value.reason
                # The connection survives a DEGRADED answer...
                assert client.ping()
                # ...and health now reflects the failure.
                report = client.health()
                assert report["status"] == "degraded"
                assert "degraded.storage" in report
                assert report["errors.storage"] == "1"
        finally:
            engine.stats = original
        assert proc.health.degraded

    def test_degraded_is_never_retried(self, served):
        host, port, _, engine = served
        original = engine.stats
        calls = []

        def failing():
            calls.append(1)
            raise StorageError("still broken")

        engine.stats = failing
        try:
            client = FerretClient(host, port, retry=RetryPolicy(max_attempts=4))
            with client:
                with pytest.raises(ServerDegraded):
                    client.stat()
        finally:
            engine.stats = original
        assert len(calls) == 1  # the server answered; retrying won't help

    def test_removed_lsh_method_answers_err(self, served):
        host, port, proc, _ = served
        with FerretClient(host, port) as client:
            before = client.health()
            with pytest.raises(ClientError, match="unknown search method"):
                client.query(0, top=5, method="lsh")
            after = client.health()
            assert client.ping()
        for report in (before, after):
            del report["uptime_seconds"]
        assert after == before  # no fallback booked, nothing degraded
        assert not proc.health.degraded

    def test_removed_process_backend_answers_err(self, served):
        host, port, _, engine = served
        before = engine.parallel_info()
        with FerretClient(host, port) as client:
            with pytest.raises(ClientError, match="unknown parallel backend"):
                client.send("setparam parallel backend=process")
        assert engine.parallel_info() == before


# ---------------------------------------------------------------------------
# Resilient client
# ---------------------------------------------------------------------------

class _TrackingServer(FerretServer):
    """FerretServer that can force-sever live connections (crash stand-in)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._conns = []

    def process_request(self, request, client_address):
        self._conns.append(request)
        super().process_request(request, client_address)

    def force_stop(self):
        self.shutdown()
        for conn in self._conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        self.server_close()


def _serve_tracking(proc, host="127.0.0.1", port=0):
    server = _TrackingServer(proc, host, port)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    return server


class TestResilientClient:
    def test_client_timeout_is_distinct_and_per_command(self):
        assert issubclass(ClientTimeout, ClientError)
        # A listener that accepts (via the backlog) but never answers.
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        host, port = listener.getsockname()
        try:
            client = FerretClient(host, port, timeout=30.0)
            start = time.monotonic()
            with pytest.raises(ClientTimeout):
                client.send("ping", timeout=0.3)  # per-command override
            elapsed = time.monotonic() - start
            assert elapsed < 5.0  # the 30 s client-wide timeout did not apply
            client.close()
        finally:
            listener.close()

    def test_retry_client_survives_server_restart(self):
        proc, _ = _build_processor()
        server = _serve_tracking(proc)
        host, port = server.server_address

        retry_client = FerretClient(
            host, port, timeout=5.0,
            retry=RetryPolicy(max_attempts=5, base_delay=0.05, seed=1),
        )
        plain_client = FerretClient(host, port, timeout=5.0)
        try:
            batch = list(range(6))
            results = [retry_client.query(batch[0], top=3)]
            assert plain_client.ping()

            # Forced restart: sever every connection, rebind the port.
            server.force_stop()
            server = _serve_tracking(proc, host, port)

            # Even the plain client recovers idempotent commands: a torn
            # connection earns one free immediate reconnect, counted in
            # errors_absorbed.client_reconnect.
            from repro.observability import metrics as _metrics

            reconnects = _metrics.counter("errors_absorbed.client_reconnect")
            before = reconnects.value
            assert len(plain_client.query(batch[1], top=3)) == 3
            assert reconnects.value > before

            # The retry client finishes the batch across the restart.
            for object_id in batch[1:]:
                results.append(retry_client.query(object_id, top=3))
            assert len(results) == len(batch)
            assert all(len(r) == 3 for r in results)
        finally:
            retry_client.close()
            plain_client.close()
            server.force_stop()

    def test_plain_client_does_not_retry_connect(self):
        # Grab a port and close it so nothing is listening there.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        host, port = probe.getsockname()
        probe.close()
        with pytest.raises(OSError):
            FerretClient(host, port, timeout=0.5)

    def test_nonidempotent_commands_are_not_retried(self):
        proc, _ = _build_processor()
        server = _serve_tracking(proc)
        host, port = server.server_address
        client = FerretClient(
            host, port, timeout=5.0, retry=RetryPolicy(max_attempts=5)
        )
        try:
            assert client.ping()
            server.force_stop()
            # insertfile mutates state: one attempt only, no blind replay.
            with pytest.raises(ClientError) as exc_info:
                client.send("insertfile /nonexistent.npy")
            assert not isinstance(exc_info.value, ServerDegraded)
        finally:
            client.close()
            server.server_close()

    def test_retry_delays_are_deterministic(self):
        policy = RetryPolicy(max_attempts=4, base_delay=0.1, jitter=0.25, seed=3)
        assert policy.delays() == policy.delays()
        for delay, base in zip(policy.delays(), (0.1, 0.2, 0.4)):
            assert base * 0.75 <= delay <= base * 1.25

"""End-to-end observability: metrics + trace round-trip the wire protocol.

Spins a real TCP server and drives it through :class:`FerretClient`:
the ``metrics`` command, ``setparam trace on`` plus the last-query stage
breakdown, the slow-query log view, and the extended ``stat`` keys —
exactly what an operator at a terminal would see.  Also pins the client
bug-fixes that rode along: an empty command line must fail as a timeout
(never an IndexError), and an already-expired deadline must raise
*before* anything is written.
"""

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
    CommandProcessor,
    FerretClient,
    serve_background,
)
from repro.server.client import ClientTimeout


@pytest.fixture()
def served():
    meta = FeatureMeta(4, np.zeros(4), np.ones(4))
    engine = SimilaritySearchEngine(
        DataTypePlugin("t", meta), SketchParams(128, meta, seed=0)
    )
    rng = np.random.default_rng(5)
    proc = CommandProcessor(engine)
    for i in range(12):
        oid = engine.insert(ObjectSignature(rng.random((2, 4)), [1.0, 1.0]))
        proc.register_attributes(oid, {"bucket": str(i % 2)})
    server = serve_background(proc)
    host, port = server.server_address
    yield host, port, engine
    server.shutdown()
    server.server_close()


class TestMetricsCommand:
    def test_metrics_round_trip(self, served):
        host, port, _ = served
        with FerretClient(host, port) as client:
            client.query(0, top=5)
            metrics = client.metrics()
            # Counters moved through the full pipeline: server dispatch,
            # engine query, filtering scan, ranking.
            assert int(metrics["server.commands"]) >= 1
            assert int(metrics["server.command.query"]) >= 1
            assert int(metrics["engine.queries"]) >= 1
            assert int(metrics["engine.distance_evals"]) >= 1
            assert int(metrics["engine.query_seconds_count"]) >= 1

    def test_metrics_line_format_stable(self, served):
        host, port, _ = served
        with FerretClient(host, port) as client:
            for line in client.send("metrics"):
                name, _, value = line.partition(" ")
                assert name and " " not in name
                float(value)  # every value parses as a number

    def test_metrics_prefix_filter(self, served):
        host, port, _ = served
        with FerretClient(host, port) as client:
            client.query(0, top=3)
            filtered = client.metrics(prefix="engine.")
            assert filtered
            assert all(k.startswith("engine.") for k in filtered)
            # the filter actually shrinks the payload
            assert len(filtered) < len(client.metrics())

    def test_metrics_toggle(self, served):
        host, port, _ = served
        with FerretClient(host, port) as client:
            try:
                client.set_param("metrics", "off")
                before = int(client.metrics()["engine.queries"])
                client.query(0, top=3)
                assert int(client.metrics()["engine.queries"]) == before
            finally:
                client.set_param("metrics", "on")
            client.query(0, top=3)
            assert int(client.metrics()["engine.queries"]) == before + 1


class TestTraceCommand:
    def test_trace_off_by_default(self, served):
        host, port, _ = served
        with FerretClient(host, port) as client:
            client.query(0, top=3)
            trace = client.trace()
            assert trace["tracing"] == "off"
            assert "no_trace_recorded" in trace

    def test_last_query_stage_breakdown(self, served):
        host, port, _ = served
        with FerretClient(host, port) as client:
            client.set_param("trace", "on")
            client.query(0, top=5)
            trace = client.trace()
            assert trace["method"] == "filtering"
            assert trace["queries"] == "1"
            assert float(trace["total_seconds"]) > 0.0
            assert "stage.filter_seconds" in trace
            assert "stage.rank_seconds" in trace
            assert int(trace["count.candidates"]) >= 1
            assert int(trace["count.distance_evals"]) >= 1
            assert trace["note.scan"] in ("serial", "index", "cache")

    def test_cache_hit_visible_in_trace(self, served):
        host, port, _ = served
        with FerretClient(host, port) as client:
            client.set_param("trace", "on")
            client.query(0, top=5)
            client.query(0, top=5)  # identical: served from the cache
            trace = client.trace()
            assert trace["note.scan"] == "cache"
            assert trace["count.cache_hits"] == "1"

    def test_slow_query_log_view(self, served):
        host, port, _ = served
        with FerretClient(host, port) as client:
            client.set_param("trace", "on")
            # Threshold of ~0 ms is rejected; 0.0001 ms catches everything.
            client.set_param("slow_query_ms", "0.0001")
            client.query(0, top=3)
            lines = client.send("trace slow 5")
            assert lines[0].startswith("slow_queries_total ")
            assert int(lines[0].split()[1]) >= 1
            assert "method=filtering" in lines[1]
            stats = client.stat()
            assert int(stats["slow_queries"]) >= 1

    def test_bad_trace_args_rejected(self, served):
        host, port, _ = served
        with FerretClient(host, port) as client:
            with pytest.raises(ClientError):
                client.send("trace bogus")
            with pytest.raises(ClientError):
                client.send("trace slow nope")
            with pytest.raises(ClientError):
                client.set_param("slow_query_ms", "-5")
            with pytest.raises(ClientError):
                client.set_param("trace", "sideways")


class TestExtendedStat:
    def test_observability_keys_present(self, served):
        host, port, _ = served
        with FerretClient(host, port) as client:
            stats = client.stat()
            assert stats["metrics"] in ("on", "off")
            assert stats["trace"] in ("on", "off")
            assert "slow_queries" in stats
            assert float(stats["slow_query_ms"]) > 0
            assert "cache_evictions" in stats


class TestClientFixes:
    def test_empty_command_is_timeout_not_indexerror(self, served):
        host, port, _ = served
        with FerretClient(host, port) as client:
            # The server skips blank lines without replying, so the only
            # correct outcome is a timeout naming the (empty) command —
            # this used to die with IndexError on line.split()[0].
            with pytest.raises(ClientTimeout, match="<empty>"):
                client.send("   ", timeout=0.3)

    def test_expired_deadline_raises_before_write(self, served):
        host, port, _ = served
        with FerretClient(host, port) as client:
            with pytest.raises(ClientTimeout, match="before 'ping' was sent"):
                client.send("ping", timeout=0)
            # Nothing hit the wire: the connection is still synchronized.
            assert client.connected
            assert client.ping()


class TestPrometheusExposition:
    def test_metrics_p_parses_as_prometheus(self, served):
        import re

        host, port, _ = served
        type_re = re.compile(
            r"^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram)$"
        )
        sample_re = re.compile(
            r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{le=\"[^\"]+\"\})? "
            r"(nan|[+-]?(inf|\d+(\.\d+)?([eE][+-]?\d+)?))$"
        )
        with FerretClient(host, port) as client:
            client.query(0, top=3)
            lines = client.send("metrics -p")
            assert lines
            for line in lines:
                assert type_re.match(line) or sample_re.match(line), line
            assert "# TYPE ferret_engine_queries counter" in lines
            assert any(
                l.startswith('ferret_engine_query_seconds_bucket{le="+Inf"}')
                for l in lines
            )

    def test_prometheus_prefix_filter(self, served):
        host, port, _ = served
        with FerretClient(host, port) as client:
            body = client.metrics_prometheus(prefix="server.")
            assert "ferret_server_commands" in body
            assert "ferret_engine_queries" not in body

    def test_bad_metrics_args_rejected(self, served):
        host, port, _ = served
        with FerretClient(host, port) as client:
            with pytest.raises(ClientError):
                client.send("metrics -p a b")


class TestProfileCommand:
    def test_profile_reports_slow_query_capture(self, served):
        host, port, _ = served
        with FerretClient(host, port) as client:
            # Force every query over the slow threshold: the recorder's
            # auto-profile hook must capture at least one stack.
            client.set_param("slow_query_ms", "0.0001")
            client.query(0, top=3)
            lines = client.profile()
            header = dict(
                l.split(" ", 1) for l in lines[:5]
            )
            assert header["running"] == "no"
            assert int(header["slow_captures"]) >= 1
            assert int(header["unique_stacks"]) >= 1
            stacks = lines[5:]
            assert stacks
            # collapsed folded format: frame;frame;frame count
            frame_part, count = stacks[0].rsplit(" ", 1)
            assert int(count) >= 1
            assert ";" in frame_part

    def test_profile_on_off_continuous_sampling(self, served):
        host, port, engine = served
        with FerretClient(host, port) as client:
            client.set_param("profile", "on")
            try:
                import time as _time

                deadline = _time.monotonic() + 2.0
                while (
                    engine.tracer.profiler.stats()["samples"] < 2
                    and _time.monotonic() < deadline
                ):
                    _time.sleep(0.01)
                lines = client.profile(limit=5)
                assert lines[0] == "running yes"
                assert int(dict(
                    l.split(" ", 1) for l in lines[:5]
                )["samples"]) >= 2
            finally:
                client.set_param("profile", "off")
            assert client.profile()[0] == "running no"
            with pytest.raises(ClientError):
                client.set_param("profile", "sideways")

    def test_bad_profile_args_rejected(self, served):
        host, port, _ = served
        with FerretClient(host, port) as client:
            with pytest.raises(ClientError):
                client.send("profile 0")
            with pytest.raises(ClientError):
                client.send("profile -3")
            with pytest.raises(ClientError):
                client.send("profile many")


class TestTraceSlowValidation:
    def test_nonpositive_limit_rejected(self, served):
        """`trace slow 0` / negative n answer a usage error, never an
        empty (or full) silent slice."""
        host, port, _ = served
        with FerretClient(host, port) as client:
            for bad in ("0", "-1", "-100"):
                with pytest.raises(ClientError, match="usage: trace slow"):
                    client.send(f"trace slow {bad}")
            # the boundary valid value still works
            assert client.send("trace slow 1")[0].startswith(
                "slow_queries_total"
            )


class TestStatPercentiles:
    def test_quantile_lines_track_queries(self, served):
        host, port, _ = served
        with FerretClient(host, port) as client:
            stats = client.stat()
            for key in ("query_p50_ms", "query_p95_ms", "query_p99_ms"):
                assert key in stats  # present (nan) even before queries
            client.query(0, top=3)
            stats = client.stat()
            p50 = float(stats["query_p50_ms"])
            p95 = float(stats["query_p95_ms"])
            p99 = float(stats["query_p99_ms"])
            assert 0.0 < p50 <= p95 <= p99

"""The single server and the cluster front end answer operator lines alike.

``ping``, ``health``, ``metrics``, ``trace``, ``events`` and ``setparam
trace`` have one implementation
(:class:`~repro.server.commands.OperatorCommands`) behind both
:class:`~repro.server.commands.CommandProcessor` and
:class:`~repro.cluster.service.ClusterCommandProcessor`.  These tests
send the same lines through a single-engine processor and through a
coordinator over one in-process backend, and compare the replies: the
same usage-error text, the same ``setparam`` echo, the same reply
shape.
"""

import pytest

from repro.cluster import ClusterConfig, FerretCoordinator, ShardMap
from repro.cluster.backend import build_backend_processor
from repro.cluster.service import ClusterCommandProcessor
from repro.datatypes import build_demo_engine
from repro.observability import metrics as _metrics
from repro.observability.events import EventLog, get_event_log, set_event_log
from repro.server.commands import CommandProcessor
from repro.server.protocol import ProtocolError, parse_command
from repro.server.server import serve_background

DATATYPE, SIZE, SEED = "sensor", 48, 42


@pytest.fixture(scope="module")
def front_ends():
    """``(single, cluster)`` processors; the cluster's one backend
    holds the whole corpus (one shard, no replica)."""
    engine, _bench = build_demo_engine(DATATYPE, size=SIZE, seed=SEED)
    backend = serve_background(
        build_backend_processor(
            0, ShardMap(1, 1, 1), datatype=DATATYPE, size=SIZE, seed=SEED
        )
    )
    coordinator = FerretCoordinator(
        [backend.server_address],
        num_shards=1,
        config=ClusterConfig(replication=1, cache_entries=0),
    )
    try:
        yield CommandProcessor(engine), ClusterCommandProcessor(coordinator)
    finally:
        coordinator.close()
        backend.shutdown()
        backend.server_close()


@pytest.fixture()
def journal():
    previous = set_event_log(EventLog())
    try:
        yield get_event_log()
    finally:
        set_event_log(previous)


def answer(processor, line):
    """``("OK", lines)`` or ``("ERR", message)`` for one request line."""
    try:
        return "OK", processor.execute(parse_command(line))
    except ProtocolError as exc:
        return "ERR", str(exc)


def both(front_ends, line):
    single, cluster = front_ends
    return answer(single, line), answer(cluster, line)


@pytest.mark.parametrize("line", [
    "setparam trace sideways",
    "setparam trace",
    "trace slow 0",
    "trace slow -1",
    "trace slow x",
    "trace get nope",
    "trace get",
    "trace bogus",
    "events -1",
    "events x",
    "events 1 2",
    "metrics -p -s",
    "metrics a b",
])
def test_usage_errors_match(front_ends, line):
    single, cluster = both(front_ends, line)
    assert single[0] == "ERR"
    assert cluster == single


@pytest.mark.parametrize("raw", ["on", "OFF", "On", "off"])
def test_setparam_trace_echo_and_switch(front_ends, raw):
    single, cluster = both(front_ends, f"setparam trace {raw}")
    flag = raw.lower()
    assert single == cluster == ("OK", [f"trace={flag}"])
    for processor in front_ends:
        assert processor.tracer.enabled is (flag == "on")


def test_rejected_trace_flag_keeps_the_switch(front_ends):
    for flag in ("on", "off"):
        both(front_ends, f"setparam trace {flag}")
        both(front_ends, "setparam trace sideways")
        for processor in front_ends:
            assert processor.tracer.enabled is (flag == "on")


@pytest.mark.parametrize("flag", ["on", "off"])
@pytest.mark.parametrize("line", [
    "ping", "trace", "trace --tree", "trace slow 1", "trace slow 1 --tree",
])
def test_operator_lines_answer_alike(front_ends, flag, line):
    # Neither front end has served a query: no last trace, no slow entry.
    both(front_ends, f"setparam trace {flag}")
    single, cluster = both(front_ends, line)
    assert single[0] == "OK"
    assert cluster == single


def test_events_answer_alike(front_ends, journal):
    for n in range(3):
        journal.record("parity_probe", n=n)
    single, cluster = both(front_ends, "events 2")
    assert single[0] == "OK" and len(single[1]) == 3
    assert single[1][0] == "events_total 3"
    assert cluster == single


def test_health_answers_alike(front_ends):
    single, cluster = both(front_ends, "health")
    assert single[0] == cluster[0] == "OK"
    keys = [line.split()[0] for line in single[1]]
    assert keys[:2] == ["status", "uptime_seconds"]
    assert [line.split()[0] for line in cluster[1]] == keys


def _names(lines):
    return {line.split()[0] for line in lines if not line.startswith("#")}


@pytest.mark.parametrize("args", ["", "-p", "engine.", "-p engine."])
def test_metrics_render_the_same_registry(front_ends, args):
    # One process registry behind both; the cluster federates its
    # backend's snapshot in first, so its dump only adds series.
    single, cluster = both(front_ends, f"metrics {args}".strip())
    assert single[0] == cluster[0] == "OK"
    assert single[1] and _names(single[1]) <= _names(cluster[1])


def test_metrics_snapshot_is_one_json_line(front_ends):
    single, cluster = both(front_ends, "metrics -s")
    for status, lines in (single, cluster):
        assert status == "OK" and len(lines) == 1
        assert isinstance(_metrics.decode_snapshot(lines[0]), dict)
    assert set(_metrics.decode_snapshot(single[1][0])) <= set(
        _metrics.decode_snapshot(cluster[1][0])
    )

"""Cluster telemetry plane: traces, federation, and the event journal.

The acceptance drills for the observability tier, against *real*
backend subprocesses wherever a claim involves the wire:

1. a traced query through a 2-shard x 2-replica cluster yields ONE
   stitched trace — coordinator scatter/gather spans plus engine
   (filter/rank) stages from every contacted node, each labelled with
   its hop count and rpc/engine/net+queue split;
2. a traced query answered PARTIAL names the missing shards in the
   trace itself (and only live shards contribute subtrees);
3. a SIGKILL drill produces the postmortem sequence in the event
   journal — ``node_kill`` then ``breaker_transition`` (to open) then
   ``failover`` accounting, then ``backend_readmitted`` after restart —
   in provable seq order;
4. metric federation keeps working with a node down: ``nodes_up``
   drops, no exception, live nodes still contribute ``node.<i>.*``;
5. concurrent breaker flips produce a duplicate-free total order in
   the journal (the lock-assigned sequence numbers hold up).
"""

import threading
import time

import pytest

from repro.cluster import (
    BreakerState,
    ClusterConfig,
    ClusterSupervisor,
    FerretCoordinator,
)
from repro.cluster.service import ClusterCommandProcessor
from repro.observability import metrics as _metrics
from repro.observability.events import EventLog, get_event_log, set_event_log
from repro.server.client import FerretClient, PartialResultWarning
from repro.server.protocol import parse_command
from repro.server.server import serve_background

DATATYPE, SIZE, SEED = "sensor", 48, 42


@pytest.fixture()
def journal():
    """A fresh process-wide journal for the duration of one test."""
    previous = set_event_log(EventLog())
    try:
        yield get_event_log()
    finally:
        set_event_log(previous)


def make_coordinator(supervisor, **overrides):
    settings = dict(
        replication=supervisor.shard_map.replication,
        backend_timeout=10.0,
        breaker_failures=2,
        breaker_cooldown=0.3,
        probe_interval=0.1,
        probe_timeout=2.0,
        # Telemetry drills re-ask seeds across faults; cached answers
        # would mask the degradation (and traced queries bypass the
        # cache anyway — keep both modes identical).
        cache_entries=0,
    )
    settings.update(overrides)
    return FerretCoordinator(
        supervisor.endpoints,
        num_shards=supervisor.shard_map.num_shards,
        config=ClusterConfig(**settings),
    )


def shards_of(node_key):
    """The shards a ``<s1>+<s2>.<backend>`` node key answered."""
    return {int(s) for s in node_key.split(".")[0].split("+")}


def wait_until(predicate, timeout=30.0, interval=0.1):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class TestStitchedTrace:
    def test_traced_query_stitches_every_contacted_node(self):
        with ClusterSupervisor(
            4, num_shards=2, replication=2,
            datatype=DATATYPE, size=SIZE, seed=SEED,
        ) as supervisor:
            coordinator = make_coordinator(supervisor)
            server = None
            try:
                server = serve_background(ClusterCommandProcessor(coordinator))
                host, port = server.server_address
                with FerretClient(host, port) as client:
                    results, tree = client.traced_query(0, top=5)
                    assert len(results) == 5
                    assert tree is not None, "no TRACE line piggybacked"

                    # One stitched tree: coordinator spans + every shard.
                    # Backend 1 hosts both shards, so it alone answers.
                    span_names = {span["name"] for span in tree["spans"]}
                    assert {"scatter", "gather"} <= span_names
                    nodes = tree["nodes"]
                    assert set().union(*map(shards_of, nodes)) == {0, 1}
                    assert list(nodes) == ["0+1.1"]
                    for key, subtree in nodes.items():
                        stages = subtree["stages"]
                        assert {"filter", "rank"} <= set(stages), (
                            f"node {key} shipped no engine stages"
                        )
                        assert subtree["notes"]["hop"] == "1"
                        assert (
                            subtree["rpc_seconds"]
                            >= subtree["total_seconds"] > 0.0
                        )
                        assert f"node.{key}" in span_names

                    # The stitched tree is fetchable + renderable later.
                    rendered = client.trace_tree(tree["trace_id"])
                    assert rendered[0].startswith(
                        f"trace {tree['trace_id']} method=cluster"
                    )
                    joined = "\n".join(rendered)
                    for key in nodes:
                        assert f"node {key} engine=" in joined
                    assert "laggard" in joined
            finally:
                if server is not None:
                    server.shutdown()
                    server.server_close()
                coordinator.close()

    def test_untraced_query_piggybacks_nothing(self):
        with ClusterSupervisor(
            2, replication=1, datatype=DATATYPE, size=SIZE, seed=SEED
        ) as supervisor:
            coordinator = make_coordinator(supervisor, replication=1)
            try:
                processor = ClusterCommandProcessor(coordinator)
                lines = processor.execute(parse_command("query 0 top=5"))
                assert not any(line.startswith("TRACE ") for line in lines)
                assert len(coordinator.trace_store) == 0
            finally:
                coordinator.close()


class TestPartialTrace:
    def test_partial_trace_names_missing_shards(self):
        with ClusterSupervisor(
            2, replication=1, datatype=DATATYPE, size=SIZE, seed=SEED
        ) as supervisor:
            coordinator = make_coordinator(
                supervisor, replication=1, breaker_failures=1
            )
            server = None
            try:
                server = serve_background(ClusterCommandProcessor(coordinator))
                host, port = server.server_address
                supervisor.backends[1].kill()
                with FerretClient(host, port) as client:
                    with pytest.warns(PartialResultWarning):
                        # Seed 0 lives on the surviving shard 0.
                        results, tree = client.traced_query(0, top=5)
                    assert client.last_partial_shards == (1,)
                    assert results  # live shards still answer
                    assert tree is not None
                    assert tree["notes"]["missing_shards"] == "1"
                    # Only the live shard contributed a subtree.
                    assert set().union(*map(shards_of, tree["nodes"])) == {0}
                    rendered = client.trace_tree(tree["trace_id"])
                    assert "PARTIAL shards=1" in rendered[0]
            finally:
                if server is not None:
                    server.shutdown()
                    server.server_close()
                coordinator.close()


class TestEventJournalDrill:
    def test_kill_drill_produces_ordered_postmortem(self, journal):
        with ClusterSupervisor(
            3, replication=2, datatype=DATATYPE, size=SIZE, seed=SEED
        ) as supervisor:
            coordinator = make_coordinator(supervisor)
            coordinator.start_probes()
            try:
                coordinator.query(0, top_k=5)
                mark = journal.total_recorded - 1

                supervisor.backends[0].kill()

                def breaker_open():
                    for seed in range(6):
                        coordinator.query(seed, top_k=5)
                    return (
                        coordinator.handles[0].breaker.state
                        is BreakerState.OPEN
                    )

                assert wait_until(breaker_open), "breaker never opened"

                supervisor.backends[0].restart()
                assert wait_until(
                    lambda: any(
                        e.kind == "backend_readmitted"
                        for e in journal.since(mark)
                    )
                ), "prober never re-admitted the restarted backend"
                assert wait_until(
                    lambda: all(
                        h.breaker.state is BreakerState.CLOSED
                        for h in coordinator.handles
                    )
                )

                events = journal.since(mark)
                seqs = [e.seq for e in events]
                assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)

                def first_seq(predicate):
                    matches = [e.seq for e in events if predicate(e)]
                    assert matches, "expected event missing from journal"
                    return matches[0]

                kill_seq = first_seq(lambda e: e.kind == "node_kill")
                open_seq = first_seq(
                    lambda e: e.kind == "breaker_transition"
                    and e.fields["backend"] == 0
                    and e.fields["new"] == "open"
                )
                failover_seq = first_seq(
                    lambda e: e.kind == "failover" and e.fields["primary"] == 0
                )
                readmit_seq = first_seq(
                    lambda e: e.kind == "backend_readmitted"
                )
                # The postmortem story, in provable order: the kill
                # happened, the breaker opened, traffic failed over,
                # and the node came back.
                assert kill_seq < open_seq < readmit_seq
                assert kill_seq < failover_seq
                assert any(e.kind == "node_restart" for e in events)

                # And it is queryable over the command surface.
                processor = ClusterCommandProcessor(coordinator)
                lines = processor.execute(parse_command("events 100"))
                assert lines[0].startswith("events_total ")
                assert any(" breaker_transition " in line for line in lines)
                assert any(" failover " in line for line in lines)
            finally:
                coordinator.close()


class TestFederation:
    def test_federation_survives_node_down(self):
        with ClusterSupervisor(
            3, replication=1, datatype=DATATYPE, size=SIZE, seed=SEED
        ) as supervisor:
            coordinator = make_coordinator(
                supervisor, replication=1, breaker_failures=1
            )
            try:
                coordinator.query(0, top_k=5)
                assert coordinator.collect_node_metrics() == 3
                registry = _metrics.get_registry()
                assert registry.value("cluster.nodes_up") == 3
                snapshot = registry.snapshot()
                assert any(name.startswith("node.0.") for name in snapshot)

                supervisor.backends[2].kill()
                # No exception with a dead node; the count just drops.
                assert coordinator.collect_node_metrics() == 2
                assert registry.value("cluster.nodes_up") == 2
            finally:
                coordinator.close()


class TestConcurrentBreakerFlips:
    ENDPOINTS = [("127.0.0.1", 21301 + i) for i in range(6)]

    def test_concurrent_flips_keep_total_order(self, journal):
        # No live backends needed: breakers flip locally, and each
        # transition records one journal entry from its calling thread.
        coordinator = FerretCoordinator(
            self.ENDPOINTS,
            num_shards=6,
            config=ClusterConfig(replication=1, breaker_failures=1),
        )
        try:
            mark = journal.total_recorded - 1
            barrier = threading.Barrier(len(coordinator.handles))

            def flip(handle):
                barrier.wait()
                handle.breaker.record_failure()

            threads = [
                threading.Thread(target=flip, args=(handle,))
                for handle in coordinator.handles
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

            events = [
                e for e in journal.since(mark)
                if e.kind == "breaker_transition"
            ]
            assert len(events) == len(coordinator.handles)
            seqs = [e.seq for e in events]
            assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
            assert {e.fields["backend"] for e in events} == set(
                range(len(coordinator.handles))
            )
            assert all(e.fields["new"] == "open" for e in events)
            # The gauges agree with the journal's end state.
            for i in range(len(coordinator.handles)):
                assert (
                    _metrics.get_registry().value(
                        f"cluster.backend.{i}.breaker_state"
                    )
                    == 2
                )
        finally:
            coordinator.close()

"""Coordinator correctness and robustness over in-process backends.

These tests run real ``FerretServer`` instances (threaded, ephemeral
ports) but in-process, so they are fast and deterministic; the
process-level kill/hang drills live in ``test_node_faults.py``.
"""

import socket
import sys
import threading
from contextlib import contextmanager

import pytest

from repro.cluster import (
    BreakerState,
    ClusterConfig,
    ClusterError,
    FerretCoordinator,
    ShardMap,
)
from repro.cluster.backend import build_backend_processor
from repro.cluster.coordinator import BackendHandle
from repro.cluster.service import ClusterCommandProcessor
from repro.datatypes import build_demo_engine
from repro.observability import metrics as _metrics
from repro.server.client import ClientError, FerretClient, PartialResultWarning
from repro.server.server import FerretServer, serve_background

DATATYPE, SIZE, SEED = "sensor", 48, 42


@pytest.fixture(scope="module")
def full_engine():
    engine, _bench = build_demo_engine(DATATYPE, size=SIZE, seed=SEED)
    return engine


class _Server(FerretServer):
    """FerretServer that remembers live connections so ``stop`` can
    sever them — closing only the listener would leave the
    coordinator's pooled connections answering from handler threads."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._conns = []

    def process_request(self, request, client_address):
        self._conns.append(request)
        super().process_request(request, client_address)


def serve(processor, host="127.0.0.1", port=0):
    server = _Server(processor, host, port)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    return server


def start_cluster(num_backends=3, num_shards=3, replication=2):
    smap = ShardMap(num_shards, num_backends, replication)
    servers = []
    for index in range(num_backends):
        processor = build_backend_processor(
            index, smap, datatype=DATATYPE, size=SIZE, seed=SEED
        )
        servers.append(serve(processor))
    return smap, servers, [s.server_address for s in servers]


def stop(server):
    server.shutdown()
    for conn in getattr(server, "_conns", []):
        try:
            conn.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            conn.close()
        except OSError:
            pass
    server.server_close()


@contextmanager
def running_cluster(num_backends=3, num_shards=3, replication=2):
    smap, servers, endpoints = start_cluster(
        num_backends, num_shards, replication
    )
    coordinator = FerretCoordinator(
        endpoints,
        num_shards=smap.num_shards,
        config=ClusterConfig(
            replication=smap.replication,
            backend_timeout=10.0,
            breaker_failures=2,
            breaker_cooldown=0.2,
            # These tests re-ask the same seeds across induced failures;
            # the result cache would mask the failover/PARTIAL paths
            # under test (cache behavior has its own suite in
            # test_coordinator_cache.py).
            cache_entries=0,
        ),
    )
    try:
        yield smap, servers, coordinator
    finally:
        coordinator.close()
        for server in servers:
            try:
                stop(server)
            except OSError:
                pass


@pytest.fixture()
def cluster():
    with running_cluster() as running:
        yield running


def record_calls(coordinator):
    """Log every ``(backend_id, line)`` the coordinator sends."""
    calls = []
    send = coordinator._call_backend

    def recording(backend_id, line, timeout=None):
        calls.append((backend_id, line))
        return send(backend_id, line, timeout=timeout)

    coordinator._call_backend = recording
    return calls


def query_calls(calls):
    """The query lines: by id (``querymany``) or by signature
    (``querysigmany``)."""
    return [(b, line) for b, line in calls if line.startswith("query")]


def printed(results):
    """Ids and distances as the wire prints them."""
    return [(r.object_id, f"{r.distance:.6f}") for r in results]


class TestMerge:
    def test_merge_is_deterministic_on_ties(self):
        shard_a = [(3, 1.0), (7, 2.0)]
        shard_b = [(5, 2.0), (9, 2.0)]
        merged = FerretCoordinator.merge_ranked([shard_a, shard_b], 3)
        # Boundary ties at 2.0 admit ascending ids: 5 and 7, never 9.
        assert [r.object_id for r in merged] == [3, 5, 7]

    def test_merge_independent_of_shard_split(self):
        pairs = [(i, float((i * 7) % 5)) for i in range(20)]
        split_a = [pairs[:10], pairs[10:]]
        split_b = [pairs[::2], pairs[1::2]]
        merged_a = FerretCoordinator.merge_ranked(split_a, 6)
        merged_b = FerretCoordinator.merge_ranked(split_b, 6)
        assert [(r.object_id, r.distance) for r in merged_a] == [
            (r.object_id, r.distance) for r in merged_b
        ]

    def test_merge_empty(self):
        assert FerretCoordinator.merge_ranked([], 5) == []

    def test_merge_top_zero_selects_nothing(self):
        assert FerretCoordinator.merge_ranked([[(3, 1.0)], [(5, 2.0)]], 0) == []


class TestQueries:
    def test_query_matches_single_engine(self, cluster, full_engine):
        _, _, coordinator = cluster
        for seed_id in (0, 7, 13):
            got = coordinator.query(seed_id, top_k=5)
            assert not got.partial
            want = full_engine.query(
                full_engine.get_object(seed_id), top_k=5, exclude_self=True
            )
            assert [r.object_id for r in got.results] == [
                r.object_id for r in want
            ]
            for a, b in zip(got.results, want):
                assert a.distance == pytest.approx(b.distance, abs=1e-4)

    def test_query_many_matches_single_engine(self, cluster, full_engine):
        _, _, coordinator = cluster
        seeds = [1, 2, 5, 8]
        batch = coordinator.query_many(seeds, top_k=4)
        assert len(batch) == len(seeds)
        for seed_id, got in zip(seeds, batch):
            want = full_engine.query(
                full_engine.get_object(seed_id), top_k=4, exclude_self=True
            )
            assert [r.object_id for r in got.results] == [
                r.object_id for r in want
            ]

    def test_count_does_not_double_count_replicas(self, cluster, full_engine):
        _, _, coordinator = cluster
        total, missing = coordinator.count()
        assert missing == ()
        assert total == len(full_engine)

    def test_served_by_maps_every_shard(self, cluster):
        smap, _, coordinator = cluster
        result = coordinator.query(0, top_k=3)
        assert sorted(result.served_by) == list(range(smap.num_shards))


class TestPlan:
    """One call per backend of a greedy minimal cover, not one per shard."""

    def test_full_replicas_answer_in_one_call(self):
        with running_cluster(2, 2, 2) as (_, _, coordinator):
            calls = record_calls(coordinator)
            result = coordinator.query(3, top_k=5)
            sent = query_calls(calls)
            assert len(sent) == 1 and "mod=" not in sent[0][1]
            assert result.served_by == {0: sent[0][0], 1: sent[0][0]}

    def test_backend_hosting_every_shard_serves_unrestricted(self):
        # Shard 0 lives on backends 0 and 1, shard 1 on 1 and 2.
        with running_cluster(4, 2, 2) as (_, _, coordinator):
            calls = record_calls(coordinator)
            result = coordinator.query(0, top_k=5)
            assert result.served_by == {0: 1, 1: 1}
            [(backend, line)] = query_calls(calls)
            assert backend == 1 and "mod=" not in line
            calls.clear()
            batch = coordinator.query_many([0, 1], top_k=3)
            assert all(r.served_by == {0: 1, 1: 1} for r in batch)
            # Backend 1 hosts both seeds' shards: the batch goes by id.
            [(backend, line)] = query_calls(calls)
            assert backend == 1 and line.startswith("querymany ")
            assert "mod=" not in line

    def test_partial_cover_restricts_by_residue_list(self, full_engine):
        # Backend 0 hosts shards 0 and 2, backend 1 shards 0 and 1.
        with running_cluster(3, 3, 2) as (_, _, coordinator):
            calls = record_calls(coordinator)
            result = coordinator.query(7, top_k=5)
            assert result.served_by == {0: 0, 1: 1, 2: 0}
            sent = dict(query_calls(calls))
            assert sorted(sent) == [0, 1]
            assert "mod=" not in sent[0]
            assert sent[1].endswith(" mod=3 residue=1")
            want = full_engine.query(
                full_engine.get_object(7), top_k=5, exclude_self=True
            )
            assert printed(result.results) == printed(want)
            calls.clear()
            assert coordinator.count() == (len(full_engine), ())
            assert sorted(line for _, line in calls) == [
                "countmod 3 0,2", "countmod 3 1",
            ]

    def test_killing_the_planned_backend_replans(self):
        with running_cluster(2, 2, 2) as (_, servers, coordinator):
            failovers = _metrics.counter("cluster.failovers")
            want = coordinator.query(4, top_k=5)
            assert want.served_by == {0: 0, 1: 0}
            before = failovers.value
            stop(servers[0])
            got = coordinator.query(4, top_k=5)
            assert not got.partial
            assert printed(got.results) == printed(want.results)
            assert got.served_by == {0: 1, 1: 1}
            assert failovers.value > before

    def test_r1_losing_a_backend_misses_exactly_its_shards(self, full_engine):
        # R=1: backend 1 alone hosts shards 1 and 3.
        with running_cluster(2, 4, 1) as (_, servers, coordinator):
            stop(servers[1])
            result = coordinator.query(0, top_k=10)
            assert result.missing_shards == (1, 3)
            assert set(result.served_by) == {0, 2}
            live = [oid for oid in full_engine.objects if oid % 4 in (0, 2)]
            want = full_engine.query(
                full_engine.get_object(0), top_k=10, exclude_self=True,
                restrict_to=live,
            )
            assert printed(result.results) == printed(want)


    def test_concurrent_calls_under_fast_switching(self, full_engine):
        # R=1, B=S=4: four calls per query, three on threads of their own.
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with running_cluster(4, 4, 1) as (_, _, coordinator):
                calls = record_calls(coordinator)
                for seed_id in range(12):
                    calls.clear()
                    got = coordinator.query(seed_id, top_k=5)
                    assert got.served_by == {s: s for s in range(4)}
                    # Three non-host calls race for the signature.
                    assert [
                        line for _, line in calls if line.startswith("getsig")
                    ] == [f"getsig {seed_id}"]
                    want = full_engine.query(
                        full_engine.get_object(seed_id), top_k=5,
                        exclude_self=True,
                    )
                    assert printed(got.results) == printed(want)
        finally:
            sys.setswitchinterval(previous)


class TestSeedRouting:
    """A backend that hosts the seed's shard gets the seed by id; any
    other backend gets its signature, fetched once per request."""

    def test_full_replicas_send_the_seed_by_id(self):
        with running_cluster(2, 2, 2) as (_, _, coordinator):
            calls = record_calls(coordinator)
            coordinator.query(3, top_k=5)
            assert calls == [(0, "querymany 3 top=5 method=filtering")]
            calls.clear()
            coordinator.query_many([3, 0, 3], top_k=5)
            assert calls == [(0, "querymany 3,0 top=5 method=filtering")]

    def test_non_host_gets_the_signature_after_one_getsig(self, full_engine):
        # Seed 7 is on shard 1 (backends 1 and 2); backend 0 answers
        # shards 0 and 2 without holding the seed.
        with running_cluster(3, 3, 2) as (_, _, coordinator):
            calls = record_calls(coordinator)
            result = coordinator.query(7, top_k=5)
            sent = dict(query_calls(calls))
            assert sent[1] == "querymany 7 top=5 method=filtering mod=3 residue=1"
            assert sent[0].startswith("querysigmany ")
            assert sent[0].endswith(" exclude=7")
            assert [line for _, line in calls if line.startswith("getsig")] == [
                "getsig 7"
            ]
            want = full_engine.query(
                full_engine.get_object(7), top_k=5, exclude_self=True
            )
            assert printed(result.results) == printed(want)
            # A batch goes by id only where every seed's shard is hosted.
            calls.clear()
            coordinator.query_many([7, 0], top_k=5)
            sent = dict(query_calls(calls))
            assert sent[0].startswith("querysigmany ")
            assert sent[1] == "querymany 7,0 top=5 method=filtering mod=3 residue=1"
            assert sorted(line for _, line in calls if line.startswith("getsig")) == [
                "getsig 0", "getsig 7",
            ]

    def test_failover_onto_a_non_host_fetches_the_signature(self, full_engine):
        # Seed 0 is on shard 0 (backends 0 and 1).  Backend 0 dies; its
        # shards 0 and 2 move to backends 1 and 2, and backend 2 does
        # not hold the seed.
        want = printed(full_engine.query(
            full_engine.get_object(0), top_k=5, exclude_self=True
        ))
        with running_cluster(3, 3, 2) as (_, servers, coordinator):
            assert printed(coordinator.query(0, top_k=5).results) == want
            stop(servers[0])
            calls = record_calls(coordinator)
            got = coordinator.query(0, top_k=5)
            assert not got.partial
            assert got.served_by == {0: 1, 1: 1, 2: 2}
            assert printed(got.results) == want
            sent = query_calls(calls)
            assert any(b == 2 and line.startswith("querysigmany ") for b, line in sent)
            assert any(
                b == 1 and line.startswith("querymany 0 ") for b, line in sent
            )

    def test_killing_the_host_replans_to_the_single_engine_answer(
        self, full_engine
    ):
        want = printed(full_engine.query(
            full_engine.get_object(4), top_k=5, exclude_self=True
        ))
        with running_cluster(2, 2, 2) as (_, servers, coordinator):
            stop(servers[0])
            calls = record_calls(coordinator)
            got = coordinator.query(4, top_k=5)
            assert got.served_by == {0: 1, 1: 1}
            assert printed(got.results) == want
            assert not any(line.startswith("getsig") for _, line in calls)

    def test_r1_seed_shard_down_cannot_fetch_seed(self):
        # R=1: shard 0 lives on backend 0 alone; backends 1 and 2 need
        # the signature, and its fetch fails inside their call threads.
        with running_cluster(3, 3, 1) as (_, servers, coordinator):
            stop(servers[0])
            with pytest.raises(ClusterError, match="cannot fetch seed 0"):
                coordinator.query(0, top_k=5)
            with pytest.raises(ClusterError, match="cannot fetch seed"):
                coordinator.query_many([1, 3], top_k=5)

    def test_failed_fetch_in_a_call_thread_is_raised(self):
        # R=1, B=S=4: backend 0 answers seed 0's shard by id in the
        # calling thread; backends 1-3 need the signature in threads of
        # their own.  Their failed fetch must reach the caller.
        with running_cluster(4, 4, 1) as (_, _, coordinator):
            fetches = []

            def failing_fetch(object_id):
                fetches.append(object_id)
                raise ClusterError(f"cannot fetch seed {object_id}: test")

            coordinator._fetch_signature = failing_fetch
            with pytest.raises(ClusterError, match="cannot fetch seed 0: test"):
                coordinator.query(0, top_k=5)
            assert fetches == [0]  # once per request, not once per call

    def test_every_host_down_still_raises(self):
        # R=B=2 with both backends gone: no call needs the signature,
        # and the seed's shard is missing, so the seed cannot be had.
        with running_cluster(2, 2, 2) as (_, servers, coordinator):
            for server in servers:
                stop(server)
            with pytest.raises(ClusterError, match="cannot fetch seed 1"):
                coordinator.query(1, top_k=5)


class TestExactSeed:
    def test_full_replication_matches_single_engine_exactly(self, full_engine):
        """R = B: the backend's answer is the single engine's, to the
        printed digit, which needs the float64 seed on the wire."""
        seeds = sorted(full_engine.objects)
        wants = [
            printed(full_engine.query(
                full_engine.get_object(seed_id), top_k=5, exclude_self=True
            ))
            for seed_id in seeds
        ]
        with running_cluster(2, 2, 2) as (_, _, coordinator):
            for seed_id, want in zip(seeds, wants):
                assert printed(coordinator.query(seed_id, top_k=5).results) == want
            batch = coordinator.query_many(seeds, top_k=5)
            assert [printed(r.results) for r in batch] == wants


class TestFailover:
    def test_replica_serves_when_primary_dies(self, cluster, full_engine):
        smap, servers, coordinator = cluster
        failovers = _metrics.counter("cluster.failovers")
        before = failovers.value
        want = coordinator.query(0, top_k=5)
        stop(servers[0])
        got = coordinator.query(0, top_k=5)
        # Full answer, zero missing shards: every shard backend 0
        # hosted has a live replica at R=2.
        assert not got.partial
        assert [r.object_id for r in got.results] == [
            r.object_id for r in want.results
        ]
        assert failovers.value > before

    def test_breaker_opens_and_sheds_dead_backend(self, cluster):
        _, servers, coordinator = cluster
        stop(servers[0])
        for _ in range(3):  # breaker_failures=2
            coordinator.query(0, top_k=3)
        assert coordinator.handles[0].breaker.state is not BreakerState.CLOSED
        gauge = _metrics.gauge("cluster.backend.0.breaker_state")
        assert gauge.value == 2.0  # open
        available = _metrics.gauge("cluster.backends_available")
        assert available.value == 2.0

    def test_readmission_after_restart(self, cluster):
        smap, servers, coordinator = cluster
        host, port = servers[0].server_address
        stop(servers[0])
        for _ in range(3):
            coordinator.query(0, top_k=3)
        assert coordinator.handles[0].breaker.state is BreakerState.OPEN

        processor = build_backend_processor(
            0, smap, datatype=DATATYPE, size=SIZE, seed=SEED
        )
        servers[0] = serve(processor, host, port)
        readmitted = 0
        deadline = 50
        while readmitted == 0 and deadline > 0:
            import time

            time.sleep(0.05)  # wait out breaker_cooldown=0.2
            readmitted = coordinator.probe_once()
            deadline -= 1
        assert readmitted == 1
        assert coordinator.handles[0].breaker.state is BreakerState.CLOSED
        result = coordinator.query(0, top_k=3)
        assert not result.partial


class TestPartialResults:
    def test_losing_every_replica_tags_partial(self, full_engine):
        smap, servers, endpoints = start_cluster(
            num_backends=3, num_shards=3, replication=1
        )
        coordinator = FerretCoordinator(
            endpoints,
            num_shards=3,
            config=ClusterConfig(
                replication=1, backend_timeout=10.0,
                breaker_failures=2, breaker_cooldown=60.0,
            ),
        )
        try:
            stop(servers[1])  # R=1: shard 1 now has no replica at all
            result = coordinator.query(0, top_k=10)
            assert result.partial
            assert result.missing_shards == (1,)
            # Still correct for live shards: equals the single-engine
            # answer restricted to objects of shards 0 and 2.
            live = [
                oid for oid in full_engine.objects if oid % 3 != 1
            ]
            want = full_engine.query(
                full_engine.get_object(0),
                top_k=10,
                exclude_self=True,
                restrict_to=sorted(live),
            )
            assert [r.object_id for r in result.results] == [
                r.object_id for r in want
            ]
        finally:
            coordinator.close()
            for index, server in enumerate(servers):
                if index != 1:
                    stop(server)

    def test_losing_seed_shard_raises(self):
        smap, servers, endpoints = start_cluster(
            num_backends=3, num_shards=3, replication=1
        )
        coordinator = FerretCoordinator(
            endpoints,
            num_shards=3,
            config=ClusterConfig(
                replication=1, backend_timeout=10.0,
                breaker_failures=1, breaker_cooldown=60.0,
            ),
        )
        try:
            stop(servers[0])
            with pytest.raises(ClusterError):
                coordinator.query(0, top_k=5)  # object 0 lives on shard 0
        finally:
            coordinator.close()
            for index, server in enumerate(servers):
                if index != 0:
                    stop(server)


class TestWrites:
    @pytest.fixture()
    def recording_file(self, tmp_path):
        import numpy as np

        from repro.datatypes.sensor.synthetic import (
            random_recording,
            random_subject,
            synthesize_recording,
        )

        rng = np.random.default_rng(7)
        signal, _spans = synthesize_recording(
            random_recording(rng), random_subject(rng), rng
        )
        path = tmp_path / "recording.npy"
        np.save(path, signal)
        return str(path)

    def test_insert_goes_to_every_replica(self, cluster, recording_file):
        smap, servers, coordinator = cluster
        object_id = coordinator.insert_file(recording_file)
        shard = smap.shard_of(object_id)
        for backend_id in range(smap.num_backends):
            engine = servers[backend_id].processor.engine
            if backend_id in smap.replicas(shard):
                assert object_id in engine
            else:
                assert object_id not in engine
        # The new object is immediately searchable cluster-wide.
        result = coordinator.query(object_id, top_k=3)
        assert not result.partial

    def test_under_replicated_write_is_acked_and_counted(
        self, cluster, recording_file
    ):
        smap, servers, coordinator = cluster
        under = _metrics.counter("cluster.under_replicated_writes")
        before = under.value
        # The next id's shard has replicas; kill the *second* one so the
        # primary still acks.
        next_id = coordinator._seed_next_id()
        shard = smap.shard_of(next_id)
        stop(servers[smap.replicas(shard)[1]])
        object_id = coordinator.insert_file(recording_file)
        assert object_id == next_id
        assert under.value == before + 1
        assert coordinator.health.degraded_components().get("replication")


class TestServiceFrontEnd:
    def test_wire_contract_full_and_partial(self, full_engine):
        smap, servers, endpoints = start_cluster(
            num_backends=3, num_shards=3, replication=1
        )
        coordinator = FerretCoordinator(
            endpoints,
            num_shards=3,
            config=ClusterConfig(
                replication=1, backend_timeout=10.0,
                breaker_failures=2, breaker_cooldown=60.0,
                # The same seed is re-asked after a backend stop; a
                # cached full answer would suppress the PARTIAL warning.
                cache_entries=0,
            ),
        )
        front = serve_background(ClusterCommandProcessor(coordinator))
        client = FerretClient(*front.server_address, timeout=10.0)
        try:
            assert client.ping()
            status = client.cluster_status()
            assert status["shards"] == "3"
            assert status["backends"] == "3"

            results = client.query(0, top=5)
            assert client.last_partial_shards == ()
            want = full_engine.query(
                full_engine.get_object(0), top_k=5, exclude_self=True
            )
            assert [oid for oid, _ in results] == [r.object_id for r in want]

            stop(servers[1])
            with pytest.warns(PartialResultWarning) as record:
                partial = client.query(0, top=5)
            assert client.last_partial_shards == (1,)
            assert record[0].message.missing_shards == (1,)
            assert all(oid % 3 != 1 for oid, _ in partial)

            # querymany carries the same tag once, before all groups.
            with pytest.warns(PartialResultWarning):
                groups = client.querymany([0, 3], top=4)
            assert len(groups) == 2
        finally:
            client.close()
            coordinator.close()
            stop(front)
            for index, server in enumerate(servers):
                if index != 1:
                    stop(server)

    def test_bad_requests_answer_err_not_failure(self, cluster):
        _, _, coordinator = cluster
        front = serve_background(ClusterCommandProcessor(coordinator))
        client = FerretClient(*front.server_address, timeout=10.0)
        try:
            with pytest.raises(ClientError):
                client.send("query notanid")
            with pytest.raises(ClientError):
                client.send("nosuchcommand")
            with pytest.raises(ClientError):
                client.send("query 999999 top=3")  # unknown object
            # The connection survives well-formed ERR answers.
            assert client.ping()
            # And bad requests never tripped a breaker.
            assert all(
                handle.breaker.state is BreakerState.CLOSED
                for handle in coordinator.handles
            )
        finally:
            client.close()
            stop(front)

    def test_bad_top_answers_err_not_failure(self, cluster):
        _, _, coordinator = cluster
        front = serve_background(ClusterCommandProcessor(coordinator))
        client = FerretClient(*front.server_address, timeout=10.0)
        unhandled = _metrics.counter("server.unhandled_errors")
        before = unhandled.value
        try:
            for top in ("abc", "0", "-1"):
                for line in (f"query 0 top={top}", f"querymany 0,7 top={top}"):
                    with pytest.raises(ClientError, match="bad top"):
                        client.send(line)
            assert client.ping()
            assert unhandled.value == before
        finally:
            client.close()
            stop(front)


class TestServiceErrors:
    """The front end answers ``ERR`` for what the coordinator raises on
    purpose; anything else is a bug for the server's fault boundary."""

    def test_relayed_unknown_object_keeps_the_backend_text(self, cluster):
        _, _, coordinator = cluster
        front = serve_background(ClusterCommandProcessor(coordinator))
        client = FerretClient(*front.server_address, timeout=10.0)
        unhandled = _metrics.counter("server.unhandled_errors")
        before = unhandled.value
        try:
            for line in ("query 999999 top=3", "querymany 999999,0 top=3"):
                with pytest.raises(ClientError, match="^unknown object 999999$"):
                    client.send(line)
            assert unhandled.value == before
        finally:
            client.close()
            stop(front)

    def test_coordinator_bug_reaches_unhandled_errors(self, cluster):
        _, _, coordinator = cluster

        def broken(*args, **kwargs):
            raise TypeError("routing bug")

        coordinator.query = broken
        coordinator.query_many = broken
        coordinator.insert_file = broken
        front = serve_background(ClusterCommandProcessor(coordinator))
        client = FerretClient(*front.server_address, timeout=10.0)
        unhandled = _metrics.counter("server.unhandled_errors")
        try:
            for line in ("query 0", "querymany 0,3", "insertfile /x.dat"):
                before = unhandled.value
                with pytest.raises(ClientError, match="TypeError: routing bug"):
                    client.send(line)
                assert unhandled.value == before + 1
        finally:
            client.close()
            stop(front)


class TestPooling:
    def test_handle_reuses_clean_connections(self, cluster):
        _, _, coordinator = cluster
        handle = coordinator.handles[0]
        assert handle.send("ping") == ["pong"]
        pooled = len(handle._idle)
        assert pooled >= 1
        assert handle.send("ping") == ["pong"]
        assert len(handle._idle) == pooled  # reused, not regrown

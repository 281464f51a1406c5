"""Coordinator query-result cache: epoch semantics, unit-level.

No real backends: ``_fetch_signature`` / ``_scatter`` /
``_call_backend`` are stubbed so each test controls exactly what the
cluster "answers" and counts how often the coordinator actually fans
out.  The contract under test:

1. a repeated full-answer query is served from the cache — zero
   scatters, identical ``ClusterResult``;
2. PARTIAL answers are never cached (missing shards must re-resolve);
3. an acknowledged insert moves the write epoch and flushes the cache;
4. a breaker transition moves the topology epoch and flushes the cache
   (a failover may change which replica — and which objects — answers);
5. an epoch that moves mid-flight suppresses the store entirely;
6. ``query_many`` shares the cache with ``query`` per seed;
7. it all shows up under ``cluster.cache.*`` and ``status_lines()``.
"""

import pytest

from repro.cluster import BreakerState, ClusterConfig, FerretCoordinator
from repro.observability import metrics as _metrics

ENDPOINTS = [("127.0.0.1", 20101), ("127.0.0.1", 20102)]


def _value(name):
    return _metrics.get_registry().value(name)


class FakeCluster:
    """Installs scripted answers on a coordinator and counts fan-outs."""

    def __init__(self, coordinator, missing=()):
        self.coordinator = coordinator
        self.missing = tuple(missing)
        self.scatters = 0
        self.sig_fetches = 0
        coordinator._fetch_signature = self._fetch_signature
        coordinator._scatter = self._scatter

    def _fetch_signature(self, object_id):
        self.sig_fetches += 1
        return f"sig{object_id}"

    def _scatter(self, line_for, parse, trace, trace_ctx=None):
        self.scatters += 1
        line = line_for(0, (0,))
        # ``querymany`` or ``querysigmany``: one result list per seed.
        n_seeds = len(line.split()[1].split(","))
        payload = [[(10 + i, 0.125 * (i + 1))] for i in range(n_seeds)]
        per_shard = {
            shard: payload
            for shard in range(self.coordinator.shard_map.num_shards)
            if shard not in self.missing
        }
        served_by = {shard: shard % 2 for shard in per_shard}
        return per_shard, self.missing, served_by, {}


def make_coordinator(**overrides):
    settings = dict(
        replication=1,
        breaker_failures=1,
        breaker_cooldown=60.0,
        cache_entries=32,
    )
    settings.update(overrides)
    return FerretCoordinator(
        ENDPOINTS, num_shards=2, config=ClusterConfig(**settings)
    )


def test_repeat_query_served_from_cache():
    coordinator = make_coordinator()
    fake = FakeCluster(coordinator)
    hits_before = _value("cluster.cache.hits")
    first = coordinator.query(3, top_k=4)
    assert fake.scatters == 1 and not first.partial
    again = coordinator.query(3, top_k=4)
    assert fake.scatters == 1  # no second fan-out
    assert fake.sig_fetches == 1  # not even the seed fetch
    assert [r.object_id for r in again.results] == [
        r.object_id for r in first.results
    ]
    assert again.served_by == first.served_by
    assert _value("cluster.cache.hits") == hits_before + 1
    # Different top_k / seed / method are distinct keys.
    coordinator.query(3, top_k=5)
    assert fake.scatters == 2
    coordinator.query(4, top_k=4)
    assert fake.scatters == 3


def test_cached_result_is_a_fresh_copy():
    coordinator = make_coordinator()
    FakeCluster(coordinator)
    first = coordinator.query(1, top_k=4)
    n_results = len(first.results)
    first.results.pop()
    first.served_by.clear()
    again = coordinator.query(1, top_k=4)
    assert len(again.results) == n_results and again.served_by


def test_partial_results_never_cached():
    coordinator = make_coordinator()
    fake = FakeCluster(coordinator, missing=(1,))
    result = coordinator.query(2, top_k=4)
    assert result.partial and result.missing_shards == (1,)
    coordinator.query(2, top_k=4)
    assert fake.scatters == 2  # PARTIAL is re-resolved every time


def test_insert_moves_write_epoch_and_flushes():
    coordinator = make_coordinator()
    fake = FakeCluster(coordinator)
    coordinator._call_backend = lambda backend_id, line, timeout=None: ["0"]
    coordinator.query(1, top_k=4)
    invalidations_before = _value("cluster.cache.invalidations")
    coordinator.insert_file("/tmp/x.dat")
    assert coordinator._cache_epoch()[0] == 1
    coordinator.query(1, top_k=4)
    assert fake.scatters == 2  # cached answer was flushed
    assert _value("cluster.cache.invalidations") == invalidations_before + 1


def test_breaker_transition_moves_topology_epoch_and_flushes():
    coordinator = make_coordinator()
    fake = FakeCluster(coordinator)
    coordinator.query(1, top_k=4)
    # One failure opens the breaker (breaker_failures=1): a failover to
    # another replica may change which objects answer shard 0.
    coordinator.handles[0].breaker.record_failure()
    assert coordinator.handles[0].breaker.state is BreakerState.OPEN
    assert coordinator._cache_epoch()[1] >= 1
    coordinator.query(1, top_k=4)
    assert fake.scatters == 2


def test_midflight_epoch_move_suppresses_store():
    coordinator = make_coordinator()
    fake = FakeCluster(coordinator)
    inner = fake._scatter

    def scatter_during_write(line_for, parse, trace, trace_ctx=None):
        # A write lands while the scatter is in flight: the answer being
        # assembled may already be stale and must not be cached.
        coordinator._write_epoch += 1
        return inner(line_for, parse, trace, trace_ctx=trace_ctx)

    coordinator._scatter = scatter_during_write
    coordinator.query(1, top_k=4)
    coordinator.query(1, top_k=4)
    assert fake.scatters == 2


def test_query_many_shares_cache_with_query():
    coordinator = make_coordinator()
    fake = FakeCluster(coordinator)
    first = coordinator.query(1, top_k=4)
    assert fake.scatters == 1
    # Seed 1 hits; only seed 2 goes to the backends.
    results = coordinator.query_many([1, 2], top_k=4)
    assert fake.scatters == 2
    assert len(results) == 2 and not results[0].partial
    assert [r.object_id for r in results[0].results] == [
        r.object_id for r in first.results
    ]
    # Now everything is cached: a mixed batch costs zero fan-outs.
    again = coordinator.query_many([2, 1], top_k=4)
    assert fake.scatters == 2
    assert [r.object_id for r in again[1].results] == [
        r.object_id for r in first.results
    ]
    assert [r.object_id for r in again[0].results] == [
        r.object_id for r in results[1].results
    ]


def test_queries_count_every_seed_hit_or_miss():
    coordinator = make_coordinator()
    FakeCluster(coordinator)
    queries = _metrics.counter("cluster.queries")
    before = queries.value
    coordinator.query(1, top_k=4)
    coordinator.query_many([1, 2, 2], top_k=4)
    assert queries.value == before + 4


def test_query_many_partial_not_cached():
    coordinator = make_coordinator()
    fake = FakeCluster(coordinator, missing=(1,))
    results = coordinator.query_many([5, 6], top_k=4)
    assert all(r.partial for r in results)
    coordinator.query_many([5, 6], top_k=4)
    assert fake.scatters == 2


def test_cache_disabled_by_config():
    coordinator = make_coordinator(cache_entries=0)
    fake = FakeCluster(coordinator)
    coordinator.query(1, top_k=4)
    coordinator.query(1, top_k=4)
    assert fake.scatters == 2


def test_status_lines_report_cache():
    coordinator = make_coordinator()
    FakeCluster(coordinator)
    coordinator.query(1, top_k=4)
    coordinator.query(1, top_k=4)
    lines = coordinator.status_lines()
    joined = "\n".join(lines)
    assert "cache_entries 1/32" in joined
    assert "cache_hits" in joined and "cache_misses" in joined
    assert "cache_invalidations" in joined

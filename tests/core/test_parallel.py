"""Filter full scan: the compiled top-k pass against the reference.

The filter keeps each query row's top-k inside the compiled kernel
(``bitvector.hamming_topk``).  It must be *candidate-set identical* to
the per-segment `sketch_filter_reference`, which is numpy only and
shares no code with the C kernel.  Determinism under ties is what makes
that possible: both select the k smallest distances with
smallest-row-index-wins at the kth value.  The ``host_split`` fixture
runs a check from 1, 2 or 3 threads at once (the kernel runs outside
the GIL, so concurrent scans overlap) and counts the scans that served.
"""

import threading
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    FeatureMeta,
    FilterParams,
    ObjectSignature,
    ParallelConfig,
    QueryResultCache,
    SegmentStore,
    SimilaritySearchEngine,
    SketchConstructor,
    SketchParams,
    filtering,
    get_threshold_fn,
    register_threshold_fn,
    sketch_filter,
    sketch_filter_many,
    sketch_filter_reference,
)
from repro.observability import metrics


CALLERS = (1, 2, 3)


@contextmanager
def _served():
    """Yields a list that gets one ``compiled`` per full scan (one call
    of the fused top-k pass), in order."""
    served = []
    topk = filtering.hamming_topk

    def fused(*args):
        served.append("compiled")
        return topk(*args)

    with mock.patch.object(filtering, "hamming_topk", fused):
        yield served


class _Host:
    """The number of threads that run each check at once."""

    def __init__(self, callers, served):
        self.callers, self.served = callers, served

    def run(self, check):
        """Run ``check`` on every caller thread at once; re-raise the first
        failure."""
        self.served.clear()
        errors = []
        start = threading.Barrier(self.callers)

        def call():
            try:
                start.wait(timeout=10)
                check()
            except BaseException as exc:  # reported by the test thread
                errors.append(exc)

        threads = [threading.Thread(target=call) for _ in range(self.callers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        if errors:
            raise errors[0]


@pytest.fixture(params=CALLERS, ids=str)
def host_split(request):
    """A caller count: yields a :class:`_Host`."""
    with _served() as served:
        yield _Host(request.param, served)


# ----------------------------------------------------------------------
# Store builders
# ----------------------------------------------------------------------
class _NoCompactor:
    """Stands in for an attached compactor: tombstones stay in place."""

    def wake(self):
        pass


def _seeded_store(seed, num_objects=40, segs=3, dim=8, n_bits=64,
                  dup_frac=0.35, tombstones=()):
    """Random store with deliberate duplicate segments (=> distance ties)."""
    meta = FeatureMeta(dim, np.zeros(dim), np.ones(dim))
    sk = SketchConstructor(SketchParams(n_bits, meta, seed=seed))
    store = SegmentStore(sk.n_words, n_bits=sk.n_bits)
    rng = np.random.default_rng(seed)
    shared = rng.random((6, dim))  # shared rows -> identical sketches
    objects = {}
    for oid in range(num_objects):
        feats = rng.random((segs, dim))
        for s in range(segs):
            if rng.random() < dup_frac:
                feats[s] = shared[rng.integers(0, len(shared))]
        objects[oid] = ObjectSignature(
            feats, rng.random(segs) + 0.1, object_id=oid
        )
        store.add_object(oid, sk.sketch_many(feats))
    for oid in tombstones:
        store.remove_object(oid)
    return sk, store, objects


def _handmade_store(words_per_row, owners_per_row):
    """Store whose packed sketch words (hence distances) are explicit."""
    store = SegmentStore(n_words=1)
    for owner, word in zip(owners_per_row, words_per_row):
        store.add_object(owner, np.array([[word]], dtype=np.uint64))
    return store


PARAMS_VARIANTS = [
    FilterParams(num_query_segments=3, candidates_per_segment=8),
    FilterParams(num_query_segments=2, candidates_per_segment=4,
                 threshold_fraction=0.35),
    FilterParams(num_query_segments=1, candidates_per_segment=1000,
                 threshold_fraction=0.5, threshold_fn="constant"),
]


# ----------------------------------------------------------------------
# Property: the fused scan == reference
# ----------------------------------------------------------------------
@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    num_objects=st.sampled_from([3, 17, 40]),
    variant=st.integers(0, len(PARAMS_VARIANTS) - 1),
)
def test_pool_matches_reference_randomized(seed, num_objects, variant):
    """Randomized equivalence on stores of a few rows to ~120."""
    params = PARAMS_VARIANTS[variant]
    sk, store, objects = _seeded_store(
        seed, num_objects=num_objects, tombstones=range(1, num_objects, 4)
    )
    queries = [objects[0], objects[num_objects // 2], objects[num_objects - 1]]
    sketches = [sk.sketch_many(q.features) for q in queries]
    with _served() as served:
        many = sketch_filter_many(queries, sketches, store, params, sk.n_bits)
    assert served == ["compiled"]  # one fused scan for the whole batch
    for q, qs, expect in zip(queries, sketches, many):
        assert sketch_filter_reference(q, qs, store, params, sk.n_bits) == expect


def test_pool_matches_reference_all_params(host_split):
    """Dense check on one store across the parameter grid, including the
    single-query path and tombstones."""
    sk, store, objects = _seeded_store(123, tombstones=range(10, 22))
    queries = [objects[i] for i in (0, 3, 30)]
    sketches = [sk.sketch_many(q.features) for q in queries]

    def check():
        for params in PARAMS_VARIANTS:
            many = sketch_filter_many(queries, sketches, store, params, sk.n_bits)
            for q, qs, got in zip(queries, sketches, many):
                expect = sketch_filter_reference(q, qs, store, params, sk.n_bits)
                assert got == expect
                assert sketch_filter(q, qs, store, params, sk.n_bits) == expect

    host_split.run(check)
    assert host_split.served  # every query scanned the arena


# ----------------------------------------------------------------------
# Tie and boundary cases
# ----------------------------------------------------------------------
def _one_segment_query():
    return ObjectSignature(np.zeros((1, 2)), [1.0], object_id=999)


_ZERO = np.array([[0]], dtype=np.uint64)


def test_ties_exactly_at_distance_threshold(host_split):
    """Rows at distance == threshold are kept; one popcount more is cut.

    With ``threshold_fn="constant"`` and ``threshold_fraction=2/64`` the
    cutoff is exactly 2.0, which every path must compare identically.
    """
    # Query sketch = all-zero word; row distance == popcount of its word.
    words = [0b0, 0b1, 0b11, 0b11, 0b111, 0b1111111]  # dists 0,1,2,2,3,7
    store = _handmade_store(words, owners_per_row=[10, 11, 12, 13, 14, 15])
    params = FilterParams(
        num_query_segments=1, candidates_per_segment=100,
        threshold_fraction=2 / 64, threshold_fn="constant",
    )
    query = _one_segment_query()
    expect = {10, 11, 12, 13}  # d <= 2 kept, d == 3 cut

    def check():
        assert sketch_filter_reference(query, _ZERO, store, params, 64) == expect
        assert sketch_filter(query, _ZERO, store, params, 64) == expect
        assert sketch_filter_many([query], [_ZERO], store, params, 64) == [expect]

    host_split.run(check)
    assert host_split.served == ["compiled"] * (2 * host_split.callers)


TIES_AT_KTH = [
    # Rows 0-4 tie at distance 2; row 5 is the one row at distance 1.
    ([0b11] * 5 + [0b1], 3, {25, 20, 21}),
    # Row 0 is nearest; rows 1-5 tie at distance 2 for the last slot.
    ([0b1] + [0b11] * 5, 2, {20, 21}),
]


def test_ties_at_kth_boundary_pick_smallest_rows(host_split):
    """Rows tie at the kth distance; every path keeps the smallest rows,
    the fused pass by admitting only strictly nearer later rows."""
    query = _one_segment_query()
    for words, k, expect in TIES_AT_KTH:
        store = _handmade_store(words, owners_per_row=[20, 21, 22, 23, 24, 25])
        params = FilterParams(num_query_segments=1, candidates_per_segment=k)

        def check():
            assert sketch_filter_reference(query, _ZERO, store, params, 64) == expect
            assert sketch_filter(query, _ZERO, store, params, 64) == expect

        host_split.run(check)
        assert host_split.served == ["compiled"] * host_split.callers


def test_k_larger_than_shard_size(host_split):
    """candidates_per_segment of 10, and of 1000: above the 14 live
    rows, so k is capped at the live count and every row is selected."""
    sk, store, objects = _seeded_store(5, num_objects=7, segs=2)
    q = objects[0]
    qs = sk.sketch_many(q.features)

    def check():
        for k in (10, 1000):
            params = FilterParams(num_query_segments=2, candidates_per_segment=k)
            expect = sketch_filter_reference(q, qs, store, params, sk.n_bits)
            assert sketch_filter(q, qs, store, params, sk.n_bits) == expect

    host_split.run(check)


def test_empty_shards_more_workers_than_rows():
    """One row and k = 5: k is capped at the one live row, which the scan
    selects."""
    sk, store, objects = _seeded_store(6, num_objects=1, segs=1)
    params = FilterParams(num_query_segments=1, candidates_per_segment=5)
    q = objects[0]
    qs = sk.sketch_many(q.features)
    with _served() as served:
        assert sketch_filter(q, qs, store, params, sk.n_bits) == {0}
    assert served == ["compiled"]


def test_empty_store_and_all_tombstones(host_split):
    """An empty store, an all-dead store, and a store whose lower, then
    upper, four rows are tombstones (a dead row is never admitted, even
    while the fused pass's heap is not yet full)."""
    params = FilterParams(num_query_segments=1, candidates_per_segment=5)
    query = _one_segment_query()
    dead = _handmade_store([0b1, 0b10], owners_per_row=[1, 2])
    dead.remove_object(1)
    dead.remove_object(2)
    words = [0b1, 0b11, 0b111, 0b1111, 0b0, 0b1, 0b11, 0b111]
    stores = []
    for dead_rows, live_rows in ((range(4), range(4, 8)), (range(4, 8), range(4))):
        store = _handmade_store(words, owners_per_row=range(8))
        store.attach_compactor(_NoCompactor())
        for oid in dead_rows:
            store.remove_object(oid)
        stores.append((store, set(live_rows)))

    def check():
        assert sketch_filter(query, _ZERO, SegmentStore(n_words=1), params, 64) == set()
        assert sketch_filter(query, _ZERO, dead, params, 64) == set()
        for store, live in stores:
            assert sketch_filter_reference(query, _ZERO, store, params, 64) == live
            assert sketch_filter(query, _ZERO, store, params, 64) == live
            assert sketch_filter_many([query], [_ZERO], store, params, 64) == [live]

    host_split.run(check)
    assert host_split.served == ["compiled"] * (4 * host_split.callers)


# ----------------------------------------------------------------------
# FilterParams threshold registry
# ----------------------------------------------------------------------
def test_threshold_fn_registry_roundtrip():
    params = FilterParams(threshold_fraction=0.4, threshold_fn="constant")
    assert params.threshold_factor(0.25) == 1.0
    assert params.cache_key() is not None
    with pytest.raises(ValueError, match="registered"):
        get_threshold_fn("no-such-fn")
    with pytest.raises(ValueError):
        FilterParams(threshold_fn="no-such-fn")


def test_unregistered_callable_not_serializable():
    params = FilterParams(threshold_fn=lambda w: 2.0)
    assert params.threshold_factor(0.5) == 2.0
    assert params.cache_key() is None  # uncacheable, never wrong
    register_threshold_fn("test-doubler", lambda w: 2.0 * w)
    named = FilterParams(threshold_fn="test-doubler")
    assert named.threshold_factor(3.0) == 6.0


# ----------------------------------------------------------------------
# Query-result cache
# ----------------------------------------------------------------------
def test_cache_hit_identity_and_epoch_invalidation():
    cache = QueryResultCache(max_entries=4)
    value = frozenset({1, 2})
    assert cache.lookup(0, "a") is None
    cache.store(0, "a", value)
    assert cache.lookup(0, "a") is value  # same object, not a copy
    assert cache.lookup(1, "a") is None  # epoch moved -> flushed
    cache.store(1, "a", value)
    assert len(cache) == 1
    stats = cache.stats()
    assert stats["hits"] == 1 and stats["invalidations"] == 1


def test_cache_lru_bound_and_disabled():
    cache = QueryResultCache(max_entries=2)
    cache.store(0, "a", 1)
    cache.store(0, "b", 2)
    assert cache.lookup(0, "a") == 1  # refresh "a"
    cache.store(0, "c", 3)  # evicts "b"
    assert cache.lookup(0, "b") is None
    assert cache.lookup(0, "a") == 1
    assert len(cache) == 2
    off = QueryResultCache(max_entries=0)
    off.store(0, "a", 1)
    assert off.lookup(0, "a") is None and len(off) == 0
    cache.store(0, None, 9)  # None key (unserializable params): no-op
    assert cache.lookup(0, None) is None


def test_query_result_cache_metrics_prefix():
    registry = metrics.get_registry()
    cache = QueryResultCache(4, metrics_prefix="cluster.cache")
    before_hits = registry.value("cluster.cache.hits")
    before_misses = registry.value("cluster.cache.misses")
    assert cache.lookup(1, "k") is None
    cache.store(1, "k", "v")
    assert cache.lookup(1, "k") == "v"
    assert registry.value("cluster.cache.misses") == before_misses + 1
    assert registry.value("cluster.cache.hits") == before_hits + 1


# ----------------------------------------------------------------------
# Engine integration: answers, and the result cache
# ----------------------------------------------------------------------
def _image_engine(n=60, cache_entries=16):
    from repro.datatypes.bulk import bulk_image_dataset
    from repro.datatypes.image import make_image_plugin

    plugin = make_image_plugin()
    engine = SimilaritySearchEngine(
        plugin,
        SketchParams(64, plugin.meta, seed=0),
        FilterParams(num_query_segments=3, candidates_per_segment=16),
        parallel=ParallelConfig(cache_entries=cache_entries),
    )
    engine.insert_many(list(bulk_image_dataset(n, seed=3)))
    return engine


def _answers(engine, qid):
    return [(r.object_id, r.distance) for r in engine.query_by_id(qid, top_k=5)]


def test_engine_parallel_results_and_cache():
    """An engine with a result cache answers what an uncached engine
    answers, before and after a remove."""
    serial = _image_engine(cache_entries=0)
    par = _image_engine()
    with serial, par:
        for qid in (0, 4, 4, 0):
            a = _answers(serial, qid)
            with _served() as served:
                assert _answers(par, qid) == a
        assert par.parallel_info()["cache"]["hits"] >= 2
        assert not served  # a cache hit scans nothing
        # A mutation invalidates cached candidate sets; the next scan
        # reads the arena as it is now, with no reload step.
        par.remove(50)
        serial.remove(50)
        a = _answers(serial, 0)
        with _served() as served:
            assert _answers(par, 0) == a
        assert served == ["compiled"]
        assert par.parallel_info()["cache"]["invalidations"] >= 1
        assert par._pool is None


@pytest.mark.perf
def test_two_worker_smoke():
    """CI smoke: on a denser store, the batched scan is candidate-set
    identical to the reference (the `make smoke` gate)."""
    sk, store, objects = _seeded_store(
        31, num_objects=150, segs=3, tombstones=range(40, 60)
    )
    params = FilterParams(
        num_query_segments=3, candidates_per_segment=32,
        threshold_fraction=0.45,
    )
    queries = [objects[i] for i in (0, 25, 75, 149)]
    sketches = [sk.sketch_many(q.features) for q in queries]
    want = [
        sketch_filter_reference(q, qs, store, params, sk.n_bits)
        for q, qs in zip(queries, sketches)
    ]
    with _served() as served:
        assert sketch_filter_many(queries, sketches, store, params, sk.n_bits) == want
    assert served == ["compiled"]

"""Sharded parallel filtering scan: correctness, caching, fallback.

The pool path must be *candidate-set identical* to both serial
implementations (`sketch_filter_many` and the per-segment
`sketch_filter_reference`) under every shard geometry — that is the
acceptance gate for the thread-pool scan.  Determinism under ties is
what makes that possible: every path selects the k smallest distances
with smallest-row-index-wins at the kth value, so shard boundaries and
merge order cannot change the result.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    FeatureMeta,
    FilterParams,
    ObjectSignature,
    ParallelConfig,
    ThreadFilterPool,
    ParallelScanError,
    QueryResultCache,
    SegmentStore,
    SimilaritySearchEngine,
    SketchConstructor,
    SketchParams,
    get_threshold_fn,
    parallel_sketch_filter,
    parallel_sketch_filter_many,
    register_threshold_fn,
    sketch_filter,
    sketch_filter_many,
    sketch_filter_reference,
)

WORKER_COUNTS = (1, 2, 3)


# ----------------------------------------------------------------------
# Store builders
# ----------------------------------------------------------------------
def _seeded_store(seed, num_objects=40, segs=3, dim=8, n_bits=64,
                  dup_frac=0.35, tombstones=()):
    """Random store with deliberate duplicate segments (=> distance ties)."""
    meta = FeatureMeta(dim, np.zeros(dim), np.ones(dim))
    sk = SketchConstructor(SketchParams(n_bits, meta, seed=seed))
    store = SegmentStore(sk.n_words, dim)
    rng = np.random.default_rng(seed)
    pool_feats = rng.random((6, dim))  # shared rows -> identical sketches
    objects = {}
    for oid in range(num_objects):
        feats = rng.random((segs, dim))
        for s in range(segs):
            if rng.random() < dup_frac:
                feats[s] = pool_feats[rng.integers(0, len(pool_feats))]
        objects[oid] = ObjectSignature(
            feats, rng.random(segs) + 0.1, object_id=oid
        )
        store.add_object(oid, sk.sketch_many(feats), feats)
    for oid in tombstones:
        store.remove_object(oid)
    return sk, store, objects


def _handmade_store(words_per_row, owners_per_row, n_bits=64):
    """Store whose packed sketch words (hence distances) are explicit."""
    store = SegmentStore(n_words=1, dim=2)
    for owner, word in zip(owners_per_row, words_per_row):
        store.add_object(
            owner,
            np.array([[word]], dtype=np.uint64),
            np.zeros((1, 2)),
        )
    return store


def _load_pool(pool, store):
    epoch, owners, sketches = store.versioned_snapshot()
    pool.load(owners, sketches, epoch=epoch)


PARAMS_VARIANTS = [
    FilterParams(num_query_segments=3, candidates_per_segment=8),
    FilterParams(num_query_segments=2, candidates_per_segment=4,
                 threshold_fraction=0.35),
    FilterParams(num_query_segments=1, candidates_per_segment=1000,
                 threshold_fraction=0.5, threshold_fn="constant"),
]


# ----------------------------------------------------------------------
# Property: pool == serial == reference, across shard geometries
# ----------------------------------------------------------------------
@pytest.fixture(scope="module", params=WORKER_COUNTS)
def pool(request):
    with ThreadFilterPool(num_workers=request.param) as p:
        yield p


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    shard_rows=st.sampled_from([None, 3, 17]),
    variant=st.integers(0, len(PARAMS_VARIANTS) - 1),
)
def test_pool_matches_reference_randomized(seed, shard_rows, variant):
    """Randomized equivalence at every worker count (incl. 1)."""
    params = PARAMS_VARIANTS[variant]
    sk, store, objects = _seeded_store(seed, tombstones=range(5, 12))
    queries = [objects[0], objects[20], objects[7]]
    sketches = [sk.sketch_many(q.features) for q in queries]
    serial = sketch_filter_many(queries, sketches, store, params, sk.n_bits)
    for workers in WORKER_COUNTS:
        with ThreadFilterPool(
            num_workers=workers, shard_rows=shard_rows
        ) as p:
            _load_pool(p, store)
            par = parallel_sketch_filter_many(
                queries, sketches, params, sk.n_bits, p
            )
        assert par == serial
    for q, qs, expect in zip(queries, sketches, serial):
        assert sketch_filter_reference(q, qs, store, params, sk.n_bits) == expect


def test_pool_matches_reference_all_params(pool):
    """Dense check on one store across the parameter grid (per fixture
    worker count), including the fused serial path and tombstones."""
    sk, store, objects = _seeded_store(123, tombstones=range(10, 22))
    queries = [objects[i] for i in (0, 3, 30)]
    sketches = [sk.sketch_many(q.features) for q in queries]
    _load_pool(pool, store)
    for params in PARAMS_VARIANTS:
        serial = sketch_filter_many(queries, sketches, store, params, sk.n_bits)
        par = parallel_sketch_filter_many(
            queries, sketches, params, sk.n_bits, pool
        )
        assert par == serial
        for q, qs, expect in zip(queries, sketches, serial):
            assert (
                sketch_filter(q, qs, store, params, sk.n_bits) == expect
            )
            assert (
                sketch_filter_reference(q, qs, store, params, sk.n_bits)
                == expect
            )
            assert (
                parallel_sketch_filter(q, qs, params, sk.n_bits, pool)
                == expect
            )


# ----------------------------------------------------------------------
# Tie and boundary cases
# ----------------------------------------------------------------------
def _one_segment_query():
    return ObjectSignature(np.zeros((1, 2)), [1.0], object_id=999)


def test_ties_exactly_at_distance_threshold(pool):
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
    qs = np.array([[0]], dtype=np.uint64)
    expect = {10, 11, 12, 13}  # d <= 2 kept, d == 3 cut
    assert sketch_filter_reference(query, qs, store, params, 64) == expect
    assert sketch_filter(query, qs, store, params, 64) == expect
    _load_pool(pool, store)
    assert parallel_sketch_filter(query, qs, params, 64, pool) == expect


def test_ties_at_kth_boundary_pick_smallest_rows(pool):
    """Five rows tie at the kth distance; every path keeps the same two
    (smallest row index wins), so shard geometry cannot flip the set."""
    words = [0b11] * 5 + [0b1]  # rows 0-4 at distance 2, row 5 at 1
    store = _handmade_store(words, owners_per_row=[20, 21, 22, 23, 24, 25])
    params = FilterParams(num_query_segments=1, candidates_per_segment=3)
    query = _one_segment_query()
    qs = np.array([[0]], dtype=np.uint64)
    expect = {25, 20, 21}  # d=1 row, then rows 0 and 1 of the tie
    assert sketch_filter_reference(query, qs, store, params, 64) == expect
    assert sketch_filter(query, qs, store, params, 64) == expect
    for shard_rows in (None, 1, 2):
        with ThreadFilterPool(num_workers=2, shard_rows=shard_rows) as p:
            _load_pool(p, store)
            assert parallel_sketch_filter(query, qs, params, 64, p) == expect


def test_k_larger_than_shard_size(pool):
    """candidates_per_segment far beyond shard_rows and row count."""
    sk, store, objects = _seeded_store(5, num_objects=7, segs=2)
    params = FilterParams(num_query_segments=2, candidates_per_segment=1000)
    q = objects[0]
    qs = sk.sketch_many(q.features)
    expect = sketch_filter_reference(q, qs, store, params, sk.n_bits)
    with ThreadFilterPool(num_workers=3, shard_rows=2) as p:
        _load_pool(p, store)
        assert parallel_sketch_filter(q, qs, params, sk.n_bits, p) == expect


def test_empty_shards_more_workers_than_rows():
    """Workers that receive no shard must still answer scans."""
    sk, store, objects = _seeded_store(6, num_objects=1, segs=2)
    params = FilterParams(num_query_segments=2, candidates_per_segment=5)
    q = objects[0]
    qs = sk.sketch_many(q.features)
    expect = sketch_filter_reference(q, qs, store, params, sk.n_bits)
    with ThreadFilterPool(num_workers=3) as p:  # 2 rows, 3 workers
        _load_pool(p, store)
        assert parallel_sketch_filter(q, qs, params, sk.n_bits, p) == expect


def test_empty_store_and_all_tombstones(pool):
    params = FilterParams(num_query_segments=1, candidates_per_segment=5)
    query = _one_segment_query()
    qs = np.array([[0]], dtype=np.uint64)
    empty = SegmentStore(n_words=1, dim=2)
    _load_pool(pool, empty)
    assert parallel_sketch_filter(query, qs, params, 64, pool) == set()
    dead = _handmade_store([0b1, 0b10], owners_per_row=[1, 2])
    dead.remove_object(1)
    dead.remove_object(2)
    _load_pool(pool, dead)
    assert parallel_sketch_filter(query, qs, params, 64, pool) == set()
    assert sketch_filter(query, qs, dead, params, 64) == set()


def test_pool_staleness_and_reload(pool):
    sk, store, objects = _seeded_store(11, num_objects=8)
    _load_pool(pool, store)
    assert pool.matches(store.epoch)
    feats = np.random.default_rng(0).random((2, 8))
    store.add_object(
        100, sk.sketch_many(feats), feats
    )
    assert not pool.matches(store.epoch)
    _load_pool(pool, store)
    assert pool.matches(store.epoch)
    assert pool.n_rows == len(store.owners)


def test_closed_pool_raises():
    p = ThreadFilterPool(num_workers=1)
    p.close()
    with pytest.raises(ParallelScanError):
        p.scan_topk(np.zeros((1, 1), dtype=np.uint64), 1)


# ----------------------------------------------------------------------
# FilterParams registry / serialization
# ----------------------------------------------------------------------
def test_threshold_fn_registry_roundtrip():
    params = FilterParams(threshold_fraction=0.4, threshold_fn="constant")
    assert params.threshold_factor(0.25) == 1.0
    clone = FilterParams.from_dict(params.to_dict())
    assert clone == params
    assert clone.cache_key() == params.cache_key()
    with pytest.raises(ValueError, match="registered"):
        get_threshold_fn("no-such-fn")
    with pytest.raises(ValueError):
        FilterParams(threshold_fn="no-such-fn")


def test_unregistered_callable_not_serializable():
    params = FilterParams(threshold_fn=lambda w: 2.0)
    assert params.threshold_factor(0.5) == 2.0
    assert params.cache_key() is None  # uncacheable, never wrong
    with pytest.raises(ValueError, match="register_threshold_fn"):
        params.require_serializable("the worker pool")
    with pytest.raises(ValueError):
        params.to_dict()
    register_threshold_fn("test-doubler", lambda w: 2.0 * w)
    named = FilterParams(threshold_fn="test-doubler")
    named.require_serializable()
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


# ----------------------------------------------------------------------
# Engine integration: auto-enable, cache, fallback
# ----------------------------------------------------------------------
def _image_engine(parallel, n=60):
    from repro.datatypes.bulk import bulk_image_dataset
    from repro.datatypes.image import make_image_plugin

    plugin = make_image_plugin()
    engine = SimilaritySearchEngine(
        plugin,
        SketchParams(64, plugin.meta, seed=0),
        FilterParams(num_query_segments=3, candidates_per_segment=16),
        parallel=parallel,
    )
    engine.insert_many(list(bulk_image_dataset(n, seed=3)))
    return engine


def test_engine_auto_enable_threshold():
    cfg = ParallelConfig(num_workers=2, min_segments=10_000_000)
    with _image_engine(cfg) as engine:
        engine.query_by_id(0, top_k=3)
        assert not engine.parallel_info()["active"]  # below threshold
    cfg = ParallelConfig(num_workers=2, min_segments=1)
    with _image_engine(cfg) as engine:
        engine.query_by_id(0, top_k=3)
        assert engine.parallel_info()["active"]


def test_engine_parallel_results_and_cache():
    serial = _image_engine(ParallelConfig(enabled=False))
    par = _image_engine(
        ParallelConfig(num_workers=2, min_segments=1, cache_entries=16)
    )
    with serial, par:
        for qid in (0, 4, 4, 0):
            a = serial.query_by_id(qid, top_k=5)
            b = par.query_by_id(qid, top_k=5)
            assert [(r.object_id, r.distance) for r in a] == [
                (r.object_id, r.distance) for r in b
            ]
        assert par.parallel_info()["cache"]["hits"] >= 2
        # A mutation invalidates cached candidate sets and reshards.
        par.remove(50)
        serial.remove(50)
        a = serial.query_by_id(0, top_k=5)
        b = par.query_by_id(0, top_k=5)
        assert [r.object_id for r in a] == [r.object_id for r in b]
        assert par.parallel_info()["cache"]["invalidations"] >= 1


def test_engine_fallback_on_pool_failure():
    reasons = []
    with _image_engine(ParallelConfig(num_workers=2, min_segments=1)) as engine:
        engine.on_parallel_fallback = reasons.append
        expect = [r.object_id for r in engine.query_by_id(1, top_k=5)]
        engine._pool.close()  # simulate a crashed pool mid-flight
        engine._filter_cache.clear()
        got = [r.object_id for r in engine.query_by_id(1, top_k=5)]
        assert got == expect  # answered serially, identically
        assert reasons and engine.parallel_info()["broken"]
        engine.set_parallel_enabled(True)  # operator re-arms the pool
        assert not engine.parallel_info()["broken"]
        engine._filter_cache.clear()  # force a real scan, not a cache hit
        got = [r.object_id for r in engine.query_by_id(1, top_k=5)]
        assert got == expect and engine.parallel_info()["active"]


@pytest.mark.perf
def test_two_worker_smoke():
    """CI smoke: a 2-worker pool is candidate-set identical to serial on
    a denser store (the `make smoke` gate)."""
    sk, store, objects = _seeded_store(
        31, num_objects=150, segs=3, tombstones=range(40, 60)
    )
    params = FilterParams(
        num_query_segments=3, candidates_per_segment=32,
        threshold_fraction=0.45,
    )
    queries = [objects[i] for i in (0, 25, 75, 149)]
    sketches = [sk.sketch_many(q.features) for q in queries]
    serial = sketch_filter_many(queries, sketches, store, params, sk.n_bits)
    with ThreadFilterPool(num_workers=2) as p:
        _load_pool(p, store)
        assert (
            parallel_sketch_filter_many(queries, sketches, params, sk.n_bits, p)
            == serial
        )

"""Filter scan split: two halves on two threads, one answer.

``_scan_nearest`` cuts a large arena into two halves, scans the upper
one on a helper thread and the lower one on the calling thread, and
merges the two top-k lists by global row.  The split must be
*candidate-set identical* to the whole scan (`sketch_filter_many` with
the split off) and to the per-segment `sketch_filter_reference`.
Determinism under ties is what makes that possible: every path selects
the k smallest distances with smallest-row-index-wins at the kth value,
so the cut cannot change the result.  The ``split`` fixture forces the
split on for any arena (as test_sketch_index.py forces the index on);
``host_split`` does so on a host of 1, 2 or 3 CPUs, where one CPU means
one whole scan.
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


CPU_COUNTS = (1, 2, 3)


@contextmanager
def _split(on=True, cpus=2):
    """Force the split on (or off) for every arena, on a host of ``cpus``
    CPUs; yields the names of the threads that scanned a part."""
    threads = []
    scan_part = filtering._scan_part

    def recorded(*args):
        threads.append(threading.current_thread().name)
        return scan_part(*args)

    with mock.patch.multiple(
        filtering,
        _SPLIT_MIN_WORK=0 if on else float("inf"),
        _SPLIT_CPUS=cpus,
        _scan_part=recorded,
    ):
        yield threads


@pytest.fixture
def split():
    with _split() as threads:
        yield threads


@pytest.fixture(params=CPU_COUNTS)
def host_split(request):
    """The split forced on, per CPU count; yields how many parts one scan
    makes (one whole scan on one CPU, two halves on more) and the
    threads that scanned them."""
    with _split(cpus=request.param) as threads:
        yield (1 if request.param < 2 else 2), threads


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


def _serial_many(queries, sketches, store, params, n_bits):
    with _split(on=False):
        return sketch_filter_many(queries, sketches, store, params, n_bits)


PARAMS_VARIANTS = [
    FilterParams(num_query_segments=3, candidates_per_segment=8),
    FilterParams(num_query_segments=2, candidates_per_segment=4,
                 threshold_fraction=0.35),
    FilterParams(num_query_segments=1, candidates_per_segment=1000,
                 threshold_fraction=0.5, threshold_fn="constant"),
]


# ----------------------------------------------------------------------
# Property: split == whole scan == reference
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
    serial = _serial_many(queries, sketches, store, params, sk.n_bits)
    with _split() as threads:
        assert sketch_filter_many(queries, sketches, store, params, sk.n_bits) == serial
    assert "ferret-scan" in " ".join(threads)  # the upper half ran apart
    for q, qs, expect in zip(queries, sketches, serial):
        assert sketch_filter_reference(q, qs, store, params, sk.n_bits) == expect


def test_pool_matches_reference_all_params(host_split):
    """Dense check on one store across the parameter grid, including the
    single-query path and tombstones."""
    sk, store, objects = _seeded_store(123, tombstones=range(10, 22))
    queries = [objects[i] for i in (0, 3, 30)]
    sketches = [sk.sketch_many(q.features) for q in queries]
    for params in PARAMS_VARIANTS:
        serial = _serial_many(queries, sketches, store, params, sk.n_bits)
        assert sketch_filter_many(queries, sketches, store, params, sk.n_bits) == serial
        for q, qs, expect in zip(queries, sketches, serial):
            assert sketch_filter(q, qs, store, params, sk.n_bits) == expect
            assert (
                sketch_filter_reference(q, qs, store, params, sk.n_bits)
                == expect
            )


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
    assert sketch_filter_reference(query, _ZERO, store, params, 64) == expect
    assert sketch_filter(query, _ZERO, store, params, 64) == expect
    assert sketch_filter_many([query], [_ZERO], store, params, 64) == [expect]


TIES_AT_KTH = [
    # Rows 0-4 tie at distance 2 across the cut (rows 0-2 | 3-5);
    # row 5, in the upper half, is the one row at distance 1.
    ([0b11] * 5 + [0b1], 3, {25, 20, 21}),
    # The upper half's first row (global row 3) ties with the lower
    # half's row 1: a merge by half-local row would pick row 3.
    ([0b1] + [0b11] * 5, 2, {20, 21}),
]


def test_ties_at_kth_boundary_pick_smallest_rows(host_split):
    """Rows tie at the kth distance on both sides of the midpoint; every
    path keeps the smallest rows, so the cut cannot flip the set."""
    parts, threads = host_split
    query = _one_segment_query()
    for words, k, expect in TIES_AT_KTH:
        store = _handmade_store(words, owners_per_row=[20, 21, 22, 23, 24, 25])
        params = FilterParams(num_query_segments=1, candidates_per_segment=k)
        assert sketch_filter_reference(query, _ZERO, store, params, 64) == expect
        threads.clear()
        assert sketch_filter(query, _ZERO, store, params, 64) == expect
        assert len(threads) == parts  # two halves, one on the helper thread


def test_k_larger_than_shard_size(host_split):
    """candidates_per_segment beyond a half's 7 rows, and beyond all 14."""
    sk, store, objects = _seeded_store(5, num_objects=7, segs=2)
    q = objects[0]
    qs = sk.sketch_many(q.features)
    for k in (10, 1000):
        params = FilterParams(num_query_segments=2, candidates_per_segment=k)
        expect = sketch_filter_reference(q, qs, store, params, sk.n_bits)
        assert sketch_filter(q, qs, store, params, sk.n_bits) == expect


def test_empty_shards_more_workers_than_rows(split):
    """One row, two halves: the lower half is empty and must still
    answer (an empty top-k) for the merge."""
    sk, store, objects = _seeded_store(6, num_objects=1, segs=1)
    params = FilterParams(num_query_segments=1, candidates_per_segment=5)
    q = objects[0]
    qs = sk.sketch_many(q.features)
    assert sketch_filter(q, qs, store, params, sk.n_bits) == {0}
    assert len(split) == 2  # both halves scanned, the lower one empty


def test_empty_store_and_all_tombstones(host_split):
    """An empty store, an all-dead store, and a store whose every row in
    the lower, then the upper, half is a tombstone (that half's top-k is
    all sentinels)."""
    params = FilterParams(num_query_segments=1, candidates_per_segment=5)
    query = _one_segment_query()
    assert sketch_filter(query, _ZERO, SegmentStore(n_words=1), params, 64) == set()
    dead = _handmade_store([0b1, 0b10], owners_per_row=[1, 2])
    dead.remove_object(1)
    dead.remove_object(2)
    assert sketch_filter(query, _ZERO, dead, params, 64) == set()
    words = [0b1, 0b11, 0b111, 0b1111, 0b0, 0b1, 0b11, 0b111]
    for dead_rows, live_rows in ((range(4), range(4, 8)), (range(4, 8), range(4))):
        store = _handmade_store(words, owners_per_row=range(8))
        store.attach_compactor(_NoCompactor())
        for oid in dead_rows:
            store.remove_object(oid)
        expect = sketch_filter_reference(query, _ZERO, store, params, 64)
        assert expect == set(live_rows)
        assert sketch_filter(query, _ZERO, store, params, 64) == expect
        assert sketch_filter_many([query], [_ZERO], store, params, 64) == [expect]


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
# Engine integration: split answers and the result cache
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
    serial = _image_engine(cache_entries=0)
    par = _image_engine()
    with serial, par:
        for qid in (0, 4, 4, 0):
            with _split(on=False):
                a = _answers(serial, qid)
            with _split() as threads:
                assert _answers(par, qid) == a
        assert par.parallel_info()["cache"]["hits"] >= 2
        assert not threads  # a cache hit scans nothing
        # A mutation invalidates cached candidate sets; the next scan
        # reads the arena as it is now, with no reload step.
        par.remove(50)
        serial.remove(50)
        with _split(on=False):
            a = _answers(serial, 0)
        with _split():
            assert _answers(par, 0) == a
        assert par.parallel_info()["cache"]["invalidations"] >= 1
        assert par._pool is None


@pytest.mark.perf
def test_two_worker_smoke():
    """CI smoke: the two-thread split is candidate-set identical to the
    whole scan on a denser store (the `make smoke` gate)."""
    sk, store, objects = _seeded_store(
        31, num_objects=150, segs=3, tombstones=range(40, 60)
    )
    params = FilterParams(
        num_query_segments=3, candidates_per_segment=32,
        threshold_fraction=0.45,
    )
    queries = [objects[i] for i in (0, 25, 75, 149)]
    sketches = [sk.sketch_many(q.features) for q in queries]
    serial = _serial_many(queries, sketches, store, params, sk.n_bits)
    with _split():
        assert sketch_filter_many(queries, sketches, store, params, sk.n_bits) == serial

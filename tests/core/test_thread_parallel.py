"""Thread backend and the adaptive backend chooser.

The contract under test: the thread pool agrees with the per-segment
``sketch_filter_reference`` — not just equal candidate sets but the
same ``(distance, row)`` top-k matrices, tie order included, as one
unsharded scan — under duplicate-sketch stores, tombstones and empty
shards.  Plus the cost model (:func:`choose_backend`) and thread-pool
teardown under load.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    FeatureMeta,
    FilterParams,
    ObjectSignature,
    ParallelConfig,
    ParallelScanError,
    QueryResultCache,
    SegmentStore,
    SimilaritySearchEngine,
    SketchConstructor,
    SketchParams,
    ThreadFilterPool,
    choose_backend,
    hamming_many_to_many,
    parallel_sketch_filter_many,
    select_k_smallest,
    sketch_filter_many,
    sketch_filter_reference,
)
from repro.observability import metrics as _metrics


# ----------------------------------------------------------------------
# Store builders (same tie-heavy shapes as test_parallel.py)
# ----------------------------------------------------------------------
def _seeded_store(seed, num_objects=40, segs=3, dim=8, n_bits=64,
                  dup_frac=0.35, tombstones=()):
    """Random store with deliberate duplicate segments (=> distance ties)."""
    meta = FeatureMeta(dim, np.zeros(dim), np.ones(dim))
    sk = SketchConstructor(SketchParams(n_bits, meta, seed=seed))
    store = SegmentStore(sk.n_words, n_bits=sk.n_bits)
    rng = np.random.default_rng(seed)
    pool_feats = rng.random((6, dim))
    objects = {}
    for oid in range(num_objects):
        feats = rng.random((segs, dim))
        for s in range(segs):
            if rng.random() < dup_frac:
                feats[s] = pool_feats[rng.integers(0, len(pool_feats))]
        objects[oid] = ObjectSignature(
            feats, rng.random(segs) + 0.1, object_id=oid
        )
        store.add_object(oid, sk.sketch_many(feats))
    for oid in tombstones:
        store.remove_object(oid)
    return sk, store, objects


def _load_pool(pool, store):
    epoch, owners, sketches = store.versioned_snapshot()
    pool.load(owners, sketches, epoch=epoch)


def _value(name):
    return _metrics.get_registry().value(name)


PARAMS_VARIANTS = [
    FilterParams(num_query_segments=3, candidates_per_segment=8),
    FilterParams(num_query_segments=2, candidates_per_segment=4,
                 threshold_fraction=0.35),
    FilterParams(num_query_segments=1, candidates_per_segment=1000,
                 threshold_fraction=0.5, threshold_fn="constant"),
]


# ----------------------------------------------------------------------
# Property: threads == reference, ties included
# ----------------------------------------------------------------------
@settings(max_examples=6, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    shard_rows=st.sampled_from([None, 3, 17]),
    variant=st.integers(0, len(PARAMS_VARIANTS) - 1),
    workers=st.sampled_from([1, 2, 3]),
)
def test_backends_equivalent_randomized(seed, shard_rows, variant, workers):
    """Candidate sets agree with the per-segment reference, and the raw
    top-k matrices (tie order) with one unsharded scan of the arena."""
    params = PARAMS_VARIANTS[variant]
    sk, store, objects = _seeded_store(seed, tombstones=range(5, 12))
    queries = [objects[0], objects[20], objects[7]]
    sketches = [sk.sketch_many(q.features) for q in queries]
    expect = [
        sketch_filter_reference(q, qs, store, params, sk.n_bits)
        for q, qs in zip(queries, sketches)
    ]
    stacked = np.concatenate(
        [qs[q.top_segments(params.num_query_segments)]
         for q, qs in zip(queries, sketches)],
        axis=0,
    )
    _, owners, arena = store.versioned_snapshot()
    full = hamming_many_to_many(stacked, arena)
    full[:, owners < 0] = np.iinfo(np.uint32).max
    want_rows = select_k_smallest(full, 5)
    with ThreadFilterPool(num_workers=workers, shard_rows=shard_rows) as p:
        _load_pool(p, store)
        got = parallel_sketch_filter_many(
            queries, sketches, params, sk.n_bits, p
        )
        d, rows = p.scan_topk(stacked, k=5)
    assert got == expect
    # The same (distance, row) pairs, ties at the kth distance included.
    want_d = np.take_along_axis(full, want_rows, axis=1)
    for qi in range(stacked.shape[0]):
        assert sorted(zip(d[qi].tolist(), rows[qi].tolist())) == sorted(
            zip(want_d[qi].tolist(), want_rows[qi].tolist())
        )


def test_empty_shards_more_workers_than_rows():
    """A 6-worker pool over 4 rows leaves workers with zero shards."""
    sk, store, objects = _seeded_store(5, num_objects=2, segs=2)
    queries = [objects[0]]
    sketches = [sk.sketch_many(q.features) for q in queries]
    params = PARAMS_VARIANTS[0]
    serial = sketch_filter_many(queries, sketches, store, params, sk.n_bits)
    with ThreadFilterPool(num_workers=6) as p:
        _load_pool(p, store)
        assert parallel_sketch_filter_many(
            queries, sketches, params, sk.n_bits, p
        ) == serial


def test_thread_pool_copies_arena():
    """The thread pool must freeze its own copy: in-place mutation of the
    source arrays (tombstoning mutates the store's owners) must not leak
    into an already-loaded arena."""
    owners = np.arange(8, dtype=np.int64)
    sketches = np.arange(16, dtype=np.uint64).reshape(8, 2)
    pool = ThreadFilterPool(num_workers=2)
    with pool:
        pool.load(owners, sketches, epoch=1)
        owners[:] = -1  # simulate remove_object tombstoning in place
        sketches[:] = 0
        assert pool.n_alive == 8
        d, rows = pool.scan_topk(np.zeros((1, 2), dtype=np.uint64), 8)
        # All 8 rows still alive and distances reflect the original data.
        assert rows.shape == (1, 8)
        assert pool.owners_of(rows[0]).min() >= 0


def test_thread_pool_teardown_under_load():
    """close() during concurrent scans: every scan either completes with
    correct results or raises ParallelScanError(kind='closed') — never a
    wrong answer, never a foreign exception."""
    sk, store, objects = _seeded_store(11, num_objects=80, segs=3)
    epoch, owners, sketches = store.versioned_snapshot()
    expect_rows = None
    query = np.zeros((2, sk.n_words), dtype=np.uint64)
    pool = ThreadFilterPool(num_workers=3)
    pool.load(owners, sketches, epoch=epoch)
    expect_d, expect_rows = pool.scan_topk(query, 12)
    errors, mismatches = [], []
    start = threading.Barrier(5)

    def hammer():
        start.wait()
        for _ in range(25):
            try:
                d, rows = pool.scan_topk(query, 12)
            except ParallelScanError as exc:
                if exc.kind != "closed":
                    errors.append(exc)
                return
            except Exception as exc:  # noqa: BLE001 - the assertion
                errors.append(exc)
                return
            if not (
                np.array_equal(d, expect_d)
                and np.array_equal(rows, expect_rows)
            ):
                mismatches.append((d, rows))
                return

    threads = [threading.Thread(target=hammer) for _ in range(4)]
    for t in threads:
        t.start()
    start.wait()
    pool.close()
    for t in threads:
        t.join()
    assert not errors and not mismatches
    with pytest.raises(ParallelScanError) as exc_info:
        pool.scan_topk(query, 12)
    assert exc_info.value.kind == "closed"


# ----------------------------------------------------------------------
# choose_backend cost model
# ----------------------------------------------------------------------
class TestChooseBackend:
    def test_disabled_is_serial(self):
        cfg = ParallelConfig(enabled=False, num_workers=8, min_segments=1)
        assert choose_backend(cfg, n_rows=10**6) == "serial"

    def test_single_core_is_serial(self):
        cfg = ParallelConfig(min_segments=1)
        assert choose_backend(cfg, n_rows=10**6, cores=1) == "serial"

    def test_below_min_segments_is_serial(self):
        cfg = ParallelConfig(num_workers=4, min_segments=50_000)
        assert choose_backend(cfg, n_rows=49_999) == "serial"

    def test_explicit_backend_wins(self):
        for name in ("serial", "thread"):
            cfg = ParallelConfig(num_workers=4, min_segments=1, backend=name)
            assert choose_backend(cfg, n_rows=10) == name

    def test_auto_prefers_threads_with_gil_releasing_kernel(self):
        cfg = ParallelConfig(num_workers=4, min_segments=1)
        assert choose_backend(cfg, n_rows=100_000) == "thread"

    def test_explicit_worker_count_implies_cores(self):
        # num_workers is an operator statement that parallelism exists:
        # the model must not fall back to the (possibly 1-core) host
        # affinity mask.
        cfg = ParallelConfig(num_workers=2, min_segments=1)
        assert choose_backend(cfg, n_rows=2_000_000) == "thread"

    def test_unknown_backend_rejected_at_config(self):
        with pytest.raises(ValueError):
            ParallelConfig(backend="gpu")

    def test_removed_process_backend_rejected_at_config(self):
        with pytest.raises(ValueError, match="unknown parallel backend"):
            ParallelConfig(backend="process")


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


# ----------------------------------------------------------------------
# Engine-level backend selection
# ----------------------------------------------------------------------
def test_engine_backend_switch_and_exclude_self_equivalence():
    """Results (with exclude_self) are identical across every backend
    setting, live-switched through set_parallel_backend."""
    serial_engine = _image_engine(ParallelConfig(enabled=False))
    engine = _image_engine(
        ParallelConfig(num_workers=2, min_segments=1, cache_entries=0)
    )
    with serial_engine, engine:
        want = [
            (r.object_id, r.distance)
            for r in serial_engine.query_by_id(2, top_k=6)
        ]
        for backend in ("thread", "serial", "auto"):
            engine.set_parallel_backend(backend)
            got = [
                (r.object_id, r.distance)
                for r in engine.query_by_id(2, top_k=6)
            ]
            assert got == want, backend
            info = engine.parallel_info()
            assert info["backend"] == backend
            if backend != "auto":
                assert info["backend_active"] == backend
        for removed in ("gpu", "process"):
            with pytest.raises(ValueError):
                engine.set_parallel_backend(removed)


def test_engine_auto_picks_thread_backend():
    cfg = ParallelConfig(num_workers=2, min_segments=1, cache_entries=0)
    with _image_engine(cfg) as engine:
        engine.query_by_id(0, top_k=3)
        info = engine.parallel_info()
        assert info["backend"] == "auto"
        assert info["backend_active"] == "thread"
        assert isinstance(engine._pool, ThreadFilterPool)


# ----------------------------------------------------------------------
# Cache metrics prefix (shared with the cluster coordinator)
# ----------------------------------------------------------------------
def test_query_result_cache_metrics_prefix():
    before_hits = _value("cluster.cache.hits")
    before_misses = _value("cluster.cache.misses")
    cache = QueryResultCache(4, metrics_prefix="cluster.cache")
    assert cache.lookup(1, "k") is None
    cache.store(1, "k", "v")
    assert cache.lookup(1, "k") == "v"
    assert _value("cluster.cache.misses") == before_misses + 1
    assert _value("cluster.cache.hits") == before_hits + 1

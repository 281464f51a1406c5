"""Perf smoke test: the batched filter path is candidate-set-identical
to the pre-batch per-segment reference implementation.

Marked ``perf`` so CI can select it (``pytest -m perf``); it is fast and
runs in tier-1.  This is the acceptance gate for the batched Hamming
kernel: any change to ``sketch_filter`` / ``sketch_filter_many`` /
``hamming_many_to_many`` that alters candidate sets — including the
tombstone handling both paths share — fails here.
"""

import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest

from repro.core import filtering
from repro.core import (
    FeatureMeta,
    FilterParams,
    ObjectSignature,
    SegmentStore,
    SketchConstructor,
    SketchParams,
    sketch_filter,
    sketch_filter_many,
    sketch_filter_reference,
)

pytestmark = pytest.mark.perf


def _seeded_store(num_objects=120, segs=3, dim=8, n_bits=256, seed=7):
    meta = FeatureMeta(dim, np.zeros(dim), np.ones(dim))
    sk = SketchConstructor(SketchParams(n_bits, meta, seed=seed))
    store = SegmentStore(sk.n_words, n_bits=sk.n_bits)
    rng = np.random.default_rng(seed)
    objects = {}
    for oid in range(num_objects):
        feats = rng.random((segs, dim))
        objects[oid] = ObjectSignature(feats, rng.random(segs) + 0.1, object_id=oid)
        store.add_object(oid, sk.sketch_many(feats))
    # Tombstone a slice of objects (under the compaction threshold) so
    # the equivalence covers dead-row masking on both paths.
    for oid in range(10, 30):
        store.remove_object(oid)
    return sk, store, objects


PARAM_GRID = [
    FilterParams(num_query_segments=4, candidates_per_segment=64),
    FilterParams(num_query_segments=4, candidates_per_segment=8,
                 threshold_fraction=0.3),
    FilterParams(num_query_segments=2, candidates_per_segment=200,
                 threshold_fraction=None),
    FilterParams(num_query_segments=1, candidates_per_segment=1000),
]


@pytest.mark.parametrize("params", PARAM_GRID)
def test_batched_filter_identical_to_reference(params):
    sk, store, objects = _seeded_store()
    for qid in (0, 5, 42, 77, 111):
        q = objects[qid]
        qs = sk.sketch_many(q.features)
        batched = sketch_filter(q, qs, store, params, sk.n_bits)
        reference = sketch_filter_reference(q, qs, store, params, sk.n_bits)
        assert batched == reference, (
            f"candidate sets diverged for query {qid} with {params}"
        )


@pytest.mark.parametrize("params", PARAM_GRID)
def test_multi_query_filter_identical_to_reference(params):
    sk, store, objects = _seeded_store()
    queries = [objects[qid] for qid in (0, 5, 42, 77, 111)]
    sketches = [sk.sketch_many(q.features) for q in queries]
    batched = sketch_filter_many(queries, sketches, store, params, sk.n_bits)
    for q, qs, got in zip(queries, sketches, batched):
        assert got == sketch_filter_reference(q, qs, store, params, sk.n_bits)


# ----------------------------------------------------------------------
# Arena layout guards: the scan must read the stored sketches in place.
# ----------------------------------------------------------------------
_N_WORDS = 13  # the shape workload's 800-bit sketches


def _shape_like_store(n_rows=20_000, n_bits=800, dim=16, seed=11):
    """Single-segment objects, like the shape corpus: a row per object."""
    meta = FeatureMeta(dim, np.zeros(dim), np.ones(dim))
    sk = SketchConstructor(SketchParams(n_bits, meta, seed=seed))
    assert sk.n_words == _N_WORDS
    store = SegmentStore(sk.n_words, n_bits=sk.n_bits)
    feats = np.random.default_rng(seed).random((n_rows, dim))
    for oid, row in enumerate(sk.sketch_many(feats)):
        store.add_object(oid, row)
    query = ObjectSignature(feats[:1], np.ones(1), object_id=0)
    return sk, store, query


def _peak_bytes(fn):
    fn()  # warm: thread-local scratch, executor threads
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_scan_allocates_less_than_half_the_arena():
    sk, store, query = _shape_like_store()
    params = FilterParams(num_query_segments=1, candidates_per_segment=64)
    owners, sketches = store.snapshot()
    arena_bytes = sketches.shape[0] * sketches.shape[1] * 8
    qs = sk.sketch_many(query.features)

    serial = _peak_bytes(
        lambda: sketch_filter(query, qs, store, params, sk.n_bits)
    )
    assert serial < arena_bytes / 2, (serial, arena_bytes)

    # One helper thread: the warm-up call then sizes the kernel scratch
    # (thread-local) of the same thread the measured call runs on.
    with ThreadPoolExecutor(1) as helper, _split_on(), mock.patch.object(
        filtering, "_SPLIT_EXECUTOR", helper
    ):
        split = _peak_bytes(
            lambda: sketch_filter(query, qs, store, params, sk.n_bits)
        )
    assert split < arena_bytes / 2, (split, arena_bytes)


def _split_on():
    """Force the two-thread scan split on for any arena and host."""
    return mock.patch.multiple(filtering, _SPLIT_MIN_WORK=0, _SPLIT_CPUS=2)


def _assert_word_major(store):
    words = store.snapshot()[1].T
    assert words.shape[0] == store.n_words
    assert words.shape[1] < 2 or words.strides[1] == words.itemsize


def test_arena_stays_word_major_through_every_rewrite(monkeypatch):
    sk, store, query = _shape_like_store(n_rows=300)
    rng = np.random.default_rng(5)
    params = FilterParams(num_query_segments=1, candidates_per_segment=16)
    qs = sk.sketch_many(query.features)

    def new_row():
        return rng.integers(0, 2**64, (1, _N_WORDS), dtype=np.uint64)

    _assert_word_major(store)  # 300 appends grew the arena several times
    for oid in range(5, 40):
        store.remove_object(oid)  # tombstones, below the inline threshold
    _assert_word_major(store)
    store.compact()
    _assert_word_major(store)

    # Background compaction with a row appended during the unlocked
    # gather, whose first statement reads the clock.
    for oid in range(40, 60):
        store.remove_object(oid)
    real_clock, fired = filtering.time.perf_counter, []

    def clock():
        if not fired:
            fired.append(True)
            store.add_object(1000, new_row())
        return real_clock()

    monkeypatch.setattr(filtering.time, "perf_counter", clock)
    assert store.maintenance_compact()
    monkeypatch.undo()
    assert fired and store.owners[-1] == 1000
    assert store.arena_info()["dead_rows"] == 0
    _assert_word_major(store)

    # Appends and a tombstone after the rewrite: the split scan reads
    # the halves of the same arrays in place and answers what the
    # reference answers.
    for oid in range(1001, 1011):
        store.add_object(oid, new_row())
    store.remove_object(100)
    _assert_word_major(store)
    with _split_on():
        assert sketch_filter(
            query, qs, store, params, sk.n_bits
        ) == sketch_filter_reference(query, qs, store, params, sk.n_bits)

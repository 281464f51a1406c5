"""Differential tests for the filter's multi-index.

``SegmentStore`` keeps an exact index over 32-bit sketch substrings, and
``sketch_filter_many`` reads it wherever it is on.  Every candidate set
it returns must equal ``sketch_filter_reference``'s full scan, ties at
the k-th distance included, through inserts (the unindexed tail),
removes (tombstones), and both compactions (row positions move).  The
state machine keeps the index on (the on/off check is pinned separately
at the engine level), so clustered sketches exercise certification,
uniform ones the fall-back to the full scan, and duplicated ones ties;
the full scan runs on the compiled kernel's top-k pass or on the numpy
loop (see tests/core/conftest.py).
"""

from __future__ import annotations

import math
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    precondition,
    rule,
)

from repro.core import bitvector
from repro.core import (
    FilterParams,
    ObjectSignature,
    SegmentStore,
    SimilaritySearchEngine,
    SketchParams,
    filtering,
    sketch_filter_many,
    sketch_filter_reference,
)
from repro.core.types import meta_from_dataset
from repro.datatypes.bulk import bulk_image_dataset, bulk_shape_dataset
from repro.datatypes.image import make_image_plugin
from repro.datatypes.shape import make_shape_plugin
from repro.observability import metrics
from repro.server import CommandProcessor, parse_command

# Equivalence gates: `make smoke` runs them again by name.
pytestmark = pytest.mark.perf


def _signature(n_rows, rng):
    """A query signature: only its weights matter to the filter."""
    return ObjectSignature(np.zeros((n_rows, 1)), rng.random(n_rows) + 0.1)


def _padded(rows, n_bits):
    """Zero the bits past ``n_bits``, as the sketcher's packing does."""
    as_bytes = rows.view(np.uint8).reshape(rows.shape[0], -1)
    as_bytes[:, n_bits // 8:] = 0
    return rows


class IndexMachine(RuleBasedStateMachine):
    """One store under random mutations; every query is checked against
    the reference scan."""

    def __init__(self):
        super().__init__()
        # The on/off check would turn the index off on these small,
        # adversarial stores; keep it on so every query reads it.
        self._saved = filtering._INDEX_MAX_READ
        filtering._INDEX_MAX_READ = math.inf
        self._kernel = bitvector._KERNEL

    def teardown(self):
        filtering._INDEX_MAX_READ = self._saved
        bitvector._KERNEL = self._kernel

    @initialize(
        n_bits=st.sampled_from([64, 96, 256, 800]),
        kind=st.sampled_from(["clustered", "uniform", "duplicated"]),
        compiled=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def setup(self, n_bits, kind, compiled, seed):
        # Full scans (the index's fall-back rows) run on either kernel;
        # the reference is numpy only.  A host with no compiled kernel
        # runs numpy for both draws; test_scan_kernel.py's compiled half
        # then skips.
        bitvector._KERNEL = self._kernel if compiled else None
        self.n_bits = n_bits
        self.kind = kind
        self.n_words = -(-n_bits // 64)
        self.rng = np.random.default_rng(seed)
        self.store = SegmentStore(self.n_words, n_bits=n_bits)
        self.pool = self._uniform(4)
        self.sketches = {}  # every object ever added -> its rows
        self.live = set()
        self.next_id = 0

    def _uniform(self, n):
        raw = self.rng.integers(0, 256, (n, self.n_words * 8), dtype=np.uint8)
        return _padded(raw.view(np.uint64).copy(), self.n_bits)

    def _rows(self, n):
        if self.kind == "uniform":
            return self._uniform(n)
        rows = self.pool[self.rng.integers(0, len(self.pool), n)].copy()
        if self.kind == "clustered":
            bits = rows.view(np.uint8).reshape(n, -1)
            for row in bits:
                for b in self.rng.choice(self.n_bits, self.rng.integers(0, 7)):
                    row[b // 8] ^= np.uint8(1 << (b % 8))
        return rows

    def _new(self, rows):
        oid = self.next_id
        self.next_id += 1
        self.sketches[oid] = rows
        self.live.add(oid)
        return oid

    @rule(segs=st.integers(1, 4))
    def add_object(self, segs):
        rows = self._rows(segs)
        self.store.add_object(self._new(rows), rows)

    @rule(sizes=st.lists(st.integers(1, 4), min_size=1, max_size=24))
    def add_many(self, sizes):
        blocks = [self._rows(n) for n in sizes]
        self.store.add_many([self._new(b) for b in blocks], blocks)

    @precondition(lambda self: self.live)
    @rule(pick=st.integers(0, 10**6))
    def remove_object(self, pick):
        oid = sorted(self.live)[pick % len(self.live)]
        assert self.store.remove_object(oid) == len(self.sketches[oid])
        self.live.discard(oid)

    @rule()
    def compact(self):
        self.store.compact()

    @rule()
    def maintenance_compact(self):
        self.store.maintenance_compact()

    @rule(data=st.data())
    def query(self, data):
        params = FilterParams(
            num_query_segments=data.draw(st.integers(1, 3)),
            candidates_per_segment=data.draw(st.integers(1, 8)),
            threshold_fraction=data.draw(st.sampled_from([None, 0.05, 0.2, 0.5])),
        )
        queries, sketches = [], []
        for _ in range(data.draw(st.integers(1, 3))):
            if self.sketches and data.draw(st.booleans()):
                rows = self.sketches[data.draw(st.sampled_from(sorted(self.sketches)))]
            else:
                rows = self._rows(data.draw(st.integers(1, 3)))
            queries.append(_signature(len(rows), self.rng))
            sketches.append(rows)
        got = sketch_filter_many(queries, sketches, self.store, params, self.n_bits)
        want = [
            sketch_filter_reference(q, s, self.store, params, self.n_bits)
            for q, s in zip(queries, sketches)
        ]
        assert got == want
        if self.live:
            assert self.store.arena_info()["index_on"] == 1


TestIndexMachine = IndexMachine.TestCase
TestIndexMachine.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)


# ----------------------------------------------------------------------
# Hand-built stores: one per way the index could go wrong
# ----------------------------------------------------------------------
@pytest.fixture()
def always_on(monkeypatch):
    monkeypatch.setattr(filtering, "_INDEX_MAX_READ", math.inf)


def _word(*bits):
    return np.array([[sum(1 << b for b in bits)]], dtype=np.uint64)


def _filter(store, query_word, k):
    params = FilterParams(
        num_query_segments=1, candidates_per_segment=k, threshold_fraction=None
    )
    query = _signature(1, np.random.default_rng(0))
    got = sketch_filter_many([query], [query_word], store, params, 64)[0]
    assert got == sketch_filter_reference(query, query_word, store, params, 64)
    return got


def _far_rows(store, first_id, count=12):
    # 8 bits from 0 in each substring, 16 in all: never gathered, never near.
    for i in range(count):
        store.add_object(first_id + i, _word(*range(i, i + 8), *range(40, 48)))


def test_certificate_bound_is_one_below_m_times_r_plus_one(always_on):
    """At 64 bits (m = 2) radius 1 certifies distances up to 3.  The
    4th-nearest distance here is 4, tied between a row that radius 1
    never gathers (2 + 2 bits, lower row) and one it does (4 + 0 bits):
    only radius 2 may certify, and the lower row must win the tie."""
    store = SegmentStore(1, n_bits=64)
    store.add_object(100, _word(0, 1, 32, 33))
    for oid, bit in ((1, 5), (2, 6), (3, 7)):
        store.add_object(oid, _word(bit))
    store.add_object(200, _word(0, 1, 2, 3))
    _far_rows(store, 300)
    assert _filter(store, _word(), k=4) == {1, 2, 3, 100}


def test_tail_rows_are_read(always_on):
    store = SegmentStore(1, n_bits=64)
    store.add_object(5, _word(9))
    _far_rows(store, 300)
    assert _filter(store, _word(), k=1) == {5}  # builds the index
    store.add_object(999, _word())  # the tail: one row past the build
    assert store.arena_info()["index_rows"] == 13
    assert _filter(store, _word(), k=1) == {999}


def test_tombstoned_rows_are_dropped(always_on):
    store = SegmentStore(1, n_bits=64)
    store.add_object(1, _word())
    store.add_object(2, _word(9))
    _far_rows(store, 300)
    assert _filter(store, _word(), k=1) == {1}
    store.remove_object(1)  # 1 of 14 rows: no compaction
    assert store.arena_info()["dead_rows"] == 1
    assert _filter(store, _word(), k=1) == {2}


@pytest.mark.parametrize("how", ["inline", "maintenance"])
def test_compaction_retires_the_index(always_on, how):
    store = SegmentStore(1, n_bits=64)
    _far_rows(store, 300)
    store.add_object(9, _word())
    assert _filter(store, _word(), k=1) == {9}
    store.attach_compactor(None if how == "inline" else _Idle())
    for oid in (300, 301, 302, 303):
        store.remove_object(oid)
    if how == "maintenance":
        assert store.maintenance_compact()
    assert store.arena_info()["index_on"] == 0  # row positions moved
    assert _filter(store, _word(), k=1) == {9}
    assert store.arena_info()["index_rows"] == 9


class _Idle:
    def wake(self):
        pass


def test_uncertified_rows_fall_back_and_are_counted(always_on):
    rng = np.random.default_rng(3)
    store = SegmentStore(4, n_bits=256)
    for oid in range(200):
        store.add_object(oid, rng.integers(0, 2**63, (1, 4), dtype=np.uint64))
    query = _signature(2, rng)
    rows = rng.integers(0, 2**63, (2, 4), dtype=np.uint64)
    params = FilterParams(num_query_segments=2, candidates_per_segment=8)
    counter = metrics.get_registry().get("filter.index_fallback_rows")
    before = counter.value
    got = sketch_filter_many([query], [rows], store, params, 256)
    assert got == [sketch_filter_reference(query, rows, store, params, 256)]
    assert store.arena_info()["index_on"] == 1
    assert counter.value == before + 2


def test_padding_substrings_are_skipped(always_on):
    """96 bits: the fourth 32-bit half-word is zero padding in every row,
    so probing it would read the whole arena."""
    rng = np.random.default_rng(5)
    store = SegmentStore(2, n_bits=96)
    base = _padded(rng.integers(0, 2**63, (1, 2), dtype=np.uint64), 96)
    for oid in range(50):
        store.add_object(oid, _padded(rng.integers(0, 2**63, (1, 2), dtype=np.uint64), 96))
    store.add_object(50, base)
    store.refresh_index(1)
    assert store._index.m == 3
    assert store._index.runs.shape == (3 * 51,)


def test_scans_stay_exact_under_concurrent_writes_and_compactions(always_on):
    """Scans snapshot the index with the arena; builds run outside the
    lock and compactions retire them.  Three query threads race writers
    and both compactions, their fall-back rows scanned at once outside
    the GIL; no scan may fail, and at rest the index answers exactly."""
    rng = np.random.default_rng(11)
    protos = rng.integers(0, 2**63, (6, 4), dtype=np.uint64)

    def rows(r, n):
        out = protos[r.integers(0, len(protos), n)].copy()
        out ^= np.uint64(1) << r.integers(0, 63, (n, 4)).astype(np.uint64)
        return out

    store = SegmentStore(4, n_bits=256)
    for oid in range(300):
        store.add_object(oid, rows(rng, 2))
    params = FilterParams(num_query_segments=2, candidates_per_segment=6)
    stop = threading.Event()
    errors = []

    def guarded(body):
        def run():
            try:
                while not stop.is_set():
                    body()
            except Exception as exc:  # reported by the main thread
                errors.append(exc)
        return run

    def querier(seed):
        r = np.random.default_rng(seed)

        def query():
            got = sketch_filter_many(
                [_signature(2, r)], [rows(r, 2)], store, params, 256
            )
            assert len(got) == 1
        return query

    ids = iter(range(300, 10**9))
    live = list(range(300))
    lock = threading.Lock()

    def write():
        with lock:
            oid = next(ids)
            store.add_object(oid, rows(rng, 2))
            live.append(oid)
            victim = live.pop(int(rng.integers(0, len(live))))
        store.remove_object(victim)

    threads = [
        threading.Thread(target=guarded(fn))
        for fn in (querier(1), querier(2), querier(3), write, store.maintenance_compact)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        time.sleep(1.5)
    finally:
        stop.set()
        for t in threads:
            t.join(timeout=30)
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert not store._index_building
    query_rows = rows(rng, 2)
    signature = _signature(2, rng)
    assert sketch_filter_many([signature], [query_rows], store, params, 256) == [
        sketch_filter_reference(signature, query_rows, store, params, 256)
    ]
    assert store.arena_info()["index_on"] == 1


# ----------------------------------------------------------------------
# The engine: on/off without a knob
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def image_objects():
    return list(bulk_image_dataset(1000, seed=1))


def _image_engine(objects):
    plugin = make_image_plugin()
    engine = SimilaritySearchEngine(
        plugin,
        SketchParams(256, plugin.meta, seed=0),
        FilterParams(num_query_segments=4, candidates_per_segment=32),
    )
    engine.insert_many(objects)
    return engine


def _traced_scan(engine, object_id):
    engine.tracer.enabled = True
    engine.query_by_id(object_id, top_k=5)
    return engine.tracer.last.notes["scan"]


def _reference_candidates(engine, object_id):
    query = engine.get_object(object_id)
    sketches = engine.sketcher.sketch_many(query.features)
    return (
        engine._filter_candidates([query], [sketches])[0],
        sketch_filter_reference(
            query, sketches, engine._store, engine.filter_params,
            engine.sketcher.n_bits,
        ),
    )


def test_image_like_data_turns_the_index_on(image_objects):
    with _image_engine(image_objects) as engine:
        assert _traced_scan(engine, 7) == "index"
        assert "index_scan" in engine.tracer.last.stages
        assert engine.compaction_info()["index_on"] == 1
        for oid in range(0, 1000, 97):
            got, want = _reference_candidates(engine, oid)
            assert got == want
        stat = CommandProcessor(engine).execute(parse_command("stat"))
        assert "filter_index on" in stat
        assert f"filter_index_rows {len(engine._store)}" in stat


def test_shape_like_data_turns_the_index_off():
    dataset = bulk_shape_dataset(300, seed=2)
    meta = meta_from_dataset(dataset)
    engine = SimilaritySearchEngine(
        make_shape_plugin(meta),
        SketchParams(800, meta, seed=0),
        FilterParams(num_query_segments=1, candidates_per_segment=64),
    )
    with engine:
        engine.insert_many(list(dataset))
        assert _traced_scan(engine, 3) == "serial"
        assert engine.compaction_info()["index_on"] == 0
        stat = CommandProcessor(engine).execute(parse_command("stat"))
        assert "filter_index off" in stat and "filter_index_rows 0" in stat

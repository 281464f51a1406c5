"""Differential tests for the filter scan.

``sketch_filter_many`` streams the whole segment arena in one fused
pass, and ``sketch_filter`` is that pass with a batch of one.  Every
candidate set either returns must equal ``sketch_filter_reference``'s
per-segment scan, ties at the k-th distance and at the threshold
included, through inserts, removes (tombstones), and both compactions
(row positions move).  The state machine draws clustered sketches
(near neighbours and distances on the threshold), uniform ones and
duplicated ones (ties), and runs the fast scan on the compiled
kernel's top-k pass.
"""

from __future__ import annotations

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

from repro.core import (
    FilterParams,
    ObjectSignature,
    SegmentStore,
    SimilaritySearchEngine,
    SketchParams,
    sketch_filter,
    sketch_filter_many,
    sketch_filter_reference,
)
from repro.datatypes.bulk import bulk_image_dataset
from repro.datatypes.image import make_image_plugin
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


class FilterMachine(RuleBasedStateMachine):
    """One store under random mutations; every query is checked against
    the reference scan."""

    @initialize(
        n_bits=st.sampled_from([64, 96, 256, 800]),
        kind=st.sampled_from(["clustered", "uniform", "duplicated"]),
        seed=st.integers(0, 2**16),
    )
    def setup(self, n_bits, kind, seed):
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
        # A fraction of d / n_bits under the constant multiplier puts the
        # threshold on a small distance, which clustered rows hit.
        fraction, fn = data.draw(
            st.tuples(st.sampled_from([None, 0.05, 0.2, 0.5]), st.just("default"))
            | st.tuples(
                st.integers(1, 8).map(lambda d: d / self.n_bits),
                st.just("constant"),
            )
        )
        params = FilterParams(
            num_query_segments=data.draw(st.integers(1, 3)),
            candidates_per_segment=data.draw(st.integers(1, 8)),
            threshold_fraction=fraction,
            threshold_fn=fn,
        )
        queries, sketches = [], []
        for _ in range(data.draw(st.integers(1, 3))):
            if self.sketches and data.draw(st.booleans()):
                rows = self.sketches[data.draw(st.sampled_from(sorted(self.sketches)))]
            else:
                rows = self._rows(data.draw(st.integers(1, 3)))
            queries.append(_signature(len(rows), self.rng))
            sketches.append(rows)
        want = [
            sketch_filter_reference(q, s, self.store, params, self.n_bits)
            for q, s in zip(queries, sketches)
        ]
        got = sketch_filter_many(queries, sketches, self.store, params, self.n_bits)
        assert got == want
        assert [
            sketch_filter(q, s, self.store, params, self.n_bits)
            for q, s in zip(queries, sketches)
        ] == want


TestFilterMachine = FilterMachine.TestCase
TestFilterMachine.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)


# ----------------------------------------------------------------------
# Hand-built stores
# ----------------------------------------------------------------------
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
    # 16 bits from the zero word: never the nearest row.
    for i in range(count):
        store.add_object(first_id + i, _word(*range(i, i + 8), *range(40, 48)))


def test_tail_rows_are_read():
    """A row appended after a scan (the arena's tail) is in the next."""
    store = SegmentStore(1, n_bits=64)
    store.add_object(5, _word(9))
    _far_rows(store, 300)
    assert _filter(store, _word(), k=1) == {5}
    store.add_object(999, _word())
    assert _filter(store, _word(), k=1) == {999}


def test_tombstoned_rows_are_dropped():
    store = SegmentStore(1, n_bits=64)
    store.add_object(1, _word())
    store.add_object(2, _word(9))
    _far_rows(store, 300)
    assert _filter(store, _word(), k=1) == {1}
    store.remove_object(1)  # 1 of 14 rows: no compaction
    assert store.arena_info()["dead_rows"] == 1
    assert _filter(store, _word(), k=1) == {2}


@pytest.mark.parametrize("how", ["inline", "maintenance"])
def test_compaction_keeps_the_answers(how):
    store = SegmentStore(1, n_bits=64)
    _far_rows(store, 300)
    store.add_object(9, _word())
    assert _filter(store, _word(), k=1) == {9}
    store.attach_compactor(None if how == "inline" else _Idle())
    for oid in (300, 301, 302, 303):
        store.remove_object(oid)
    if how == "maintenance":
        assert store.maintenance_compact()
    assert store.arena_info()["rows"] == 9  # row positions moved
    assert _filter(store, _word(), k=1) == {9}


class _Idle:
    def wake(self):
        pass


def test_scans_stay_exact_under_concurrent_writes_and_compactions():
    """Scans read a locked snapshot of the arena while three query
    threads race writers and both compactions, scanning at once outside
    the GIL; no scan may fail, and at rest the scan answers exactly."""
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
    query_rows = rows(rng, 2)
    signature = _signature(2, rng)
    assert sketch_filter_many([signature], [query_rows], store, params, 256) == [
        sketch_filter_reference(signature, query_rows, store, params, 256)
    ]


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
def test_image_engine_scans_the_whole_arena():
    plugin = make_image_plugin()
    engine = SimilaritySearchEngine(
        plugin,
        SketchParams(256, plugin.meta, seed=0),
        FilterParams(num_query_segments=4, candidates_per_segment=32),
    )
    with engine:
        engine.insert_many(list(bulk_image_dataset(1000, seed=1)))
        engine.tracer.enabled = True
        engine.query_by_id(7, top_k=5)
        assert engine.tracer.last.notes["scan"] == "serial"
        assert "serial_scan" in engine.tracer.last.stages
        stat = CommandProcessor(engine).execute(parse_command("stat"))
        assert not any(line.startswith("filter_") for line in stat)
        for oid in range(0, 1000, 97):
            query = engine.get_object(oid)
            sketches = engine.sketcher.sketch_many(query.features)
            assert engine._filter_candidates([query], [sketches])[0] == (
                sketch_filter_reference(
                    query, sketches, engine._store, engine.filter_params,
                    engine.sketcher.n_bits,
                )
            )

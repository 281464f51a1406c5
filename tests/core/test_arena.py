"""Segmented-arena unit tests: append chunks, delta journal, compaction.

The arena (PR: online index maintenance) replaced the monolithic
concatenate-on-insert sketch matrix with capacity-grown parallel arrays
plus a delta journal.  These tests pin the structural contract —
appends never copy the whole matrix, `delta_since` reproduces the arena
bit-identically, compaction invalidates deltas — and the locking fixes
on `__len__`/`sketch_bytes` (the reported race with concurrent
remove/compact).
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core import ArenaCompactor, ArenaDelta, SegmentStore


def _store(n_objects=0, segs=3, n_words=2, seed=0, keep_features=False):
    rng = np.random.default_rng(seed)
    store = SegmentStore(n_words=n_words, dim=4, keep_features=keep_features)
    for oid in range(n_objects):
        _add(store, oid, rng, segs=segs, n_words=n_words, keep_features=keep_features)
    return store, rng


def _add(store, oid, rng, segs=3, n_words=2, keep_features=False):
    sk = rng.integers(0, 2**63, size=(segs, n_words), dtype=np.uint64).astype(
        np.uint64
    )
    ft = rng.random((segs, 4)) if keep_features else None
    store.add_object(oid, sk, ft)
    return sk


class TestAppendArena:
    def test_append_does_not_reallocate_under_capacity(self):
        store, rng = _store(1)
        before = store.sketches
        # Capacity doubling leaves plenty of headroom after the first
        # grow; the next small append must write in place.
        assert store.arena_info()["capacity"] > store.arena_info()["rows"]
        _add(store, 1, rng)
        assert np.shares_memory(store.sketches, before)

    def test_snapshot_views_are_stable_across_appends(self):
        store, rng = _store(4)
        owners, sketches = store.snapshot()
        rows_before = sketches.copy()
        for oid in range(4, 40):
            _add(store, oid, rng)
        # Old snapshot still reads the rows it was cut from, even though
        # the arena reallocated several times since.
        assert sketches.shape == rows_before.shape
        np.testing.assert_array_equal(sketches, rows_before)

    def test_epoch_and_marks_advance_per_append(self):
        store, rng = _store(0)
        assert store.epoch == 0
        _add(store, 0, rng, segs=2)
        _add(store, 1, rng, segs=5)
        info = store.arena_info()
        assert store.epoch == 2
        assert info["rows"] == 7
        assert info["chunks"] == 3  # baseline mark + 2 sealed chunks

    def test_zero_segment_object_rejected(self):
        store, _ = _store(0)
        with pytest.raises(ValueError, match="no segment sketches"):
            store.add_object(7, np.empty((0, 2), dtype=np.uint64))


class TestDeltaJournal:
    def test_delta_reproduces_arena(self):
        store, rng = _store(5)
        e0, ow0, sk0 = store.versioned_snapshot()
        ow0, sk0 = ow0.copy(), sk0.copy()
        for oid in range(5, 9):
            _add(store, oid, rng)
        store.remove_object(2)
        delta = store.delta_since(e0)
        assert isinstance(delta, ArenaDelta)
        assert delta.from_epoch == e0 and delta.to_epoch == store.epoch
        assert delta.base_rows == ow0.shape[0]
        # Replay: base + delta == live arena, bit for bit.
        ow = np.concatenate([ow0, delta.new_owners])
        ow[delta.dead_rows] = -1
        sk = np.concatenate([sk0, delta.new_sketches])
        live_ow, live_sk = store.snapshot()
        np.testing.assert_array_equal(ow, live_ow)
        np.testing.assert_array_equal(sk, live_sk)

    def test_delta_of_current_epoch_is_empty_or_none(self):
        store, _ = _store(3)
        delta = store.delta_since(store.epoch)
        assert delta is None or delta.n_new == 0

    def test_unknown_epoch_requires_full_reload(self):
        store, _ = _store(3)
        assert store.delta_since(store.epoch + 10) is None

    def test_compaction_invalidates_outstanding_deltas(self):
        store, rng = _store(6)
        e0 = store.epoch
        store.remove_object(0)
        store.compact()
        assert store.delta_since(e0) is None
        info = store.arena_info()
        assert info["delta_floor"] == info["epoch"] == info["compaction_epoch"]

    def test_tombstone_on_appended_rows_lands_in_new_slice(self):
        # Enough live rows that the removal stays under the inline
        # compaction threshold (which would reset the journal).
        store, rng = _store(8)
        e0 = store.epoch
        _add(store, 77, rng)
        store.remove_object(77)  # dead rows live inside the delta slice
        delta = store.delta_since(e0)
        assert delta is not None
        assert delta.dead_rows.size == 0  # only pre-base tombstones listed
        assert (delta.new_owners == -1).sum() == 3


class TestLockedAccessors:
    """Satellite bugfix: `__len__`/`sketch_bytes` read under the lock."""

    def test_len_and_bytes_consistent_under_concurrent_churn(self):
        store, rng = _store(50, segs=2)
        stop = threading.Event()
        errors: list = []

        def churn():
            local = np.random.default_rng(123)
            oid = 1000
            try:
                while not stop.is_set():
                    _add(store, oid, local, segs=2)
                    store.remove_object(oid)
                    store.remove_object(int(local.integers(0, 50)))
                    oid += 1
            except Exception as exc:  # pragma: no cover - fails the test
                errors.append(exc)

        def read():
            try:
                for _ in range(3000):
                    n = len(store)
                    b = store.sketch_bytes
                    assert n >= 0
                    assert b >= 0
                    assert b % (store.n_words * 8) == 0
            except Exception as exc:  # pragma: no cover - fails the test
                errors.append(exc)

        churner = threading.Thread(target=churn)
        readers = [threading.Thread(target=read) for _ in range(3)]
        churner.start()
        for t in readers:
            t.start()
        for t in readers:
            t.join()
        stop.set()
        churner.join()
        assert not errors
        # Quiesced: the counters agree with ground truth.
        owners, _ = store.snapshot()
        assert len(store) == int((owners >= 0).sum())
        assert store.sketch_bytes == len(store) * store.n_words * 8


class TestMaintenanceCompaction:
    def test_maintenance_equals_inline_compaction(self):
        a, rng_a = _store(20, seed=7, keep_features=True)
        b, _ = _store(20, seed=7, keep_features=True)
        for oid in (1, 5, 9, 13):
            a.remove_object(oid)
            b.remove_object(oid)
        assert a.maintenance_compact()
        b.compact()
        for x, y in zip(a.snapshot(with_features=True), b.snapshot(with_features=True)):
            np.testing.assert_array_equal(x, y)
        assert a.arena_info()["dead_rows"] == 0

    def test_compaction_keeps_mutations_made_during_gather(self):
        # Simulate phase-2 interleaving: mutate between the mark and the
        # install by monkeypatching the unlocked gather window is hard;
        # instead drive maintenance_compact concurrently with churn and
        # check the invariant afterwards.
        store, rng = _store(100, segs=1, seed=3)
        stop = threading.Event()
        errors: list = []

        def churn():
            local = np.random.default_rng(5)
            oid = 10_000
            try:
                while not stop.is_set():
                    _add(store, oid, local, segs=1)
                    if oid % 3 == 0:
                        store.remove_object(oid - 1)
                    oid += 1
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        t = threading.Thread(target=churn)
        t.start()
        for _ in range(20):
            store.maintenance_compact()
        stop.set()
        t.join()
        assert not errors
        owners, sketches = store.snapshot()
        info = store.arena_info()
        assert info["rows"] == owners.shape[0] == sketches.shape[0]
        assert info["dead_rows"] == int((owners < 0).sum())
        # Every object inserted and not removed has exactly one row.
        alive = owners[owners >= 0]
        assert len(alive) == len(set(alive.tolist()))

    def test_background_compactor_runs_and_stops(self):
        store, rng = _store(40, segs=1)
        compactor = ArenaCompactor(store, dead_fraction=0.05, interval=0.01)
        compactor.start()
        try:
            for oid in range(30):
                store.remove_object(oid)
            deadline = 200
            while store.arena_info()["dead_rows"] and deadline:
                deadline -= 1
                threading.Event().wait(0.01)
            assert store.arena_info()["dead_rows"] == 0
        finally:
            compactor.stop()
        assert not compactor.running
        # Detached again: inline threshold compaction is restored.
        assert store._compactor is None

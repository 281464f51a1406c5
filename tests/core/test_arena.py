"""Segmented-arena unit tests: append chunks, spans, compaction.

The arena replaced the monolithic concatenate-on-insert sketch matrix
with capacity-grown parallel arrays.  These tests pin the structural
contract — appends never copy the whole matrix, snapshots stay stable,
compaction keeps every mutation made while it gathers — and the locking
fixes on `__len__`/`sketch_bytes` (the reported race with concurrent
remove/compact).
"""

from __future__ import annotations

import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ArenaCompactor, SegmentStore, filtering


def _store(n_objects=0, segs=3, n_words=2, seed=0):
    rng = np.random.default_rng(seed)
    store = SegmentStore(n_words=n_words)
    for oid in range(n_objects):
        _add(store, oid, rng, segs=segs, n_words=n_words)
    return store, rng


def _add(store, oid, rng, segs=3, n_words=2):
    sk = rng.integers(0, 2**63, size=(segs, n_words), dtype=np.uint64).astype(
        np.uint64
    )
    store.add_object(oid, sk)
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
        a, rng_a = _store(20, seed=7)
        b, _ = _store(20, seed=7)
        for oid in (1, 5, 9, 13):
            a.remove_object(oid)
            b.remove_object(oid)
        assert a.maintenance_compact()
        b.compact()
        for x, y in zip(a.snapshot(), b.snapshot()):
            np.testing.assert_array_equal(x, y)
        assert a.arena_info()["dead_rows"] == 0

    @staticmethod
    def _churn_during_compactions():
        # Drive maintenance_compact concurrently with inserts and removes.
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
        return store

    @staticmethod
    def _mass_removal_during_gather():
        # 1,100 removes inside one unlocked gather (started by its
        # np.cumsum call): more than the 1,024 tombstones a bounded
        # removal log would keep for the install to replay.
        store, _ = _store(4000, segs=1, seed=3)
        store.attach_compactor(_NoCompactor())  # no inline compaction
        for oid in range(100):
            store.remove_object(oid)
        real_cumsum, fired = np.cumsum, []

        def cumsum(*args, **kwargs):
            if not fired:
                fired.append(True)
                for oid in range(100, 1200):
                    store.remove_object(oid)
            return real_cumsum(*args, **kwargs)

        with mock.patch.object(np, "cumsum", cumsum):
            assert store.maintenance_compact()
        assert fired
        assert len(store) == 2800
        assert set(store.owners[store.owners >= 0].tolist()) == set(range(1200, 4000))
        return store

    def test_compaction_keeps_mutations_made_during_gather(self):
        for mutate in (self._churn_during_compactions, self._mass_removal_during_gather):
            store = mutate()
            owners, sketches = store.snapshot()
            info = store.arena_info()
            assert info["rows"] == owners.shape[0] == sketches.shape[0]
            assert info["dead_rows"] == int((owners < 0).sum())
            # Every object inserted and not removed has exactly one row.
            alive = owners[owners >= 0]
            assert len(alive) == len(set(alive.tolist()))
            _assert_spans(store, set(alive.tolist()))

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


class _NoCompactor:
    """Stands in for an attached compactor: turns off inline compaction,
    so rows move only at the compactions a test asks for."""

    def wake(self):
        pass


def _assert_spans(store, live):
    owners = store.owners
    assert set(store._spans) == live
    assert set(owners[owners >= 0].tolist()) == live
    for oid, (start, end) in store._spans.items():
        np.testing.assert_array_equal(np.flatnonzero(owners == oid), np.arange(start, end))


_steps = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.integers(1, 4)),
        st.tuples(st.just("remove"), st.integers(0, 10**6)),
        st.tuples(st.just("compact")),
        st.tuples(
            st.just("maintenance"),
            st.lists(st.integers(1, 3), max_size=3),  # appended mid-gather
            st.lists(st.integers(0, 10**6), max_size=3),  # removed mid-gather
        ),
    ),
    max_size=40,
)


class TestSpans:
    """Each live object's rows are one span, through every rewrite."""

    @settings(max_examples=150, deadline=None)
    @given(steps=_steps)
    def test_spans_match_the_owners_array(self, steps):
        store = SegmentStore(n_words=1)
        store.attach_compactor(_NoCompactor())
        rng = np.random.default_rng(0)
        live = set()
        next_id = iter(range(10**9))

        def add(segs):
            oid = next(next_id)
            sketches = rng.integers(0, 2**63, (segs, 1), dtype=np.uint64)
            store.add_object(oid, sketches)
            live.add(oid)

        def remove(pick):
            if not live:
                assert store.remove_object(pick) == 0
                return
            oid = sorted(live)[pick % len(live)]
            rows = np.flatnonzero(store.owners == oid)
            assert store.remove_object(oid) == rows.size
            live.discard(oid)
            assert (store.owners[rows] == -1).all()
            assert store.remove_object(oid) == 0

        for step in steps:
            if step[0] == "add":
                add(step[1])
            elif step[0] == "remove":
                remove(step[1])
            elif step[0] == "compact":
                store.compact()
            else:
                _, adds, removes = step
                real_clock, fired = filtering.time.perf_counter, []

                def clock():
                    # The unlocked gather's first statement reads the clock.
                    if not fired:
                        fired.append(True)
                        for segs in adds:
                            add(segs)
                        for pick in removes:
                            remove(pick)
                    return real_clock()

                with mock.patch.object(filtering.time, "perf_counter", clock):
                    installed = store.maintenance_compact()
                assert installed == bool(fired)
            _assert_spans(store, live)


class TestDuplicateIds:
    def test_add_object_rejects_a_live_id_without_touching_state(self):
        store, rng = _store(3)
        owners, sketches = (a.copy() for a in store.snapshot())
        info, spans = store.arena_info(), dict(store._spans)
        with pytest.raises(KeyError):
            _add(store, 1, rng)
        assert store.arena_info() == info and store._spans == spans
        for before, after in zip((owners, sketches), store.snapshot()):
            np.testing.assert_array_equal(before, after)
        # Once removed, the id may come back.
        store.remove_object(1)
        _add(store, 1, rng)
        _assert_spans(store, {0, 1, 2})

    @pytest.mark.parametrize("ids", [[3, 2], [4, 4]])
    def test_add_many_rejects_live_or_repeated_ids_atomically(self, ids):
        store, rng = _store(3)
        info = store.arena_info()
        blocks = [rng.integers(0, 2**63, (2, 2), dtype=np.uint64) for _ in ids]
        with pytest.raises(KeyError):
            store.add_many(ids, blocks)
        assert store.arena_info() == info
        assert set(store._spans) == {0, 1, 2}


class TestAddMany:
    def test_equals_one_add_object_per_object_in_one_chunk(self):
        rng = np.random.default_rng(4)
        ids = [5, 9, 2, 7]
        blocks = [rng.integers(0, 2**63, (n, 2), dtype=np.uint64) for n in (1, 3, 2, 4)]
        one = SegmentStore(n_words=2)
        for oid, sk in zip(ids, blocks):
            one.add_object(oid, sk)
        many = SegmentStore(n_words=2)
        many.add_many(ids, blocks)
        for x, y in zip(one.snapshot(), many.snapshot()):
            np.testing.assert_array_equal(x, y)
        assert many._spans == one._spans
        info = many.arena_info()
        assert info["epoch"] == 1 and info["chunks"] == 2  # one journal mark
        assert many.arena_info()["capacity"] >= info["rows"] == 10

    def test_invalid_block_rejects_the_whole_batch(self):
        store, rng = _store(2)
        info = store.arena_info()
        good = rng.integers(0, 2**63, (2, 2), dtype=np.uint64)
        with pytest.raises(ValueError, match="no segment sketches"):
            store.add_many([10, 11], [good, np.empty((0, 2), dtype=np.uint64)])
        assert store.arena_info() == info
        assert set(store._spans) == {0, 1}

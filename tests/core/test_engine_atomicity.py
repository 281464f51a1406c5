"""Mutation-path atomicity: the bugfix sweep of the maintenance PR.

`Engine.remove()` used to pop the in-memory dicts before touching the
store/metadata, so a failing backend left the three structures
disagreeing; `insert_many()` used to apply inserts one by one, so a bad
signature mid-batch left a half-applied prefix.  Both are now
all-or-nothing; these tests inject failures and assert the engine is
bit-identical to never having tried.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    DataTypePlugin,
    ObjectSignature,
    SimilaritySearchEngine,
    SketchParams,
)


def random_signature(rng, k, dim=8, object_id=None):
    return ObjectSignature(
        rng.random((k, dim)), rng.random(k) + 0.1, object_id=object_id
    )


def zero_segment_signature(rng):
    """A signature whose segments vanished after construction.

    The constructor rejects empty segmentations, so the degenerate case
    insert_many must guard against can only arise from post-construction
    mutation (e.g. a plug-in bug) — simulate exactly that.
    """
    sig = random_signature(rng, 1)
    sig.features = np.empty((0, 8))
    sig.weights = np.empty(0)
    return sig


class FlakyMetadata:
    """In-memory metadata backend with injectable failures."""

    def __init__(self):
        self.objects = {}
        self.fail_put_after = None  # fail the Nth put (0-based), then heal
        self.fail_delete = False
        self.puts = 0

    def put_object(self, object_id, signature, sketches, attributes,
                   filename=None):
        if self.fail_put_after is not None and self.puts >= self.fail_put_after:
            raise OSError("metadata backend down (injected)")
        self.puts += 1
        self.objects[object_id] = (signature, sketches, attributes)

    def delete_object(self, object_id):
        if self.fail_delete:
            raise OSError("metadata backend down (injected)")
        self.objects.pop(object_id, None)

    def iter_objects(self):
        for oid, (sig, sk, attrs) in sorted(self.objects.items()):
            yield oid, sig, sk, attrs


def _engine(metadata=None):
    from repro.core import FeatureMeta

    meta = FeatureMeta(8, np.zeros(8), np.ones(8))
    return SimilaritySearchEngine(
        DataTypePlugin("test", meta),
        sketch_params=SketchParams(64, meta, seed=1),
        metadata=metadata,
    )


def _state(engine):
    owners, sketches = engine._store.snapshot()
    return (
        dict(engine._objects),
        {k: v.copy() for k, v in engine._object_sketches.items()},
        owners.copy(),
        sketches.copy(),
        engine._next_id,
    )


def _assert_same_live_state(engine, before):
    objects, obj_sk, owners, sketches, next_id = before
    assert engine._objects == objects
    assert set(engine._object_sketches) == set(obj_sk)
    assert engine._next_id == next_id
    live_owners, live_sketches = engine._store.snapshot()
    # Row positions may differ (rollback re-appends at the arena tail);
    # compare the live row multiset per owner instead.
    def rows_by_owner(ow, sk):
        out = {}
        for oid in np.unique(ow[ow >= 0]):
            rows = sk[ow == oid]
            out[int(oid)] = rows[np.lexsort(rows.T[::-1])]
        return out

    a = rows_by_owner(owners, sketches)
    b = rows_by_owner(live_owners, live_sketches)
    assert a.keys() == b.keys()
    for oid in a:
        np.testing.assert_array_equal(a[oid], b[oid])


class TestRemoveRollback:
    def test_failed_metadata_delete_keeps_object_searchable(self, rng):
        metadata = FlakyMetadata()
        engine = _engine(metadata)
        ids = [engine.insert(random_signature(rng, 4)) for _ in range(6)]
        victim = ids[2]
        before = _state(engine)
        result_before = engine.query(engine._objects[victim], top_k=3)

        metadata.fail_delete = True
        with pytest.raises(OSError):
            engine.remove(victim)

        _assert_same_live_state(engine, before)
        assert victim in metadata.objects  # backend untouched
        # The object still answers queries exactly as before.
        result_after = engine.query(engine._objects[victim], top_k=3)
        assert [(r.object_id, r.distance) for r in result_before] == [
            (r.object_id, r.distance) for r in result_after
        ]

        metadata.fail_delete = False
        engine.remove(victim)  # heals: the retry succeeds cleanly
        assert victim not in engine._objects
        assert victim not in metadata.objects


class TestInsertManyAtomicity:
    def test_zero_segment_signature_rejects_whole_batch(self, rng):
        engine = _engine()
        engine.insert(random_signature(rng, 4))
        before = _state(engine)
        batch = [
            random_signature(rng, 3),
            zero_segment_signature(rng),
            random_signature(rng, 3),
        ]
        with pytest.raises(ValueError, match="batch position 1.*whole batch"):
            engine.insert_many(batch)
        _assert_same_live_state(engine, before)

    def test_duplicate_id_rejects_whole_batch(self, rng):
        engine = _engine()
        existing = engine.insert(random_signature(rng, 4))
        before = _state(engine)
        batch = [
            random_signature(rng, 3),
            random_signature(rng, 3, object_id=existing),
        ]
        with pytest.raises(KeyError, match="whole batch rejected"):
            engine.insert_many(batch)
        _assert_same_live_state(engine, before)
        # Intra-batch collision too.
        batch = [
            random_signature(rng, 3, object_id=555),
            random_signature(rng, 3, object_id=555),
        ]
        with pytest.raises(KeyError, match="batch position 1"):
            engine.insert_many(batch)
        _assert_same_live_state(engine, before)

    def test_backend_failure_mid_batch_rolls_back_prefix(self, rng):
        metadata = FlakyMetadata()
        engine = _engine(metadata)
        engine.insert(random_signature(rng, 4))
        before = _state(engine)
        metadata.fail_put_after = metadata.puts + 2  # dies on 3rd batch put
        with pytest.raises(OSError):
            engine.insert_many([random_signature(rng, 3) for _ in range(5)])
        metadata.fail_put_after = None
        _assert_same_live_state(engine, before)
        assert len(metadata.objects) == 1
        # Ids consumed by the failed batch are released.
        new_id = engine.insert(random_signature(rng, 2))
        assert new_id == before[4]

    def test_failed_batch_leaves_queries_unchanged(self, rng):
        engine = _engine()
        probe = random_signature(rng, 4)
        for _ in range(5):
            engine.insert(random_signature(rng, 4))
        result_before = engine.query(probe, top_k=5)
        with pytest.raises(ValueError):
            engine.insert_many([
                random_signature(rng, 3),
                zero_segment_signature(rng),
            ])
        result_after = engine.query(probe, top_k=5)
        assert [(r.object_id, r.distance) for r in result_before] == [
            (r.object_id, r.distance) for r in result_after
        ]

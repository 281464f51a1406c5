"""Tests for object removal: engine, segment store, metadata."""

import numpy as np
import pytest

from repro.core import (
    DataTypePlugin,
    FeatureMeta,
    FilterParams,
    ObjectSignature,
    SearchMethod,
    SimilaritySearchEngine,
    SketchParams,
)
from repro.core.filtering import SegmentStore
from repro.metadata import MetadataManager


def _engine(meta, metadata=None):
    return SimilaritySearchEngine(
        DataTypePlugin("t", meta),
        SketchParams(128, meta, seed=1),
        FilterParams(num_query_segments=2, candidates_per_segment=20),
        metadata=metadata,
    )


@pytest.fixture()
def filled(unit_meta):
    engine = _engine(unit_meta)
    rng = np.random.default_rng(0)
    for _ in range(30):
        engine.insert(ObjectSignature(rng.random((3, 8)), [1, 1, 1]))
    return engine


class TestSegmentStoreRemoval:
    def test_remove_counts(self):
        store = SegmentStore(n_words=2)
        store.add_object(1, np.zeros((3, 2), np.uint64))
        store.add_object(2, np.zeros((2, 2), np.uint64))
        assert store.remove_object(1) == 3
        assert len(store) == 2
        assert store.remove_object(1) == 0

    def test_compaction_threshold(self):
        store = SegmentStore(n_words=1)
        for oid in range(8):
            store.add_object(oid, np.zeros((1, 1), np.uint64))
        store.remove_object(0)  # 1/8 dead: tombstoned only
        assert store.owners.shape[0] == 8
        store.remove_object(1)  # 2/8 = 25% dead: compacts
        assert store.owners.shape[0] == 6
        assert np.all(store.owners >= 0)

    def test_explicit_compact(self):
        store = SegmentStore(n_words=1)
        for oid in range(10):
            store.add_object(oid, np.zeros((2, 1), np.uint64))
        store.remove_object(3)
        store.compact()
        assert store.owners.shape[0] == 18
        assert 3 not in store.owners


class TestEngineRemoval:
    def test_removed_object_gone_from_all_methods(self, filled):
        filled.remove(5)
        assert 5 not in filled
        assert len(filled) == 29
        for method in SearchMethod:
            results = filled.query_by_id(0, top_k=29, method=method)
            assert all(r.object_id != 5 for r in results)

    def test_remove_unknown_raises(self, filled):
        with pytest.raises(KeyError):
            filled.remove(999)

    def test_reinsert_same_id(self, filled):
        removed = filled.get_object(7)
        filled.remove(7)
        filled.insert(
            ObjectSignature(removed.features, removed.weights, normalize=False),
            object_id=7,
        )
        assert 7 in filled
        results = filled.query_by_id(7, top_k=1)
        assert results[0].object_id == 7

    def test_remove_many_triggers_compaction(self, unit_meta):
        engine = _engine(unit_meta)
        rng = np.random.default_rng(1)
        for _ in range(40):
            engine.insert(ObjectSignature(rng.random((2, 8)), [1, 1]))
        for oid in range(0, 20):
            engine.remove(oid)
        assert len(engine) == 20
        # store physically compacted (dead < 25% after compaction)
        assert engine._store.owners.shape[0] < 80
        results = engine.query_by_id(25, top_k=5, method=SearchMethod.FILTERING)
        assert results[0].object_id == 25

    def test_metadata_deleted_too(self, unit_meta, tmp_path):
        with MetadataManager(str(tmp_path / "m")) as manager:
            engine = _engine(unit_meta, metadata=manager)
            rng = np.random.default_rng(2)
            for _ in range(5):
                engine.insert(ObjectSignature(rng.random((2, 8)), [1, 1]))
            engine.remove(2)
            assert manager.get_object(2) is None
        # reload skips the removed object
        with MetadataManager(str(tmp_path / "m")) as manager:
            engine2 = _engine(unit_meta, metadata=manager)
            assert engine2.load() == 4
            assert 2 not in engine2

    def test_quality_unaffected_by_unrelated_removal(self, unit_meta):
        """Removing distractors must not disturb ranking of the rest."""
        engine = _engine(unit_meta)
        rng = np.random.default_rng(3)
        base = rng.random((3, 8))
        engine.insert(ObjectSignature(base, [1, 1, 1]))  # 0
        engine.insert(ObjectSignature(np.clip(base + 0.01, 0, 1), [1, 1, 1]))  # 1
        for _ in range(20):
            engine.insert(ObjectSignature(rng.random((3, 8)), [1, 1, 1]))
        for oid in range(10, 20):
            engine.remove(oid)
        results = engine.query_by_id(0, top_k=1, exclude_self=True,
                                     method=SearchMethod.FILTERING)
        assert results[0].object_id == 1

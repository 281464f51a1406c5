"""Integration: engine + metadata manager persistence and recovery."""

import numpy as np
import pytest

from repro.core import (
    DataTypePlugin,
    FeatureMeta,
    ObjectSignature,
    SearchMethod,
    SimilaritySearchEngine,
    SketchParams,
)
from repro.metadata import MetadataManager


def _meta():
    return FeatureMeta(6, np.zeros(6), np.ones(6))


def _engine(manager, seed=5):
    meta = _meta()
    return SimilaritySearchEngine(
        DataTypePlugin("t", meta),
        SketchParams(128, meta, seed=seed),
        metadata=manager,
    )


class TestEngineWithMetadata:
    def test_insert_writes_through(self, tmp_path):
        with MetadataManager(str(tmp_path / "m")) as manager:
            engine = _engine(manager)
            rng = np.random.default_rng(0)
            oid = engine.insert(
                ObjectSignature(rng.random((2, 6)), [1, 1]), attributes={"a": "b"}
            )
            assert manager.get_object(oid) is not None
            assert manager.get_attributes(oid) == {"a": "b"}
            assert manager.get_sketches(oid).shape == (2, 2)

    def test_reload_after_restart(self, tmp_path):
        path = str(tmp_path / "m")
        rng = np.random.default_rng(1)
        signatures = [ObjectSignature(rng.random((3, 6)), [1, 1, 1]) for _ in range(25)]

        with MetadataManager(path) as manager:
            engine = _engine(manager)
            for sig in signatures:
                engine.insert(sig)
            before = engine.query_by_id(0, top_k=5, exclude_self=True)

        with MetadataManager(path) as manager:
            engine2 = _engine(manager)  # same sketch seed
            loaded = engine2.load()
            assert loaded == 25
            after = engine2.query_by_id(0, top_k=5, exclude_self=True)

        assert [r.object_id for r in before] == [r.object_id for r in after]
        for b, a in zip(before, after):
            assert b.distance == pytest.approx(a.distance, rel=1e-5, abs=1e-6)

    def test_reload_stored_sketches_match(self, tmp_path):
        """Persisted sketches are byte-identical to freshly computed ones."""
        path = str(tmp_path / "m")
        rng = np.random.default_rng(2)
        sig = ObjectSignature(rng.random((4, 6)), [1, 1, 1, 1])
        with MetadataManager(path) as manager:
            engine = _engine(manager, seed=9)
            oid = engine.insert(sig)
            fresh = engine.sketcher.sketch_many(sig.features)
            stored = manager.get_sketches(oid)
            assert np.array_equal(fresh, stored)

    def test_load_is_idempotent(self, tmp_path):
        path = str(tmp_path / "m")
        with MetadataManager(path) as manager:
            engine = _engine(manager)
            engine.insert(ObjectSignature(np.random.rand(1, 6), [1.0]))
        with MetadataManager(path) as manager:
            engine2 = _engine(manager)
            assert engine2.load() == 1
            assert engine2.load() == 0  # already loaded
            assert len(engine2) == 1

    def test_insert_after_reload_continues_ids(self, tmp_path):
        path = str(tmp_path / "m")
        with MetadataManager(path) as manager:
            engine = _engine(manager)
            for _ in range(5):
                engine.insert(ObjectSignature(np.random.rand(1, 6), [1.0]))
        with MetadataManager(path) as manager:
            engine2 = _engine(manager)
            engine2.load()
            new_id = engine2.insert(ObjectSignature(np.random.rand(1, 6), [1.0]))
            assert new_id == 5

    def test_queries_work_after_reload_all_methods(self, tmp_path):
        path = str(tmp_path / "m")
        rng = np.random.default_rng(3)
        with MetadataManager(path) as manager:
            engine = _engine(manager)
            for _ in range(30):
                engine.insert(ObjectSignature(rng.random((2, 6)), [1, 1]))
        with MetadataManager(path) as manager:
            engine2 = _engine(manager)
            engine2.load()
            for method in SearchMethod:
                results = engine2.query_by_id(3, top_k=5, method=method)
                assert results[0].object_id == 3

    def test_load_appends_a_page_at_a_time(self, tmp_path, monkeypatch):
        from repro.core import engine as engine_module

        path = str(tmp_path / "m")
        rng = np.random.default_rng(4)
        with MetadataManager(path) as manager:
            engine = _engine(manager)
            for n in rng.integers(1, 5, size=23):
                engine.insert(ObjectSignature(rng.random((n, 6)), np.ones(n)))
            for oid in (0, 7, 8, 22):
                engine.remove(oid)
            ids = sorted(engine.objects)
        monkeypatch.setattr(engine_module, "_LOAD_PAGE", 4)
        with MetadataManager(path) as manager:
            engine2 = _engine(manager)
            engine2.insert(engine.objects[5], object_id=5)  # already present
            assert engine2.load() == len(ids) - 1
            store = engine2._store
            # One journal mark per page of four: 19 objects = 5 pages.
            assert store.arena_info()["chunks"] == 1 + 1 + 5
            owners, sketches, features = store.snapshot(with_features=True)
            order = [5] + [oid for oid in ids if oid != 5]
            np.testing.assert_array_equal(
                owners, np.repeat(order, [engine.objects[o].num_segments for o in order])
            )
            np.testing.assert_array_equal(
                sketches, np.concatenate([engine._object_sketches[o] for o in order])
            )
            np.testing.assert_array_equal(
                features, np.concatenate([engine2.objects[o].features for o in order])
            )
            assert engine2.insert(ObjectSignature(rng.random((1, 6)), [1.0])) == max(ids) + 1

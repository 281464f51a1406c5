"""Tests for the metadata manager."""

import numpy as np
import pytest

from repro.core import ObjectSignature
from repro.metadata import MetadataManager
from repro.storage import KVStore


@pytest.fixture()
def manager(tmp_path):
    m = MetadataManager(str(tmp_path / "meta"))
    yield m
    m.close()


def _obj(seed=0, k=3, dim=5):
    rng = np.random.default_rng(seed)
    return ObjectSignature(rng.random((k, dim)), rng.random(k) + 0.1)


def _sketches(seed=0, k=3, words=2):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2**63, size=(k, words), dtype=np.uint64)


class TestLifecycle:
    def test_requires_exactly_one_source(self, tmp_path):
        with pytest.raises(ValueError):
            MetadataManager()
        with pytest.raises(ValueError):
            MetadataManager(str(tmp_path / "x"), store=KVStore(str(tmp_path / "y")))

    def test_wraps_external_store_without_closing(self, tmp_path):
        store = KVStore(str(tmp_path / "shared"))
        manager = MetadataManager(store=store)
        manager.put_object(1, _obj(), _sketches())
        manager.close()  # must NOT close the shared store
        assert store.get("objects", b"\x00" * 7 + b"\x01") is not None
        store.close()


class TestObjectStorage:
    def test_put_get_roundtrip(self, manager):
        obj = _obj(1)
        manager.put_object(5, obj, _sketches(1), {"name": "five"})
        got = manager.get_object(5)
        assert got.object_id == 5
        assert np.allclose(got.features, obj.features, atol=1e-6)
        assert np.array_equal(manager.get_sketches(5), _sketches(1))
        assert manager.get_attributes(5) == {"name": "five"}

    def test_get_missing(self, manager):
        assert manager.get_object(99) is None
        assert manager.get_sketches(99) is None
        assert manager.get_attributes(99) == {}

    def test_delete_object_clears_all_tables(self, manager):
        manager.put_object(1, _obj(), _sketches(), {"a": "b"})
        manager.delete_object(1)
        assert manager.get_object(1) is None
        assert manager.get_sketches(1) is None
        assert manager.get_attributes(1) == {}

    def test_iter_objects_in_id_order(self, manager):
        for oid in (5, 1, 3):
            manager.put_object(oid, _obj(oid), _sketches(oid), {"id": str(oid)})
        ids = [oid for oid, _sig, _sk, _at in manager.iter_objects()]
        assert ids == [1, 3, 5]

    def test_iter_includes_attributes(self, manager):
        manager.put_object(1, _obj(), _sketches(), {"k": "v"})
        (_oid, _sig, _sk, attrs), = list(manager.iter_objects())
        assert attrs == {"k": "v"}

    @pytest.mark.parametrize("page", [2, 1024])
    def test_iter_objects_missing_and_orphan_rows(self, manager, monkeypatch, page):
        """An object without an attribute row yields ``{}``; attribute
        rows with no object row are skipped; every object's sketches
        come from its own row; the paged scans give the same rows across
        page boundaries."""
        from repro.metadata import manager as manager_module
        from repro.metadata.serialization import encode_attributes, object_key

        monkeypatch.setattr(manager_module, "_SCAN_PAGE", page)

        for oid in (2, 4, 6, 8):
            manager.put_object(oid, _obj(oid, k=oid % 3 + 1), _sketches(oid, k=oid % 3 + 1), {"id": str(oid)})
        manager.store.delete("attributes", object_key(6))
        manager.store.delete("attributes", object_key(8))
        for orphan in (1, 5, 9):  # before, between and after the objects
            manager.store.put("attributes", object_key(orphan), encode_attributes({"orphan": "1"}))
        rows = list(manager.iter_objects())
        assert [oid for oid, *_ in rows] == [2, 4, 6, 8]
        for oid, sig, sketches, attrs in rows:
            assert np.array_equal(sig.weights, manager.get_object(oid).weights)
            assert np.array_equal(sketches, _sketches(oid, k=oid % 3 + 1))
            assert np.array_equal(manager.get_sketches(oid), sketches)
            assert attrs == manager.get_attributes(oid)
        assert [attrs for *_, attrs in rows] == [{"id": "2"}, {"id": "4"}, {}, {}]

    def test_one_row_per_object(self, manager):
        """An object is one row of the objects table (its sketches ride
        along as a trailer); there is no sketches table."""
        manager.put_object(3, _obj(3), _sketches(3))
        assert manager.store.count("objects") == 1
        assert "sketches" not in manager.store.tree_names()

    def test_row_without_sketch_trailer_refused_on_load(self, manager):
        from repro.metadata.serialization import encode_object, object_key

        manager.put_object(1, _obj(1), _sketches(1))
        # An object row as the older layout stored it: the object alone.
        manager.store.put("objects", object_key(2), encode_object(_obj(2)))
        with pytest.raises(ValueError, match="sketch trailer"):
            list(manager.iter_objects())
        with pytest.raises(ValueError, match="sketch trailer"):
            manager.get_sketches(2)

    def test_num_objects(self, manager):
        for oid in range(7):
            manager.put_object(oid, _obj(oid), _sketches(oid))
        assert manager.num_objects() == 7

    def test_set_attributes_after_insert(self, manager):
        manager.put_object(1, _obj(), _sketches())
        manager.set_attributes(1, {"late": "yes"})
        assert manager.get_attributes(1) == {"late": "yes"}


class TestFileMapping:
    def test_file_roundtrip(self, manager):
        manager.put_object(3, _obj(), _sketches(), filename="/data/x.npy")
        assert manager.file_for("/data/x.npy") == 3
        assert manager.file_for("/data/other.npy") is None
        assert list(manager.files()) == [("/data/x.npy", 3)]


class TestPersistence:
    def test_objects_survive_reopen(self, tmp_path):
        path = str(tmp_path / "m")
        obj = _obj(7, k=2, dim=4)
        with MetadataManager(path) as m:
            m.put_object(7, obj, _sketches(7, k=2), {"x": "y"}, filename="f.npy")
        with MetadataManager(path) as m:
            got = m.get_object(7)
            assert np.allclose(got.features, obj.features, atol=1e-6)
            assert m.get_attributes(7) == {"x": "y"}
            assert m.file_for("f.npy") == 7

"""Tests for the KV store facade: transactions, checkpoints, reopen."""

import random
import threading

import pytest

from repro.storage import KVStore, StoreClosedError, TransactionError


@pytest.fixture()
def store(tmp_path):
    s = KVStore(str(tmp_path / "store"))
    yield s
    s.close()


class TestBasicOps:
    def test_put_get(self, store):
        store.put("t", b"k", b"v")
        assert store.get("t", b"k") == b"v"

    def test_get_missing(self, store):
        assert store.get("t", b"missing") is None

    def test_delete(self, store):
        store.put("t", b"k", b"v")
        store.delete("t", b"k")
        assert store.get("t", b"k") is None

    def test_multiple_trees_isolated(self, store):
        store.put("a", b"k", b"va")
        store.put("b", b"k", b"vb")
        assert store.get("a", b"k") == b"va"
        assert store.get("b", b"k") == b"vb"
        assert sorted(store.tree_names()) == ["a", "b"]

    def test_items_ordered(self, store):
        for i in (3, 1, 2):
            store.put("t", f"{i}".encode(), b"v")
        assert [k for k, _ in store.items("t")] == [b"1", b"2", b"3"]

    def test_items_prefix(self, store):
        store.put("t", b"x:1", b"a")
        store.put("t", b"x:2", b"b")
        store.put("t", b"y:1", b"c")
        assert len(store.items("t", prefix=b"x:")) == 2

    def test_count(self, store):
        for i in range(10):
            store.put("t", str(i).encode(), b"v")
        assert store.count("t") == 10

    def test_reserved_tree_name_rejected(self, store):
        from repro.storage.errors import StorageError

        wal_size = store.wal_size
        with pytest.raises(StorageError):
            store.put("__catalog__", b"k", b"v")
        with pytest.raises(StorageError):
            store.delete("__catalog__", b"k")
        assert store.wal_size == wal_size  # refused before the WAL append

    def test_closed_store_rejects_ops(self, tmp_path):
        s = KVStore(str(tmp_path / "s2"))
        s.close()
        with pytest.raises(StoreClosedError):
            s.get("t", b"k")
        s.close()  # double close is a no-op


class TestTransactions:
    def test_commit_applies_all(self, store):
        with store.begin() as txn:
            txn.put("t", b"a", b"1")
            txn.put("u", b"b", b"2")
        assert store.get("t", b"a") == b"1"
        assert store.get("u", b"b") == b"2"

    def test_abort_applies_nothing(self, store):
        txn = store.begin()
        txn.put("t", b"a", b"1")
        txn.abort()
        assert store.get("t", b"a") is None

    def test_exception_in_context_aborts(self, store):
        with pytest.raises(RuntimeError):
            with store.begin() as txn:
                txn.put("t", b"a", b"1")
                raise RuntimeError("boom")
        assert store.get("t", b"a") is None

    def test_read_your_writes(self, store):
        store.put("t", b"k", b"old")
        with store.begin() as txn:
            assert txn.get("t", b"k") == b"old"
            txn.put("t", b"k", b"new")
            assert txn.get("t", b"k") == b"new"
            txn.delete("t", b"k")
            assert txn.get("t", b"k") is None
        assert store.get("t", b"k") is None

    def test_commit_twice_rejected(self, store):
        txn = store.begin()
        txn.put("t", b"k", b"v")
        txn.commit()
        with pytest.raises(TransactionError):
            txn.commit()

    def test_use_after_abort_rejected(self, store):
        txn = store.begin()
        txn.abort()
        with pytest.raises(TransactionError):
            txn.put("t", b"k", b"v")

    def test_empty_commit_ok(self, store):
        with store.begin():
            pass

    def test_txn_delete_then_put(self, store):
        with store.begin() as txn:
            txn.delete("t", b"k")
            txn.put("t", b"k", b"resurrected")
        assert store.get("t", b"k") == b"resurrected"

    def test_txids_monotonic(self, store):
        t1 = store.begin()
        t2 = store.begin()
        assert t2.txid > t1.txid
        t1.abort()
        t2.abort()


class TestPersistence:
    def test_reopen_after_close(self, tmp_path):
        path = str(tmp_path / "s")
        with KVStore(path) as s:
            for i in range(100):
                s.put("t", f"{i:03d}".encode(), str(i).encode())
        with KVStore(path) as s:
            assert s.count("t") == 100
            assert s.get("t", b"050") == b"50"

    def test_large_values_survive(self, tmp_path):
        path = str(tmp_path / "s")
        blob = bytes(range(256)) * 200
        with KVStore(path) as s:
            s.put("t", b"blob", blob)
        with KVStore(path) as s:
            assert s.get("t", b"blob") == blob

    def test_auto_checkpoint_triggers(self, tmp_path):
        s = KVStore(str(tmp_path / "s"), auto_checkpoint_ops=10)
        for i in range(25):
            s.put("t", str(i).encode(), b"v")
        assert s.checkpoint_id >= 2
        s.close()

    def test_random_workload_vs_model(self, tmp_path):
        path = str(tmp_path / "s")
        rng = random.Random(99)
        model = {}
        s = KVStore(path, auto_checkpoint_ops=100)
        for step in range(1500):
            key = str(rng.randrange(300)).encode()
            if rng.random() < 0.3 and model:
                victim = rng.choice(sorted(model))
                s.delete("t", victim)
                model.pop(victim)
            else:
                value = bytes([rng.randrange(256)]) * rng.randrange(0, 1500)
                s.put("t", key, value)
                model[key] = value
            if step % 500 == 250:
                s.close()
                s = KVStore(path, auto_checkpoint_ops=100)
        s.close()
        with KVStore(path) as s:
            assert dict(s.items("t")) == model


class TestConcurrency:
    def test_parallel_writers(self, tmp_path):
        s = KVStore(str(tmp_path / "s"), auto_checkpoint_ops=0)
        errors = []

        def writer(worker):
            try:
                for i in range(50):
                    with s.begin() as txn:
                        txn.put("t", f"w{worker}-{i:03d}".encode(), b"v")
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(w,)) for w in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert s.count("t") == 200
        s.close()

    def test_readers_during_writes(self, tmp_path):
        s = KVStore(str(tmp_path / "s"))
        for i in range(100):
            s.put("t", f"{i:03d}".encode(), b"v")
        stop = threading.Event()
        errors = []

        def reader():
            while not stop.is_set():
                try:
                    items = s.items("t")
                    assert len(items) >= 100
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)
                    return

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for t in threads:
            t.start()
        for i in range(100, 200):
            s.put("t", f"{i:03d}".encode(), b"v")
        stop.set()
        for t in threads:
            t.join()
        assert not errors
        s.close()


class TestFailedStoreClose:
    def test_failed_store_close_never_syncs_wal(self, tmp_path):
        import errno

        from repro.faults import Fault, FaultKind, FaultyFilesystem
        from repro.storage import StorageError

        ffs = FaultyFilesystem()
        s = KVStore(
            str(tmp_path / "s"), sync_policy="none",
            auto_checkpoint_ops=0, fs=ffs,
        )
        s.put("t", b"k", b"v")
        # ENOSPC on the next I/O operation: the checkpoint fails on its
        # first page write, latching the store into the failed state
        # without breaking the WAL itself.
        ffs.plan.add(Fault(FaultKind.ERROR, ffs.op_count, errno=errno.ENOSPC))
        with pytest.raises(StorageError):
            s.checkpoint()
        assert s.failed
        synced_before = len(ffs.fsync_log)
        s.close()
        assert len(ffs.fsync_log) == synced_before  # teardown made nothing durable


class TestAbsentKeyDelete:
    def test_absent_key_delete_stages_and_logs_nothing(self, tmp_path):
        s = KVStore(str(tmp_path / "s"), auto_checkpoint_ops=0)
        with s.begin() as txn:
            for i in range(3000):
                txn.put("t", b"k%05d" % i, b"v")
        s.checkpoint()
        wal_size, ops = s.wal_size, s.stats()["ops_since_checkpoint"]
        s.delete("t", b"absent-key")
        s.delete("never-written", b"k")
        assert s._pager.staged == set()
        assert (s.wal_size, s.stats()["ops_since_checkpoint"]) == (wal_size, ops)
        # A transaction logs its real writes and drops the absent delete.
        with s.begin() as txn:
            txn.delete("t", b"absent-key")
            txn.delete("t", b"k00007")
        assert s.wal_size > wal_size
        assert s.stats()["ops_since_checkpoint"] == ops + 1
        s.close(checkpoint=False)
        with KVStore(str(tmp_path / "s")) as reopened:
            assert reopened.last_recovery.operations_applied == 1
            assert reopened.get("t", b"k00007") is None
            assert reopened.count("t") == 2999


class TestOnDiskFormat:
    # Pinned digests of the files a fixed workload leaves behind.  They
    # change only with a deliberate change to the page, node, free-list
    # or WAL format (or to when pages are allocated and written); an
    # optimisation of the write path must leave every byte as it is.
    DATA_SHA256 = "838fa13db236d39411c9bb78b3fa787f5cdd1853c630900aa4aabb7a089c7b21"
    WAL_SHA256 = "8d4dcf89587267b4f9b0985ecce046f5ee8b0f98aa058b72a2835e9628e2521d"

    def test_seeded_workload_bytes_are_pinned(self, tmp_path):
        import hashlib

        path = str(tmp_path / "s")
        rng = random.Random(26)
        model = {name: {} for name in ("a", "b", "c")}
        s = KVStore(path, auto_checkpoint_ops=700)
        for _ in range(2400):
            name = rng.choice("abc")
            key = f"{rng.randrange(400):05d}".encode()
            if rng.random() < 0.25 and model[name]:
                victim = rng.choice(sorted(model[name]))
                s.delete(name, victim)
                del model[name][victim]
                continue
            if rng.random() < 0.1:  # mostly past the inline limit: overflow chain
                value = bytes([rng.randrange(256)]) * rng.randrange(600, 9000)
            else:
                value = bytes(rng.randrange(256) for _ in range(rng.randrange(300)))
            if rng.random() < 0.2:  # a multi-tree transaction
                other = rng.choice("abc")
                with s.begin() as txn:
                    txn.put(name, key, value)
                    txn.put(other, key, value[::-1])
                model[name][key] = value
                model[other][key] = value[::-1]  # the later put wins
            else:
                s.put(name, key, value)
                model[name][key] = value
        assert s.checkpoint_id >= 3
        wal_name = f"wal.{s.wal_seq:08d}"
        s.close(checkpoint=False)

        def digest(name):
            with open(f"{path}/{name}", "rb") as fh:
                return hashlib.sha256(fh.read()).hexdigest()

        assert (digest("data.db"), digest(wal_name)) == (
            self.DATA_SHA256,
            self.WAL_SHA256,
        )
        with KVStore(path) as reopened:
            for name, expected in model.items():
                assert dict(reopened.items(name)) == expected

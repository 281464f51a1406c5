"""Tests for the copy-on-write B-tree."""

import random
import struct

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.storage.btree import BTree, MAX_KEY_SIZE
from repro.storage.errors import KeyTooLargeError
from repro.storage.pager import Pager


@pytest.fixture()
def tree(tmp_path):
    pager = Pager(str(tmp_path / "data.db"))
    t = BTree(pager)
    t.begin_epoch(1)
    yield t
    pager.close()


class TestBasicOps:
    def test_get_missing(self, tree):
        assert tree.get(b"nope") is None
        assert b"nope" not in tree

    def test_put_get(self, tree):
        tree.put(b"key", b"value")
        assert tree.get(b"key") == b"value"
        assert b"key" in tree

    def test_overwrite(self, tree):
        tree.put(b"k", b"v1")
        tree.put(b"k", b"v2")
        assert tree.get(b"k") == b"v2"
        assert len(tree) == 1

    def test_delete(self, tree):
        tree.put(b"k", b"v")
        assert tree.delete(b"k") is True
        assert tree.get(b"k") is None
        assert tree.delete(b"k") is False

    def test_delete_from_empty(self, tree):
        assert tree.delete(b"x") is False

    def test_empty_value(self, tree):
        tree.put(b"k", b"")
        assert tree.get(b"k") == b""

    def test_type_checks(self, tree):
        with pytest.raises(TypeError):
            tree.put("str", b"v")
        with pytest.raises(TypeError):
            tree.put(b"k", "str")

    def test_key_too_large(self, tree):
        with pytest.raises(KeyTooLargeError):
            tree.put(b"x" * (MAX_KEY_SIZE + 1), b"v")

    def test_large_value_overflow_chain(self, tree):
        value = bytes(range(256)) * 100  # 25.6 KB, spans several pages
        tree.put(b"big", value)
        assert tree.get(b"big") == value

    def test_overwrite_large_with_small(self, tree):
        tree.put(b"k", b"x" * 20000)
        tree.put(b"k", b"small")
        assert tree.get(b"k") == b"small"


class TestManyKeys:
    def test_thousand_sequential(self, tree):
        for i in range(1000):
            tree.put(f"{i:06d}".encode(), f"value-{i}".encode())
        for i in range(0, 1000, 97):
            assert tree.get(f"{i:06d}".encode()) == f"value-{i}".encode()
        assert len(tree) == 1000

    def test_thousand_random_order(self, tree):
        keys = [f"{i:06d}".encode() for i in range(1000)]
        random.Random(7).shuffle(keys)
        for key in keys:
            tree.put(key, key[::-1])
        assert len(tree) == 1000
        got = [k for k, _ in tree.items()]
        assert got == sorted(keys)

    def test_iteration_sorted(self, tree):
        rng = random.Random(1)
        inserted = set()
        for _ in range(500):
            key = str(rng.randrange(10_000)).encode()
            tree.put(key, b"v")
            inserted.add(key)
        keys = [k for k, _ in tree.items()]
        assert keys == sorted(inserted)

    def test_delete_half(self, tree):
        for i in range(600):
            tree.put(f"{i:05d}".encode(), str(i).encode())
        for i in range(0, 600, 2):
            assert tree.delete(f"{i:05d}".encode())
        assert len(tree) == 300
        for i in range(600):
            expected = None if i % 2 == 0 else str(i).encode()
            assert tree.get(f"{i:05d}".encode()) == expected

    def test_delete_all_returns_empty_root(self, tree):
        for i in range(300):
            tree.put(f"{i:05d}".encode(), b"v")
        for i in range(300):
            assert tree.delete(f"{i:05d}".encode())
        assert tree.root == -1
        assert list(tree.items()) == []
        # Tree is reusable after total deletion.
        tree.put(b"again", b"v")
        assert tree.get(b"again") == b"v"


    def test_cached_sizes_through_splits_and_merges(self, tmp_path):
        """Seeded churn on small pages, deep enough to split, borrow and
        merge internal nodes: every cached node size stays exact."""
        pager = Pager(str(tmp_path / "d.db"), page_size=512)
        tree = BTree(pager)
        tree.begin_epoch(1)
        rng = random.Random(5)
        for step in range(3000):
            n = rng.randrange(900)
            # Uneven key lengths make siblings uneven enough to borrow.
            key = f"{n:05d}".encode() + b"." * (n * 7919 % 150)
            if rng.random() < (0.3 if step < 2000 else 0.8):
                tree.delete(key)
            else:
                tree.put(key, bytes(rng.randrange(60)))
            _assert_sizes_cached(tree)
        pager.close()


class TestRangeScans:
    def _fill(self, tree):
        for i in range(100):
            tree.put(f"k{i:04d}".encode(), str(i).encode())

    def test_start_bound(self, tree):
        self._fill(tree)
        keys = [k for k, _ in tree.items(start=b"k0050")]
        assert keys[0] == b"k0050"
        assert len(keys) == 50

    def test_end_bound_exclusive(self, tree):
        self._fill(tree)
        keys = [k for k, _ in tree.items(end=b"k0010")]
        assert keys == [f"k{i:04d}".encode() for i in range(10)]

    def test_start_end_window(self, tree):
        self._fill(tree)
        keys = [k for k, _ in tree.items(start=b"k0020", end=b"k0030")]
        assert keys == [f"k{i:04d}".encode() for i in range(20, 30)]

    def test_prefix_scan(self, tree):
        tree.put(b"a:1", b"x")
        tree.put(b"a:2", b"y")
        tree.put(b"b:1", b"z")
        keys = [k for k, _ in tree.items(prefix=b"a:")]
        assert keys == [b"a:1", b"a:2"]

    def test_prefix_with_0xff(self, tree):
        tree.put(b"a\xff1", b"x")
        tree.put(b"a\xff2", b"y")
        tree.put(b"b", b"z")
        keys = [k for k, _ in tree.items(prefix=b"a\xff")]
        assert keys == [b"a\xff1", b"a\xff2"]


class TestPersistence:
    def test_reopen_from_root(self, tmp_path):
        path = str(tmp_path / "d.db")
        pager = Pager(path)
        tree = BTree(pager)
        tree.begin_epoch(1)
        for i in range(200):
            tree.put(f"{i:04d}".encode(), str(i * i).encode())
        pager.commit_checkpoint(catalog_root=tree.root, wal_seq=0)
        root = tree.root
        pager.close()

        pager2 = Pager(path)
        tree2 = BTree(pager2, root=pager2.meta.catalog_root)
        tree2.begin_epoch(pager2.meta.checkpoint_id + 1)
        assert pager2.meta.catalog_root == root
        for i in range(0, 200, 13):
            assert tree2.get(f"{i:04d}".encode()) == str(i * i).encode()
        pager2.close()

    def test_cow_preserves_old_checkpoint_until_commit(self, tmp_path):
        """Updates in a new epoch must not disturb the pages reachable
        from the durable root (crash = reopen sees old state)."""
        path = str(tmp_path / "d.db")
        pager = Pager(path)
        tree = BTree(pager)
        tree.begin_epoch(1)
        for i in range(100):
            tree.put(f"{i:04d}".encode(), b"old")
        pager.commit_checkpoint(catalog_root=tree.root, wal_seq=0)
        # New epoch: overwrite everything but do NOT checkpoint.
        tree.begin_epoch(2)
        for i in range(100):
            tree.put(f"{i:04d}".encode(), b"new")
        pager.flush_pages(set(pager.staged))  # even flushing data pages is safe
        pager.close()

        pager2 = Pager(path)
        tree2 = BTree(pager2, root=pager2.meta.catalog_root)
        for i in range(0, 100, 7):
            assert tree2.get(f"{i:04d}".encode()) == b"old"
        pager2.close()

    def test_shadow_after_uncheckpointed_epoch_keeps_old_page(self, tmp_path):
        """A node staged in one epoch and shadowed in the next, with no
        checkpoint between: its old page keeps the old contents."""
        path = str(tmp_path / "d.db")
        pager = Pager(path)
        tree = BTree(pager)
        tree.begin_epoch(1)
        tree.put(b"a", b"1")
        old_root = tree.root
        tree.begin_epoch(2)  # no checkpoint
        tree.put(b"b", b"2")
        assert tree.root != old_root
        old = tree._deserialize(old_root, pager.read_page(old_root))
        assert old.keys == [b"a"]
        new = tree._deserialize(tree.root, pager.read_page(tree.root))
        assert new.keys == [b"a", b"b"]
        pager.flush_pages(set(pager.staged))
        pager.close()

        pager2 = Pager(path)  # no meta flip: read the flushed pages raw
        tree2 = BTree(pager2)
        assert tree2._deserialize(old_root, pager2.read_page(old_root)).keys == [b"a"]
        pager2.close()


class TestQuarterPageValues:
    def test_inline_up_to_a_quarter_page(self, tree):
        limit = tree.pager.max_payload // 4
        tree.put(b"inline", b"i" * limit)
        tree.put(b"spilled", b"s" * (limit + 1))
        leaf = tree._load(tree.root)
        flags = {key: value[0] for key, value in zip(leaf.keys, leaf.values)}
        assert flags == {b"inline": 0, b"spilled": 1}
        assert tree.get(b"inline") == b"i" * limit
        assert tree.get(b"spilled") == b"s" * (limit + 1)

    def test_split_by_bytes_keeps_both_halves_on_a_page(self, tmp_path):
        """A leaf of three quarter-page values and nine tiny ones takes a
        fourth quarter-page value: a split by count would leave all four
        large entries on one page, past its capacity."""
        pager = Pager(str(tmp_path / "d.db"))
        tree = BTree(pager)
        tree.begin_epoch(1)
        big = b"v" * (pager.max_payload // 4)
        for key in (b"a0", b"a1", b"a2"):
            tree.put(key, big)
        for i in range(9):
            tree.put(b"b%d" % i, b"t")
        tree.put(b"a3", big)
        pager.commit_checkpoint(catalog_root=tree.root, wal_seq=0)  # serializes every page
        assert all(tree.get(k) == big for k in (b"a0", b"a1", b"a2", b"a3"))
        pager.close()

    def test_one_page_chain_freed_without_reading_it(self, tmp_path, monkeypatch):
        pager = Pager(str(tmp_path / "d.db"))
        tree = BTree(pager)
        tree.begin_epoch(1)
        tree.put(b"k", b"x" * 2000)
        pager.commit_checkpoint(catalog_root=tree.root, wal_seq=0)
        tree.begin_epoch(2)
        pager._cache.clear()
        read = []
        original = Pager.read_page
        monkeypatch.setattr(Pager, "read_page", lambda self, pid: read.append(pid) or original(self, pid))
        (encoded,) = tree._load(tree.root).values
        assert encoded[0] == 1  # an overflow reference
        (overflow_page,) = struct.unpack_from("<q", encoded, 1)
        read.clear()
        assert tree.delete(b"k")
        assert read == []
        assert overflow_page in pager.pending_free
        pager.close()


class TestAbsentKeyDelete:
    def test_delete_of_absent_key_stages_nothing(self, tmp_path):
        pager = Pager(str(tmp_path / "d.db"))
        tree = BTree(pager)
        tree.begin_epoch(1)
        for i in range(3000):
            tree.put(b"k%05d" % i, b"v")
        pager.commit_checkpoint(catalog_root=tree.root, wal_seq=0)
        tree.begin_epoch(2)
        root = tree.root
        assert tree.delete(b"absent-key") is False
        assert pager.staged == set() and pager.pending_free == []
        assert tree.root == root
        assert tree.delete(b"k01234") is True
        assert pager.staged
        pager.close()


class TestSerializationCount:
    def test_puts_serialize_nothing_until_checkpoint(self, tmp_path, monkeypatch):
        """Puts stage live nodes; the checkpoint serializes each staged
        page once (the eager path serialized ~4 nodes per put)."""
        from repro.storage import KVStore

        store = KVStore(str(tmp_path / "s"), auto_checkpoint_ops=0)
        for i in range(200):
            store.put("t", f"{i:05d}".encode(), b"seed")
        store.checkpoint()
        serialized = []
        original = BTree._serialize

        def counting(self, node):
            serialized.append(node.page_id)
            return original(self, node)

        flushed = set()
        original_flush = Pager.flush_pages

        def recording_flush(self, page_ids):
            flushed.update(page_ids)
            return original_flush(self, page_ids)

        monkeypatch.setattr(BTree, "_serialize", counting)
        monkeypatch.setattr(Pager, "flush_pages", recording_flush)
        rng = random.Random(3)
        for _ in range(1000):
            value = b"v" * rng.randrange(80)
            store.put("t", f"{rng.randrange(5000):05d}".encode(), value)
        assert serialized == []
        store.checkpoint()
        assert serialized
        assert len(serialized) == len(set(serialized))  # once per page
        assert set(serialized) <= flushed
        store.close()


def _assert_sizes_cached(tree):
    """Every in-memory node's cached size is its true serialized size
    (or -1, a recount the next size check performs)."""
    for node in tree._nodes.values():
        assert node.size in (-1, len(tree._serialize(node)))


def _checkpoint(pager, tree):
    pager.commit_checkpoint(catalog_root=tree.root, wal_seq=0)
    tree.begin_epoch(pager.meta.checkpoint_id + 1)


def _assert_reopens_to(path, model):
    """Checkpoint state on disk, read back by a fresh pager and tree."""
    pager = Pager(path)
    tree = BTree(pager, root=pager.meta.catalog_root)
    assert dict(tree.items()) == model
    _assert_sizes_cached(tree)
    pager.close()


def _run_against_model(tmp, ops, checkpoints):
    """Apply ``ops`` to a tree and a dict, committing a checkpoint before
    each op index in ``checkpoints``; the two must always agree."""
    path = str(tmp / "d.db")
    pager = Pager(path)
    tree = BTree(pager)
    tree.begin_epoch(1)
    model = {}
    for i, (op, key, value) in enumerate(ops):
        if i in checkpoints:
            _checkpoint(pager, tree)
        if op == "put":
            tree.put(key, value)
            model[key] = value
        else:
            assert tree.delete(key) == (key in model)
            model.pop(key, None)
        _assert_sizes_cached(tree)
    assert dict(tree.items()) == model
    assert [k for k, _ in tree.items()] == sorted(model)
    _checkpoint(pager, tree)
    pager.close()
    _assert_reopens_to(path, model)


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["put", "delete"]),
            st.integers(0, 120),
            st.binary(min_size=0, max_size=400),
        ),
        max_size=250,
    ),
    checkpoints=st.sets(st.integers(0, 249), max_size=4),
)
def test_property_btree_matches_dict(tmp_path_factory, ops, checkpoints):
    """Random op sequences: the tree must behave exactly like a dict,
    before and after checkpoints and across a reopen from disk."""
    ops = [(op, f"{n:05d}".encode(), value) for op, n, value in ops]
    _run_against_model(tmp_path_factory.mktemp("btree-prop"), ops, checkpoints)


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["put", "delete"]),
            st.binary(min_size=1, max_size=40),
            st.binary(min_size=0, max_size=600),
        ),
        max_size=150,
    ),
    checkpoints=st.sets(st.integers(0, 149), max_size=4),
)
def test_property_btree_binary_keys(tmp_path_factory, ops, checkpoints):
    """Raw binary keys (embedded NULs, 0xFF runs, non-UTF8): the tree
    must still behave exactly like a dict with bytewise ordering."""
    _run_against_model(tmp_path_factory.mktemp("btree-bin"), ops, checkpoints)

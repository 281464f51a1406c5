"""Out-of-core scans served by the thread pool.

The attached-pool path must return byte-identical ``[(owner, dist)]``
lists to the serial blocked heap scan — including under distance ties
(both sides break them by smallest scan position) and per-query
thresholds (masked inside the shard scans, before selection).
"""

import numpy as np
import pytest

from repro.core import ThreadFilterPool
from repro.metadata import MetadataManager
from repro.metadata.outofcore import OutOfCoreSketchStore

N_WORDS = 2


@pytest.fixture()
def store(tmp_path):
    manager = MetadataManager(str(tmp_path / "oocp"))
    store = OutOfCoreSketchStore(manager.store, N_WORDS, block_size=7)
    yield store
    manager.close()


def _fill(store, num_objects=25, segs=3, seed=0, dup_frac=0.4):
    rng = np.random.default_rng(seed)
    base = rng.integers(0, 2**64, size=(5, N_WORDS), dtype=np.uint64)
    for oid in range(num_objects):
        rows = rng.integers(0, 2**64, size=(segs, N_WORDS), dtype=np.uint64)
        for s in range(segs):
            if rng.random() < dup_frac:
                rows[s] = base[rng.integers(0, len(base))]  # force ties
        store.add_object(oid, rows)
    return rng


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 4, 500])
def test_pool_scan_identical_to_serial(store, workers, k):
    rng = _fill(store)
    queries = rng.integers(0, 2**64, size=(3, N_WORDS), dtype=np.uint64)
    for thresholds in (None, [40.0 * N_WORDS] * 3, [5.0, None, 0.0]):
        serial = store.scan_nearest_many(queries, k, thresholds)
        with ThreadFilterPool(num_workers=workers, shard_rows=6) as pool:
            store.attach_pool(pool)
            assert store.scan_nearest_many(queries, k, thresholds) == serial
            store.detach_pool()


def test_pool_reloads_on_insert(store):
    rng = _fill(store, num_objects=10)
    query = rng.integers(0, 2**64, size=N_WORDS, dtype=np.uint64)
    with ThreadFilterPool(num_workers=2) as pool:
        store.attach_pool(pool)
        store.scan_nearest(query, 5)
        first_epoch = pool.loaded_epoch
        store.add_object(
            99, rng.integers(0, 2**64, size=(3, N_WORDS), dtype=np.uint64)
        )
        via_pool = store.scan_nearest(query, 5)
        assert pool.loaded_epoch != first_epoch  # arena was re-streamed
        store.detach_pool()
    assert store.scan_nearest(query, 5) == via_pool


def test_dead_pool_falls_back_to_serial(store):
    rng = _fill(store, num_objects=8)
    query = rng.integers(0, 2**64, size=N_WORDS, dtype=np.uint64)
    serial = store.scan_nearest(query, 4)
    pool = ThreadFilterPool(num_workers=2)
    store.attach_pool(pool)
    pool.close()  # dies behind the store's back
    assert store.scan_nearest(query, 4) == serial
    assert store.detach_pool() is None  # dropped, not closed by us


def test_empty_table_stays_serial(store):
    query = np.zeros(N_WORDS, dtype=np.uint64)
    with ThreadFilterPool(num_workers=2) as pool:
        store.attach_pool(pool)
        assert store.scan_nearest(query, 3) == []
        assert pool.loaded_epoch is None  # nothing to load

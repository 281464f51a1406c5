"""Tests for the out-of-core sketch store and searcher."""

import numpy as np
import pytest

from repro.core import (
    DataTypePlugin,
    EMDDistance,
    FeatureMeta,
    FilterParams,
    ObjectSignature,
    SearchMethod,
    SimilaritySearchEngine,
    SketchConstructor,
    SketchParams,
)
from repro.metadata import MetadataManager
from repro.metadata.outofcore import OutOfCoreSketchStore, OutOfCoreSearcher


@pytest.fixture()
def setup(tmp_path):
    meta = FeatureMeta(8, np.zeros(8), np.ones(8))
    sketcher = SketchConstructor(SketchParams(256, meta, seed=1))
    manager = MetadataManager(str(tmp_path / "ooc"))
    store = OutOfCoreSketchStore(manager.store, sketcher.n_words, block_size=17)
    searcher = OutOfCoreSearcher(
        manager, store, sketcher, EMDDistance(),
        FilterParams(num_query_segments=3, candidates_per_segment=15),
    )
    yield meta, sketcher, manager, store, searcher
    manager.close()


def _fill(searcher, count=60, seed=0):
    rng = np.random.default_rng(seed)
    signatures = []
    for i in range(count):
        sig = ObjectSignature(rng.random((3, 8)), rng.random(3) + 0.1)
        searcher.insert(i, sig)
        signatures.append(sig)
    return signatures


class TestSketchStore:
    def test_segment_count(self, setup):
        _meta, sketcher, _manager, store, searcher = setup
        _fill(searcher, 10)
        assert store.num_segments() == 30

    def test_blocks_bounded_and_complete(self, setup):
        _meta, _sketcher, _manager, store, searcher = setup
        _fill(searcher, 20)  # 60 segments, block_size=17
        total = 0
        block_count = 0
        for owners, matrix in store.iter_blocks():
            assert len(owners) <= 17
            assert matrix.shape == (len(owners), store.n_words)
            total += len(owners)
            block_count += 1
        assert total == 60
        assert block_count == 4  # 17+17+17+9

    def test_blocks_in_owner_order(self, setup):
        _meta, _sketcher, _manager, store, searcher = setup
        _fill(searcher, 15)
        seen = []
        for owners, _matrix in store.iter_blocks():
            seen.extend(owners.tolist())
        assert seen == sorted(seen)

    def test_wrong_width_rejected(self, setup):
        _meta, _sketcher, _manager, store, _searcher = setup
        with pytest.raises(ValueError):
            store.add_object(0, np.zeros((1, store.n_words + 1), np.uint64))

    def test_bad_block_size(self, setup):
        _meta, _sketcher, manager, _store, _searcher = setup
        with pytest.raises(ValueError):
            OutOfCoreSketchStore(manager.store, 4, block_size=0)

    def test_scan_nearest_matches_exhaustive(self, setup):
        _meta, sketcher, _manager, store, searcher = setup
        signatures = _fill(searcher, 30, seed=3)
        query_sketch = sketcher.sketch(signatures[5].features[0])
        nearest = store.scan_nearest(query_sketch, k=5)
        assert len(nearest) == 5
        # the query's own segment (distance 0) must be found
        assert any(owner == 5 and dist == 0 for owner, dist in nearest)
        # distances are the true minimum: no excluded segment is closer
        max_kept = max(dist for _o, dist in nearest)
        from repro.core.bitvector import hamming_to_many

        all_dists = []
        for owners, matrix in store.iter_blocks():
            all_dists.extend(hamming_to_many(query_sketch, matrix).tolist())
        assert sorted(all_dists)[4] >= max_kept or sorted(all_dists)[4] == max_kept

    def test_scan_nearest_many_matches_single_scans(self, setup):
        """One fused table pass must return exactly what per-query
        scan_nearest calls return (including tie-breaking)."""
        _meta, sketcher, _manager, store, searcher = setup
        signatures = _fill(searcher, 25, seed=5)
        queries = np.stack(
            [sketcher.sketch(signatures[i].features[0]) for i in (0, 7, 19)]
        )
        fused = store.scan_nearest_many(queries, k=6, thresholds=None)
        assert len(fused) == 3
        for qi in range(3):
            assert fused[qi] == store.scan_nearest(queries[qi], k=6)
        with_thr = store.scan_nearest_many(queries, k=6, thresholds=[40] * 3)
        for qi in range(3):
            assert with_thr[qi] == store.scan_nearest(
                queries[qi], k=6, threshold=40
            )

    @pytest.mark.parametrize("k", [1, 5, 16, 17, 18, 34, 40, 200])
    def test_ties_at_the_kth_distance_across_a_block_edge(self, setup, k):
        """Rows drawn from three sketches tie at every distance, and the
        ties straddle the 17-row block edges: the kept set is the one
        ``select_k_smallest`` takes over the whole table by (distance,
        scan position)."""
        from repro.core.bitvector import hamming_many_to_many
        from repro.core.filtering import select_k_smallest

        _meta, _sketcher, _manager, store, _searcher = setup
        rng = np.random.default_rng(7)
        pool = rng.integers(0, 2**63, size=(3, store.n_words), dtype=np.uint64)
        for object_id in range(20):  # 60 rows, blocks of 17+17+17+9
            store.add_object(object_id, pool[rng.integers(0, 3, size=3)])
        queries = np.stack([pool[0], pool[1] ^ np.uint64(1)])
        owners = np.concatenate([o for o, _ in store.iter_blocks()])
        table = np.concatenate([m for _, m in store.iter_blocks()])
        all_dists = hamming_many_to_many(queries, table)
        cols = select_k_smallest(all_dists, k)
        for thresholds in (None, [0, 40]):
            got = store.scan_nearest_many(queries, k, thresholds)
            for qi in range(2):
                want = sorted(
                    (int(owners[c]), int(all_dists[qi, c]))
                    for c in cols[qi]
                    if thresholds is None or all_dists[qi, c] <= thresholds[qi]
                )
                assert got[qi] == want

    def test_scan_nearest_many_threshold_count_mismatch(self, setup):
        _meta, sketcher, _manager, store, searcher = setup
        _fill(searcher, 5)
        queries = np.zeros((2, store.n_words), np.uint64)
        with pytest.raises(ValueError):
            store.scan_nearest_many(queries, k=3, thresholds=[1.0])

    def test_scan_nearest_threshold(self, setup):
        _meta, sketcher, _manager, store, searcher = setup
        signatures = _fill(searcher, 20, seed=4)
        query_sketch = sketcher.sketch(signatures[0].features[0])
        tight = store.scan_nearest(query_sketch, k=50, threshold=10)
        assert all(dist <= 10 for _o, dist in tight)


class TestSearcherEquivalence:
    def test_matches_in_memory_engine(self, setup):
        """Out-of-core filtering must return the same ranked results as
        the in-memory engine given the same parameters and sketches."""
        meta, sketcher, manager, store, searcher = setup
        rng = np.random.default_rng(7)
        engine = SimilaritySearchEngine(
            DataTypePlugin("t", meta),
            SketchParams(256, meta, seed=1),
            FilterParams(num_query_segments=3, candidates_per_segment=15),
        )
        for i in range(50):
            sig = ObjectSignature(rng.random((3, 8)), rng.random(3) + 0.1)
            searcher.insert(i, sig)
            engine.insert(
                ObjectSignature(sig.features.copy(), sig.weights.copy(),
                                normalize=False)
            )
        query = manager.get_object(4)
        ooc = searcher.query(query, top_k=8, exclude_self=True)
        mem = engine.query_by_id(4, top_k=8, method=SearchMethod.FILTERING,
                                 exclude_self=True)
        assert [r.object_id for r in ooc] == [r.object_id for r in mem]
        for a, b in zip(ooc, mem):
            # metadata stores features as float32: small distance drift
            assert a.distance == pytest.approx(b.distance, rel=1e-4, abs=1e-5)

    def test_survives_reopen(self, tmp_path):
        meta = FeatureMeta(8, np.zeros(8), np.ones(8))
        sketcher = SketchConstructor(SketchParams(128, meta, seed=2))
        path = str(tmp_path / "persist")
        rng = np.random.default_rng(8)

        with MetadataManager(path) as manager:
            store = OutOfCoreSketchStore(manager.store, sketcher.n_words)
            searcher = OutOfCoreSearcher(manager, store, sketcher, EMDDistance())
            for i in range(25):
                searcher.insert(i, ObjectSignature(rng.random((2, 8)), [1, 1]))
            query = manager.get_object(3)
            before = [r.object_id for r in searcher.query(query, top_k=5)]

        with MetadataManager(path) as manager:
            store = OutOfCoreSketchStore(manager.store, sketcher.n_words)
            searcher = OutOfCoreSearcher(manager, store, sketcher, EMDDistance())
            query = manager.get_object(3)
            after = [r.object_id for r in searcher.query(query, top_k=5)]
        assert before == after

    def test_empty_store_query(self, setup):
        _meta, _sketcher, _manager, _store, searcher = setup
        query = ObjectSignature(np.random.rand(2, 8), [1, 1])
        assert searcher.query(query) == []

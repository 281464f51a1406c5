"""Tests for the filtering unit and segment store."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    FeatureMeta,
    FilterParams,
    ObjectSignature,
    SegmentStore,
    SketchConstructor,
    SketchParams,
    sketch_filter,
    sketch_filter_many,
    sketch_filter_reference,
)
from repro.core.filtering import default_threshold_fn, select_k_smallest


def _setup(num_objects=30, segs=3, dim=6, n_bits=256, seed=0):
    meta = FeatureMeta(dim, np.zeros(dim), np.ones(dim))
    sk = SketchConstructor(SketchParams(n_bits, meta, seed=seed))
    store = SegmentStore(sk.n_words, n_bits=n_bits)
    rng = np.random.default_rng(seed)
    objects = {}
    for oid in range(num_objects):
        feats = rng.random((segs, dim))
        obj = ObjectSignature(feats, rng.random(segs) + 0.1, object_id=oid)
        store.add_object(oid, sk.sketch_many(feats))
        objects[oid] = obj
    return meta, sk, store, objects, rng


class TestFilterParams:
    def test_defaults_valid(self):
        FilterParams()

    @pytest.mark.parametrize("kwargs", [
        {"num_query_segments": 0},
        {"candidates_per_segment": 0},
        {"threshold_fraction": 0.0},
        {"threshold_fraction": 1.5},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FilterParams(**kwargs)

    def test_from_dict_missing_keys_mean_defaults(self):
        """An omitted field takes its default; the threshold stays on."""
        params = FilterParams(num_query_segments=4)
        assert params == FilterParams()
        assert params.threshold_fraction == 0.5
        assert params.cache_key() == FilterParams().cache_key()

    def test_from_dict_explicit_none_disables_threshold(self):
        """Only an explicit ``None`` turns the threshold off, and the
        unthresholded scan keeps every candidate the thresholded one does."""
        params = FilterParams(threshold_fraction=None)
        assert params.threshold_fraction is None
        assert params.cache_key() != FilterParams().cache_key()
        _meta, sk, store, objects, _rng = _setup(num_objects=60)
        q = objects[3]
        q_sk = sk.sketch_many(q.features)
        kwargs = dict(num_query_segments=3, candidates_per_segment=10)
        tight = sketch_filter(
            q, q_sk, store, FilterParams(threshold_fraction=0.05, **kwargs),
            sk.n_bits,
        )
        unthresholded = sketch_filter(
            q, q_sk, store, FilterParams(threshold_fraction=None, **kwargs),
            sk.n_bits,
        )
        assert tight <= unthresholded
        assert len(unthresholded) > len(tight)

    def test_threshold_fn_decreasing(self):
        assert default_threshold_fn(0.0) > default_threshold_fn(0.5) > default_threshold_fn(1.0)

    def test_threshold_fn_clamps(self):
        assert default_threshold_fn(-1.0) == default_threshold_fn(0.0)
        assert default_threshold_fn(2.0) == default_threshold_fn(1.0)


class TestSegmentStore:
    def test_append_and_consolidate(self):
        _meta, sk, store, _objs, _rng = _setup(num_objects=5)
        assert len(store) == 15
        assert store.sketches.shape == (15, sk.n_words)
        assert set(store.owners.tolist()) == set(range(5))

    def test_incremental_adds_after_scan(self):
        meta, sk, store, _objs, rng = _setup(num_objects=3)
        _ = store.sketches  # force consolidation
        feats = rng.random((2, 6))
        store.add_object(99, sk.sketch_many(feats))
        assert len(store) == 11
        assert 99 in store.owners

    def test_sketch_bytes(self):
        _meta, sk, store, _objs, _rng = _setup(num_objects=4, n_bits=128)
        assert store.sketch_bytes == len(store) * sk.n_words * 8

    def test_wrong_word_count_rejected(self):
        store = SegmentStore(n_words=2)
        with pytest.raises(ValueError):
            store.add_object(0, np.zeros((1, 3), np.uint64))

    def test_zero_row_sketches_rejected(self):
        """An object with no segment rows would be invisible to every
        filter scan; the store must refuse it outright."""
        store = SegmentStore(n_words=1)
        with pytest.raises(ValueError, match="no segment sketches"):
            store.add_object(0, np.empty((0, 1), np.uint64))
        assert len(store) == 0

    def test_featureless_store(self):
        """The arena holds sketches and owners only."""
        store = SegmentStore(n_words=1)
        store.add_object(0, np.zeros((2, 1), np.uint64))
        assert len(store) == 2
        assert not hasattr(store, "features")
        with pytest.raises(TypeError):
            store.add_object(1, np.zeros((1, 1), np.uint64), np.zeros((1, 4)))


class TestSketchFilter:
    def test_empty_store(self):
        meta = FeatureMeta(4, np.zeros(4), np.ones(4))
        sk = SketchConstructor(SketchParams(64, meta, seed=1))
        store = SegmentStore(sk.n_words, n_bits=sk.n_bits)
        q = ObjectSignature(np.ones((1, 4)) * 0.5, [1.0])
        out = sketch_filter(q, sk.sketch_many(q.features), store, FilterParams(), 64)
        assert out == set()

    def test_exact_duplicate_always_retained(self):
        _meta, sk, store, objects, _rng = _setup()
        q = objects[7]
        candidates = sketch_filter(
            q, sk.sketch_many(q.features), store,
            FilterParams(num_query_segments=3, candidates_per_segment=5),
            sk.n_bits,
        )
        assert 7 in candidates

    def test_candidate_set_smaller_than_universe(self):
        _meta, sk, store, objects, _rng = _setup(num_objects=100)
        q = objects[0]
        candidates = sketch_filter(
            q, sk.sketch_many(q.features), store,
            FilterParams(num_query_segments=2, candidates_per_segment=10,
                         threshold_fraction=0.3),
            sk.n_bits,
        )
        assert 0 < len(candidates) < 100

    def test_larger_k_grows_candidates(self):
        _meta, sk, store, objects, _rng = _setup(num_objects=80)
        q = objects[0]
        sizes = []
        for k in (5, 20, 60):
            candidates = sketch_filter(
                q, sk.sketch_many(q.features), store,
                FilterParams(num_query_segments=2, candidates_per_segment=k,
                             threshold_fraction=None),
                sk.n_bits,
            )
            sizes.append(len(candidates))
        assert sizes[0] <= sizes[1] <= sizes[2]

    def test_tight_threshold_shrinks_candidates(self):
        _meta, sk, store, objects, _rng = _setup(num_objects=80)
        q = objects[0]
        loose = sketch_filter(
            q, sk.sketch_many(q.features), store,
            FilterParams(candidates_per_segment=80, threshold_fraction=0.9),
            sk.n_bits,
        )
        tight = sketch_filter(
            q, sk.sketch_many(q.features), store,
            FilterParams(candidates_per_segment=80, threshold_fraction=0.05),
            sk.n_bits,
        )
        assert tight <= loose

    def test_tombstones_do_not_occupy_knn_slots(self):
        """Dead segments (owner -1) must be excluded before argpartition:
        with k = number of live segments, every live owner is a candidate
        no matter how many close tombstoned rows remain in the store."""
        _meta, sk, store, objects, _rng = _setup(num_objects=20, segs=3)
        q = objects[7]
        # Tombstone 4 objects near the query in sketch space (12 of 60
        # rows — under the 25% compaction threshold, so the dead rows
        # physically stay and would win k-NN slots without the fix).
        for oid in (7, 8, 9, 10):
            store.remove_object(oid)
        alive_owners = {int(o) for o in store.owners if o >= 0}
        candidates = sketch_filter(
            q, sk.sketch_many(q.features), store,
            FilterParams(num_query_segments=3, candidates_per_segment=48,
                         threshold_fraction=None),
            sk.n_bits,
        )
        assert candidates == alive_owners

    def test_batched_matches_reference_with_tombstones(self):
        _meta, sk, store, objects, _rng = _setup(num_objects=40)
        for oid in (0, 1, 2, 3):
            store.remove_object(oid)
        for params in (
            FilterParams(num_query_segments=3, candidates_per_segment=9),
            FilterParams(num_query_segments=2, candidates_per_segment=30,
                         threshold_fraction=None),
            FilterParams(num_query_segments=1, candidates_per_segment=500,
                         threshold_fraction=0.2),
        ):
            for qid in (5, 17, 33):
                q = objects[qid]
                qs = sk.sketch_many(q.features)
                assert sketch_filter(q, qs, store, params, sk.n_bits) == \
                    sketch_filter_reference(q, qs, store, params, sk.n_bits)

    def test_filter_many_matches_single(self):
        _meta, sk, store, objects, _rng = _setup(num_objects=50)
        store.remove_object(4)
        params = FilterParams(num_query_segments=2, candidates_per_segment=12)
        queries = [objects[i] for i in (0, 9, 21, 33, 47)]
        sketches = [sk.sketch_many(q.features) for q in queries]
        batched = sketch_filter_many(queries, sketches, store, params, sk.n_bits)
        assert len(batched) == len(queries)
        for q, qs, got in zip(queries, sketches, batched):
            assert got == sketch_filter(q, qs, store, params, sk.n_bits)

    def test_filter_many_empty_inputs(self):
        meta = FeatureMeta(4, np.zeros(4), np.ones(4))
        sk = SketchConstructor(SketchParams(64, meta, seed=1))
        store = SegmentStore(sk.n_words, n_bits=sk.n_bits)
        assert sketch_filter_many([], [], store, FilterParams(), 64) == []
        q = ObjectSignature(np.ones((1, 4)) * 0.5, [1.0])
        out = sketch_filter_many(
            [q], [sk.sketch_many(q.features)], store, FilterParams(), 64
        )
        assert out == [set()]

    def test_filter_recall_on_near_duplicates(self):
        """Near-duplicates of the query object should survive filtering."""
        meta = FeatureMeta(6, np.zeros(6), np.ones(6))
        sk = SketchConstructor(SketchParams(256, meta, seed=2))
        store = SegmentStore(sk.n_words, n_bits=sk.n_bits)
        rng = np.random.default_rng(3)
        base = rng.random((3, 6))
        # objects 0-4: perturbed copies of base; 5-49: random
        for oid in range(50):
            feats = (
                np.clip(base + rng.normal(0, 0.02, base.shape), 0, 1)
                if oid < 5
                else rng.random((3, 6))
            )
            store.add_object(oid, sk.sketch_many(feats))
        q = ObjectSignature(base, np.ones(3))
        candidates = sketch_filter(
            q, sk.sketch_many(base), store,
            FilterParams(num_query_segments=3, candidates_per_segment=10),
            sk.n_bits,
        )
        assert {0, 1, 2, 3, 4} <= candidates


def _reference_select(row, k, id_row):
    """The contract, spelled out: the k smallest under (value, id)."""
    return set(np.lexsort((id_row, row))[:k].tolist())


_SENTINEL = np.iinfo(np.uint32).max


@st.composite
def select_problems(draw):
    """Distance rows and k at the edges of ``select_k_smallest``'s contract."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_rows = draw(st.integers(1, 4))
    total = draw(st.integers(1, 80))
    kind = draw(st.sampled_from(["spread", "few_levels", "all_equal", "masked"]))
    if kind == "spread":
        dists = rng.integers(0, 1000, size=(n_rows, total))
    elif kind == "all_equal":
        dists = np.full((n_rows, total), 7)
    else:
        dists = rng.integers(0, 3, size=(n_rows, total))
    if kind == "masked":  # tombstoned rows, as the scan masks them
        dists = dists.astype(np.uint32)
        dists[rng.random((n_rows, total)) < draw(st.floats(0.0, 1.0))] = _SENTINEL
    else:
        dists = dists.astype(draw(st.sampled_from([np.uint32, np.float64])))
    k = draw(st.sampled_from([1, total - 1, total, total + 3]))
    id_kind = draw(st.sampled_from(["none", "shared", "per_row"]))
    if id_kind == "none":
        ids, id_rows = None, [np.arange(total)] * n_rows
    elif id_kind == "shared":
        ids = rng.permutation(total) * 3 + 100
        id_rows = [ids] * n_rows
    else:  # per-row uint64 object ids, as the cluster merge passes them
        ids = np.stack([
            rng.choice(2**62, size=total, replace=False).astype(np.uint64) * 3
            for _ in range(n_rows)
        ])
        id_rows = list(ids)
    return dists, k, ids, id_rows


class TestSelectKSmallest:
    @pytest.mark.parametrize("dtype", [np.uint32, np.int64, np.float64])
    @pytest.mark.parametrize("id_shape", ["none", "shared", "per_row"])
    def test_tie_heavy_rows_select_the_contract_set(self, dtype, id_shape):
        # Three distinct values over 400 columns: the k-th value ties
        # dozens of times, so the id rule decides most of the boundary.
        rng = np.random.default_rng(3)
        n_rows, total, k = 5, 400, 37
        dists = rng.integers(0, 3, size=(n_rows, total)).astype(dtype)
        if id_shape == "none":
            ids, id_rows = None, [np.arange(total)] * n_rows
        elif id_shape == "shared":
            ids = rng.permutation(total) + 1000
            id_rows = [ids] * n_rows
        else:
            ids = np.stack([rng.permutation(total) * 7 for _ in range(n_rows)])
            id_rows = list(ids)
        got = select_k_smallest(dists, k, ids=ids)
        assert got.shape == (n_rows, k)
        for r in range(n_rows):
            assert set(got[r].tolist()) == _reference_select(
                dists[r], k, id_rows[r]
            )

    def test_integer_and_float_inputs_agree(self):
        rng = np.random.default_rng(4)
        hamming = rng.binomial(64, 0.5, size=(4, 3000)).astype(np.uint32)
        ids = np.stack([rng.permutation(3000) for _ in range(4)])
        for id_arg in (None, ids[0], ids):
            as_int = select_k_smallest(hamming, 32, ids=id_arg)
            as_float = select_k_smallest(
                hamming.astype(np.float64), 32, ids=id_arg
            )
            assert [set(r) for r in as_int.tolist()] == [
                set(r) for r in as_float.tolist()
            ]

    def test_masked_rows_at_dtype_max_lose_to_live_rows(self):
        # Tombstoned segments are masked to the dtype's maximum before
        # selection; they may only fill slots no live row can.
        dists = np.full((1, 50), np.iinfo(np.uint32).max, dtype=np.uint32)
        dists[0, [7, 11, 30]] = [5, 5, 2]
        assert set(select_k_smallest(dists, 3)[0].tolist()) == {7, 11, 30}
        assert set(select_k_smallest(dists, 5)[0].tolist()) == {0, 1, 7, 11, 30}

    def test_k_at_least_total_returns_every_column(self):
        dists = np.arange(6, dtype=np.uint32).reshape(2, 3)
        assert select_k_smallest(dists, 3).tolist() == [[0, 1, 2], [0, 1, 2]]

    @settings(max_examples=300, deadline=None)
    @given(select_problems())
    def test_matches_the_contract(self, problem):
        dists, k, ids, id_rows = problem
        got = select_k_smallest(dists, k, ids=ids)
        assert got.shape == (dists.shape[0], min(k, dists.shape[1]))
        for r in range(dists.shape[0]):
            chosen = got[r].tolist()
            assert len(set(chosen)) == len(chosen)
            assert set(chosen) == _reference_select(dists[r], k, id_rows[r])

    def test_k_zero_selects_nothing(self):
        dists = np.arange(12, dtype=np.uint32).reshape(3, 4)
        got = select_k_smallest(dists, 0)
        assert got.shape == (3, 0) and got.dtype == np.int64

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            select_k_smallest(np.arange(4, dtype=np.uint32), -1)

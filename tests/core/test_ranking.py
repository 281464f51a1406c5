"""Tests for the ranking unit."""

import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import ObjectSignature, SearchResult, rank_candidates, rank_candidates_many
from repro.core.distance import FirstSegmentL1, l1_distance


def _objects(rng, count, dim=4):
    return {
        i: ObjectSignature(rng.random((1, dim)), [1.0], object_id=i)
        for i in range(count)
    }


def _dist(a, b):
    return l1_distance(a.features[0], b.features[0])


class TestSearchResult:
    def test_ordering_by_distance(self):
        assert SearchResult(1.0, 5) < SearchResult(2.0, 1)

    def test_tie_broken_by_id(self):
        assert SearchResult(1.0, 1) < SearchResult(1.0, 2)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            SearchResult(1.0, 1).distance = 2.0


class TestRankCandidates:
    def test_sorted_ascending(self):
        rng = np.random.default_rng(0)
        objects = _objects(rng, 20)
        results = rank_candidates(objects[0], range(20), objects, _dist)
        dists = [r.distance for r in results]
        assert dists == sorted(dists)
        assert results[0].object_id == 0  # self-distance 0 ranks first

    def test_top_k_truncation(self):
        rng = np.random.default_rng(1)
        objects = _objects(rng, 20)
        results = rank_candidates(objects[0], range(20), objects, _dist, top_k=5)
        assert len(results) == 5

    def test_exclude_self(self):
        rng = np.random.default_rng(2)
        objects = _objects(rng, 10)
        results = rank_candidates(
            objects[3], range(10), objects, _dist, exclude_self=True
        )
        assert all(r.object_id != 3 for r in results)
        assert len(results) == 9

    def test_subset_of_candidates(self):
        rng = np.random.default_rng(3)
        objects = _objects(rng, 10)
        results = rank_candidates(objects[0], [2, 4, 6], objects, _dist)
        assert {r.object_id for r in results} == {2, 4, 6}

    def test_empty_candidates(self):
        rng = np.random.default_rng(4)
        objects = _objects(rng, 5)
        assert rank_candidates(objects[0], [], objects, _dist) == []

    def test_custom_distance_used(self):
        rng = np.random.default_rng(5)
        objects = _objects(rng, 5)
        results = rank_candidates(
            objects[0], range(5), objects, lambda a, b: float(b.object_id)
        )
        assert [r.object_id for r in results] == [0, 1, 2, 3, 4]

    def test_deterministic_under_ties(self):
        rng = np.random.default_rng(6)
        objects = _objects(rng, 8)
        constant = lambda a, b: 1.0
        r1 = rank_candidates(objects[0], range(8), objects, constant)
        r2 = rank_candidates(objects[0], reversed(range(8)), objects, constant)
        assert [r.object_id for r in r1] == [r.object_id for r in r2]

    def test_top_k_selection_matches_full_sort(self):
        # The k-smallest heap selection must be indistinguishable from
        # sort-then-truncate, including under distance ties.
        rng = np.random.default_rng(7)
        objects = _objects(rng, 50)
        tie_dist = lambda a, b: float(b.object_id % 5)
        for top_k in (0, 1, 5, 49, 50, 100):
            full = rank_candidates(objects[0], range(50), objects, tie_dist)
            cut = rank_candidates(
                objects[0], range(50), objects, tie_dist, top_k=top_k
            )
            assert cut == full[:top_k]


# ----------------------------------------------------------------------
# The stacked l1 pass: bit-identical to one call per candidate
# ----------------------------------------------------------------------
# Every dimension the l1_to_many / l1_distance bit-identity sweep covered.
L1_SWEEP_DIMS = (*range(1, 300), 511, 512, 513, 544, 1000, 1024, 4097)
TOP_K = {"none": lambda n: None, "one": lambda n: 1, "n": lambda n: n,
         "more": lambda n: n + 3}


def _pin_sweep_dims(test):
    for dim in L1_SWEEP_DIMS:
        test = example(seed=dim, dim=dim, n=24, n_distinct=6, exclude_self=True,
                       n_missing=2, top_k="n")(test)
    return test


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 600),
    n=st.integers(0, 200),
    n_distinct=st.integers(1, 12),
    exclude_self=st.booleans(),
    n_missing=st.integers(0, 3),
    top_k=st.sampled_from(sorted(TOP_K)),
)
@_pin_sweep_dims
def test_stacked_l1_rank_equals_pairwise(seed, dim, n, n_distinct, exclude_self,
                                         n_missing, top_k):
    """``rank_candidates_many`` ranks FirstSegmentL1 in one stacked pass;
    it must return ``rank_candidates``'s floats bit for bit and its
    order, with candidates drawn from a few distinct vectors so that
    distances tie and ids decide, the query among its own candidates,
    ids missing from the object map, and 1-3 segments per candidate."""
    rng = np.random.default_rng(seed)
    pool = rng.random((n_distinct, dim)) * rng.choice([1.0, 30.0, 1e6])
    objects = {}
    for oid in range(n):
        segs = rng.random((int(rng.integers(1, 4)), dim))
        segs[0] = pool[rng.integers(n_distinct)]
        objects[oid] = ObjectSignature(segs, np.ones(len(segs)), object_id=oid)
    query = ObjectSignature(
        pool[:1] + rng.random((1, dim)), [1.0], object_id=int(rng.integers(0, n + 1))
    )
    ids = [*objects, *range(n + 10, n + 10 + n_missing)]
    rng.shuffle(ids)
    k = TOP_K[top_k](n)
    distance = FirstSegmentL1()
    want = rank_candidates(query, ids, objects, distance, top_k=k, exclude_self=exclude_self)
    got, stats = rank_candidates_many(
        query, ids, objects, distance, top_k=k, exclude_self=exclude_self
    )
    assert [(r.distance.hex(), r.object_id) for r in got] == [
        (r.distance.hex(), r.object_id) for r in want
    ]
    considered = n - (exclude_self and query.object_id in objects)
    assert stats.exact_evals == stats.considered == considered


def test_rank_timing_splits_the_phase():
    """``bound_seconds`` (cost block, bounds, visit order) and
    ``solve_seconds`` (the visit) are both positive and together stay
    within the phase's wall time (``rank_topk`` times its bound and
    visit itself)."""
    from repro.datatypes.bulk import bulk_image_dataset
    from repro.datatypes.image import make_image_plugin

    plugin = make_image_plugin()
    objects = {o.object_id: o for o in bulk_image_dataset(120, seed=5)}
    for query_id in (0, 17, 63):
        started = time.perf_counter()
        results, stats = rank_candidates_many(
            objects[query_id], list(objects), objects, plugin.obj_distance,
            top_k=10, exclude_self=True,
        )
        wall = time.perf_counter() - started
        assert len(results) == 10
        assert stats.bound_seconds > 0.0 and stats.solve_seconds > 0.0
        assert stats.bound_seconds + stats.solve_seconds <= wall

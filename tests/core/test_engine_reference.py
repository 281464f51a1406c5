"""Property tests: the engine against a naive reference implementation.

The reference ranks with exact ``rank_candidates`` (one EMD call per
object, ``(distance, id)`` order), whose every distance is checked
against scipy's HiGHS optimum of the same transportation problem; the
engine must agree with it wherever exactness is promised (brute-force
ranking), and approximate it sensibly where sketches are involved.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from test_transport import scipy_transport_cost

from repro.core import (
    DataTypePlugin,
    EMDDistance,
    FeatureMeta,
    FilterParams,
    ObjectSignature,
    SearchMethod,
    SimilaritySearchEngine,
    SketchParams,
    rank_candidates,
)


def _reference_ranking(objects, query_id, top_k, exclude_self=True):
    """Exact ranking by EMD: the order and bits of ``rank_candidates``,
    each distance within 1e-9 of HiGHS's optimum over numpy l1 costs."""
    query = objects[query_id]
    ranked = rank_candidates(
        query, list(objects), objects, EMDDistance(),
        top_k=top_k, exclude_self=exclude_self,
    )
    for result in ranked:
        obj = objects[result.object_id]
        costs = np.abs(query.features[:, None, :] - obj.features[None, :, :]).sum(axis=2)
        demand = obj.weights * (query.weights.sum() / obj.weights.sum())
        optimum = scipy_transport_cost(query.weights, demand, costs)
        assert result.distance == pytest.approx(optimum, abs=1e-9)
    return ranked


def _build(seed, count, dim=6, max_segs=4):
    rng = np.random.default_rng(seed)
    meta = FeatureMeta(dim, np.zeros(dim), np.ones(dim))
    engine = SimilaritySearchEngine(
        DataTypePlugin("ref", meta),
        SketchParams(256, meta, seed=0),
        FilterParams(num_query_segments=4, candidates_per_segment=count),
    )
    objects = {}
    for _ in range(count):
        k = int(rng.integers(1, max_segs + 1))
        sig = ObjectSignature(rng.random((k, dim)), rng.random(k) + 0.1)
        oid = engine.insert(sig)
        objects[oid] = sig
    return engine, objects


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000), count=st.integers(5, 25))
def test_brute_force_matches_reference(seed, count):
    engine, objects = _build(seed, count)
    query_id = seed % count
    expected = _reference_ranking(objects, query_id, 5)
    got = engine.query_by_id(
        query_id, top_k=5, method=SearchMethod.BRUTE_FORCE_ORIGINAL,
        exclude_self=True,
    )
    assert got == expected


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_filtering_with_full_k_matches_reference(seed):
    """With k = all segments and no threshold, filtering keeps every
    object, so its ranking must equal the exact reference ranking."""
    engine, objects = _build(seed, count=15)
    engine.filter_params = FilterParams(
        num_query_segments=8, candidates_per_segment=10_000,
        threshold_fraction=None,
    )
    query_id = seed % 15
    expected = _reference_ranking(objects, query_id, 5)
    got = engine.query_by_id(
        query_id, top_k=5, method=SearchMethod.FILTERING, exclude_self=True
    )
    assert got == expected


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_result_distances_sorted_and_exact(seed):
    engine, objects = _build(seed, count=12)
    query_id = seed % 12
    reference = {
        r.object_id: r.distance
        for r in _reference_ranking(objects, query_id, None, exclude_self=False)
    }
    for method in (SearchMethod.BRUTE_FORCE_ORIGINAL, SearchMethod.FILTERING):
        results = engine.query_by_id(query_id, top_k=12, method=method)
        dists = [r.distance for r in results]
        assert dists == sorted(dists)
        for r in results:
            assert r.distance == reference[r.object_id]

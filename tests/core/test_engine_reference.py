"""Property tests: the engine against a naive reference implementation.

The reference computes object distances directly over a Python dict; the
engine must agree with it wherever exactness is promised (brute-force
ranking), and approximate it sensibly where sketches are involved.
The engine runs on both EMD kernels (compiled ``_emd.c`` and the Python /
numpy path); the reference always runs on Python.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import (
    DataTypePlugin,
    FeatureMeta,
    FilterParams,
    ObjectSignature,
    SearchMethod,
    SimilaritySearchEngine,
    SketchParams,
    emd,
)


RANK_KERNELS = ("python", "compiled")  # python first: a loop runs it before a skip


def _reference_ranking(objects, query_id, top_k, use_rank_kernel):
    """Naive exact ranking by EMD on the Python path, excluding the
    query itself."""
    query = objects[query_id]
    with use_rank_kernel("python"):
        scored = sorted(
            (emd(query, obj), oid)
            for oid, obj in objects.items()
            if oid != query_id
        )
    return [oid for _dist, oid in scored[:top_k]]


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
def test_brute_force_matches_reference(seed, count, use_rank_kernel):
    engine, objects = _build(seed, count)
    query_id = seed % count
    expected = _reference_ranking(objects, query_id, 5, use_rank_kernel)
    for kernel in RANK_KERNELS:
        with use_rank_kernel(kernel):
            got = [
                r.object_id
                for r in engine.query_by_id(
                    query_id, top_k=5, method=SearchMethod.BRUTE_FORCE_ORIGINAL,
                    exclude_self=True,
                )
            ]
        # Rankings must agree except where reference distances tie.
        ref_dists = {oid: emd(objects[query_id], objects[oid]) for oid in expected + got}
        for e, g in zip(expected, got):
            assert e == g or ref_dists[e] == pytest.approx(ref_dists[g], abs=1e-9)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_filtering_with_full_k_matches_reference(seed, use_rank_kernel):
    """With k = all segments and no threshold, filtering keeps every
    object, so its ranking must equal the exact reference ranking."""
    engine, objects = _build(seed, count=15)
    engine.filter_params = FilterParams(
        num_query_segments=8, candidates_per_segment=10_000,
        threshold_fraction=None,
    )
    query_id = seed % 15
    expected = _reference_ranking(objects, query_id, 5, use_rank_kernel)
    for kernel in RANK_KERNELS:
        with use_rank_kernel(kernel):
            got = [
                r.object_id
                for r in engine.query_by_id(
                    query_id, top_k=5, method=SearchMethod.FILTERING, exclude_self=True
                )
            ]
        ref_dists = {oid: emd(objects[query_id], objects[oid]) for oid in expected + got}
        for e, g in zip(expected, got):
            assert e == g or ref_dists[e] == pytest.approx(ref_dists[g], abs=1e-9)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_result_distances_sorted_and_exact(seed, use_rank_kernel):
    engine, objects = _build(seed, count=12)
    query_id = seed % 12
    with use_rank_kernel("python"):
        reference = {
            oid: emd(objects[query_id], obj) for oid, obj in objects.items()
        }
    for kernel in RANK_KERNELS:
        with use_rank_kernel(kernel):
            for method in (SearchMethod.BRUTE_FORCE_ORIGINAL, SearchMethod.FILTERING):
                results = engine.query_by_id(query_id, top_k=12, method=method)
                dists = [r.distance for r in results]
                assert dists == sorted(dists)
                for r in results:
                    # Both kernels give the reference's bits.
                    assert r.distance == reference[r.object_id]

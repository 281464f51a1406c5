"""Churn equivalence: serial and threaded scans agree, bit for bit.

After any interleaving of insert / remove / compact, an engine queried
on the calling thread answers identically to one queried from another
thread (the compiled top-k pass runs outside the GIL on the caller's
stack), and a cached answer never outlives the mutation that changed
it.  Hypothesis drives the interleavings.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    DataTypePlugin,
    FeatureMeta,
    ObjectSignature,
    ParallelConfig,
    SimilaritySearchEngine,
    SketchParams,
)

DIM = 6


def _make_engine(cache_entries=0):
    meta = FeatureMeta(DIM, np.zeros(DIM), np.ones(DIM))
    return SimilaritySearchEngine(
        DataTypePlugin("test", meta),
        sketch_params=SketchParams(64, meta, seed=1),
        parallel=ParallelConfig(cache_entries=cache_entries),
    )


def _signature(rng, segs):
    return ObjectSignature(rng.random((segs, DIM)), rng.random(segs) + 0.1)


def _answers(engine, probes):
    return [
        [(r.object_id, r.distance) for r in engine.query(sig, top_k=5)]
        for sig in probes
    ]


def _results(engine, probes, thread=False):
    """The engine's answers: on the calling thread, or (``thread``) from
    a helper thread."""
    if thread:
        with ThreadPoolExecutor(1) as helper:
            return helper.submit(_answers, engine, probes).result()
    return _answers(engine, probes)


def _apply(engines, op, rng_seed, next_id):
    """Apply one churn op to every engine identically; returns next_id."""
    kind, payload = op
    rng = np.random.default_rng(rng_seed)
    if kind == "insert":
        sig_data = _signature(rng, payload)
        for engine in engines:
            sig = ObjectSignature(
                sig_data.features.copy(),
                sig_data.weights.copy(),
                object_id=next_id,
            )
            engine.insert(sig)
        return next_id + 1
    if kind == "remove":
        live = sorted(engines[0]._objects)
        if live:
            victim = live[payload % len(live)]
            for engine in engines:
                engine.remove(victim)
        return next_id
    if kind == "compact":
        for engine in engines:
            engine._store.compact()
        return next_id
    raise AssertionError(kind)


# Ops: insert with 1-4 segments, remove an arbitrary live object,
# explicit compaction (row positions move).
_OP = st.one_of(
    st.tuples(st.just("insert"), st.integers(1, 4)),
    st.tuples(st.just("remove"), st.integers(0, 10_000)),
    st.tuples(st.just("compact"), st.just(0)),
)


class TestChurnInterleavings:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(ops=st.lists(_OP, min_size=1, max_size=12), seed=st.integers(0, 2**16))
    def test_serial_and_thread_stay_bit_identical(self, ops, seed):
        """The calling thread against a helper thread, each engine
        reading its own arena in place."""
        serial = _make_engine()
        threaded = _make_engine()
        try:
            engines = [serial, threaded]
            rng = np.random.default_rng(seed)
            next_id = 0
            for _ in range(4):
                next_id = _apply(engines, ("insert", 3), seed + next_id, next_id)
            probes = [_signature(rng, 3) for _ in range(2)]
            assert _results(serial, probes) == _results(threaded, probes, thread=True)
            for i, op in enumerate(ops):
                next_id = _apply(engines, op, seed + 1000 + i, next_id)
                # Query after *every* op: a mutation is visible to the
                # next scan with no refresh step.
                assert _results(serial, probes) == _results(
                    threaded, probes, thread=True
                )
        finally:
            serial.close()
            threaded.close()


class TestCacheEpochInvalidation:
    def test_cached_results_invalidate_across_churn(self):
        engine = _make_engine(cache_entries=32)
        rng = np.random.default_rng(9)
        try:
            next_id = 0
            for _ in range(6):
                next_id = _apply([engine], ("insert", 3), 9 + next_id, next_id)
            probe = _signature(rng, 3)
            first = _results(engine, [probe], thread=True)
            again = _results(engine, [probe], thread=True)
            assert first == again  # cache hit path
            # Mutations bump the epoch: the cache must not serve results
            # from before the insert/remove.
            next_id = _apply([engine], ("insert", 3), 500, next_id)
            fresh = _make_engine()
            try:
                # Rebuild the same object set serially.
                for oid, sig in sorted(engine._objects.items()):
                    fresh.insert(
                        ObjectSignature(
                            sig.features.copy(),
                            sig.weights.copy(),
                            object_id=oid,
                        )
                    )
                assert _results(engine, [probe], thread=True) == _results(fresh, [probe])
            finally:
                fresh.close()
        finally:
            engine.close()

"""Churn equivalence: serial == thread, bit for bit.

The delta-shipping pool refresh must be invisible to queries: after any
interleaving of insert / remove / compact, an engine whose pool was
refreshed incrementally answers queries identically to a serial engine
and to a pool loaded fresh from scratch.  Hypothesis drives the
interleavings.
"""

from __future__ import annotations

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


def _make_engine(backend, cache_entries=0):
    meta = FeatureMeta(DIM, np.zeros(DIM), np.ones(DIM))
    if backend == "serial":
        parallel = ParallelConfig(enabled=False, cache_entries=cache_entries)
    else:
        parallel = ParallelConfig(
            num_workers=2,
            min_segments=0,
            backend=backend,
            cache_entries=cache_entries,
        )
    return SimilaritySearchEngine(
        DataTypePlugin("test", meta),
        sketch_params=SketchParams(64, meta, seed=1),
        parallel=parallel,
    )


def _signature(rng, segs):
    return ObjectSignature(rng.random((segs, DIM)), rng.random(segs) + 0.1)


def _results(engine, probes):
    out = []
    for sig in probes:
        out.append(
            [(r.object_id, r.distance) for r in engine.query(sig, top_k=5)]
        )
    return out


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
# explicit compaction (journal reset + full-reload path).
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
        serial = _make_engine("serial")
        threaded = _make_engine("thread")
        try:
            engines = [serial, threaded]
            rng = np.random.default_rng(seed)
            next_id = 0
            # Warm base so the pool exists before the churn starts.
            for _ in range(4):
                next_id = _apply(engines, ("insert", 3), seed + next_id, next_id)
            probes = [_signature(rng, 3) for _ in range(2)]
            assert _results(serial, probes) == _results(threaded, probes)
            for i, op in enumerate(ops):
                next_id = _apply(engines, op, seed + 1000 + i, next_id)
                # Query after *every* op: each query forces a pool
                # refresh (delta where servable, full otherwise).
                assert _results(serial, probes) == _results(threaded, probes)
            info = threaded.parallel_info()
            assert not info["broken"]
        finally:
            serial.close()
            threaded.close()


class TestPoolDeltaRefresh:
    def test_delta_loads_actually_happen(self):
        """The equivalence above must come from the delta path, not from
        silent full reloads."""
        from repro.observability import metrics as _metrics

        engine = _make_engine("thread")
        try:
            rng = np.random.default_rng(3)
            next_id = 0
            for _ in range(5):
                next_id = _apply([engine], ("insert", 3), 3 + next_id, next_id)
            probe = [_signature(rng, 3)]
            _results(engine, probe)  # builds + fully loads the pool
            reg = _metrics.get_registry()
            full0 = reg.get("parallel.arena_loads").value
            delta0 = reg.get("arena.delta_loads").value
            for _ in range(4):
                next_id = _apply([engine], ("insert", 2), 900 + next_id, next_id)
                _results(engine, probe)
            assert reg.get("parallel.arena_loads").value == full0
            assert reg.get("arena.delta_loads").value == delta0 + 4
        finally:
            engine.close()


class TestCacheEpochInvalidation:
    def test_cached_results_invalidate_across_churn(self):
        engine = _make_engine("thread", cache_entries=32)
        rng = np.random.default_rng(9)
        try:
            next_id = 0
            for _ in range(6):
                next_id = _apply([engine], ("insert", 3), 9 + next_id, next_id)
            probe = _signature(rng, 3)
            first = _results(engine, [probe])
            again = _results(engine, [probe])
            assert first == again  # cache hit path
            # Mutations bump the epoch: the cache must not serve results
            # from before the insert/remove.
            next_id = _apply([engine], ("insert", 3), 500, next_id)
            fresh = _make_engine("serial")
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
                assert _results(engine, [probe]) == _results(fresh, [probe])
            finally:
                fresh.close()
        finally:
            engine.close()

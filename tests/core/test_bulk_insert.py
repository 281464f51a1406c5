"""Bulk insert: ``insert_many`` pages and bounded sketch blocks.

``insert_many`` appends a page of ``_LOAD_PAGE`` objects to the arena
at once and ``sketch_many`` sketches in blocks of about
``_SKETCH_BLOCK_BYTES`` of gather.  Neither may change a single bit of
what the engine holds or answers, and the blocks must keep the sketch
temporaries bounded however many rows one call sketches.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    DataTypePlugin,
    FeatureMeta,
    ObjectSignature,
    SimilaritySearchEngine,
    SketchConstructor,
    SketchParams,
)
from repro.core import engine as engine_module
from repro.core import sketch as sketch_module
from repro.core.bitvector import pack_bits

DIM = 6


def _engine():
    meta = FeatureMeta(DIM, np.zeros(DIM), np.ones(DIM))
    return SimilaritySearchEngine(
        DataTypePlugin("test", meta), sketch_params=SketchParams(64, meta, seed=3)
    )


@st.composite
def _batches(draw):
    """``(prefix, batch, seed, alias)``: two lists of ``(segments,
    explicit id or None)``, the prefix inserted one at a time before the
    batch, and maybe an ``(earlier, later)`` pair of batch positions
    that hold one signature object."""
    def objects(max_size):
        return st.lists(
            st.tuples(
                st.integers(1, 12),
                st.one_of(st.none(), st.integers(0, 40)),
            ),
            max_size=max_size,
        )

    batch = draw(objects(10))
    alias = None
    if len(batch) >= 2 and draw(st.booleans()):
        later = draw(st.integers(1, len(batch) - 1))
        alias = (draw(st.integers(0, later - 1)), later)
    return draw(objects(4)), batch, draw(st.integers(0, 2**31)), alias


def _signatures(spec, rng):
    return [
        (rng.random((segs, DIM)), rng.random(segs) + 0.1, oid)
        for segs, oid in spec
    ]


def _build(raw, alias=None):
    sigs = [ObjectSignature(f, w, object_id=oid) for f, w, oid in raw]
    if alias is not None:
        earlier, later = alias
        sigs[later] = sigs[earlier]
    return sigs


def _state(engine):
    store = engine._store
    return (
        engine._next_id,
        sorted(engine._objects),
        dict(store._spans),
        store.owners.copy(),
        store.sketches.copy(),
    )


def _answers(engine, queries):
    return [
        [(r.object_id, r.distance) for r in engine.query(q, top_k=4)]
        for q in queries
    ]


class TestBulkEqualsOneAtATime:
    @settings(max_examples=40, deadline=None)
    @given(_batches())
    def test_insert_many_matches_insert_loop(self, drawn):
        prefix_spec, batch_spec, seed, alias = drawn
        rng = np.random.default_rng(seed)
        prefix = _signatures(prefix_spec, rng)
        batch = _signatures(batch_spec, rng)
        queries = [
            ObjectSignature(rng.random((k, DIM)), np.ones(k)) for k in (1, 3)
        ]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine_module, "_LOAD_PAGE", 3)
            # Three rows of gather per block, so blocks split mid-page.
            mp.setattr(sketch_module, "_SKETCH_BLOCK_BYTES", 3 * 64 * 8)
            loop, bulk = _engine(), _engine()
            for engine in (loop, bulk):
                for sig in _build(prefix):
                    try:
                        engine.insert(sig)
                    except KeyError:
                        pass
            before = _state(bulk)
            loop_sigs, bulk_sigs = _build(batch, alias), _build(batch, alias)
            given_ids = [sig.object_id for sig in bulk_sigs]
            try:
                loop_ids = [loop.insert(sig) for sig in loop_sigs]
            except KeyError:
                # An id the loop would assign twice, or one signature
                # given twice: the bulk path must refuse the whole batch
                # before changing anything.
                with pytest.raises(KeyError, match="whole batch rejected"):
                    bulk.insert_many(bulk_sigs)
                after = _state(bulk)
                assert after[:3] == before[:3]
                np.testing.assert_array_equal(after[3], before[3])
                np.testing.assert_array_equal(after[4], before[4])
                assert [s.object_id for s in bulk_sigs] == given_ids
                return
            assert bulk.insert_many(bulk_sigs) == loop_ids

        assert bulk._next_id == loop._next_id
        assert list(bulk._objects) == list(loop._objects)
        for oid, sig in loop._objects.items():
            assert bulk._objects[oid].object_id == oid
            np.testing.assert_array_equal(bulk._objects[oid].features, sig.features)
            np.testing.assert_array_equal(
                bulk._object_sketches[oid], loop._object_sketches[oid]
            )
        assert bulk._store._spans == loop._store._spans
        np.testing.assert_array_equal(bulk._store.owners, loop._store.owners)
        np.testing.assert_array_equal(bulk._store.sketches, loop._store.sketches)
        assert _answers(bulk, queries) == _answers(loop, queries)


class TestBlockedSketch:
    @pytest.mark.parametrize("n_bits", [64, 100, 256, 800])
    @pytest.mark.parametrize("k_xor", [1, 3])
    @settings(max_examples=10, deadline=None)
    @given(rows=st.integers(0, 40), seed=st.integers(0, 2**31))
    def test_blocks_equal_one_call(self, n_bits, k_xor, rows, seed):
        rng = np.random.default_rng(seed)
        meta = FeatureMeta(DIM, np.zeros(DIM), np.ones(DIM))
        sketcher = SketchConstructor(SketchParams(n_bits, meta, k_xor=k_xor, seed=seed))
        vectors = rng.random((rows, DIM))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sketch_module, "_SKETCH_BLOCK_BYTES", 7 * n_bits * k_xor * 8)
            blocked = sketcher.sketch_many(vectors)
        assert blocked.dtype == np.uint64
        bits = sketcher.sketch_bits(vectors)
        np.testing.assert_array_equal(blocked, pack_bits(bits))
        # The packing written out independently: bits zero-padded to
        # whole words, big-endian within each byte.
        words = (n_bits + 63) // 64
        padded = np.zeros((rows, words * 64), dtype=np.uint8)
        padded[:, :n_bits] = bits
        reference = np.packbits(padded, axis=1).view(np.uint64).reshape(rows, words)
        np.testing.assert_array_equal(blocked, reference)
        for row in range(min(rows, 3)):
            np.testing.assert_array_equal(sketcher.sketch(vectors[row]), reference[row])
        # Algorithm 2 as written: XOR over k of [v[i_nk] >= t_nk].
        raw = (vectors[:, sketcher.rnd_i] >= sketcher.rnd_t).astype(np.uint8)
        np.testing.assert_array_equal(bits, np.bitwise_xor.reduce(raw, axis=2))

    def test_temporaries_stay_bounded(self):
        rows, n_bits = 40_000, 512
        meta = FeatureMeta(64, np.zeros(64), np.ones(64))
        sketcher = SketchConstructor(SketchParams(n_bits, meta, seed=1))
        vectors = np.random.default_rng(2).random((rows, 64))
        output = rows * sketcher.n_words * 8
        one_shot_gather = rows * n_bits * 8
        tracemalloc.start()
        try:
            sketcher.sketch_many(vectors)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= output + 2 * sketch_module._SKETCH_BLOCK_BYTES
        assert 5 * peak <= one_shot_gather

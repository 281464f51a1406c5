"""Tests for the core similarity search engine."""

import numpy as np
import pytest

from repro.core import (
    DataTypePlugin,
    FeatureMeta,
    FilterParams,
    ObjectSignature,
    ParallelConfig,
    SearchMethod,
    SimilaritySearchEngine,
    SketchParams,
)
from repro.observability import metrics as _metrics


@pytest.fixture()
def engine(unit_meta):
    plugin = DataTypePlugin("test", unit_meta)
    return SimilaritySearchEngine(
        plugin,
        SketchParams(256, unit_meta, seed=1),
        FilterParams(num_query_segments=3, candidates_per_segment=20),
    )


def _fill(engine, count=40, segs=3, seed=0):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        engine.insert(ObjectSignature(rng.random((segs, 8)), rng.random(segs) + 0.1))
    return rng


class TestSearchMethod:
    def test_parse_value(self):
        assert SearchMethod.parse("filtering") is SearchMethod.FILTERING
        assert SearchMethod.parse("BRUTE_FORCE_SKETCH") is SearchMethod.BRUTE_FORCE_SKETCH

    def test_parse_unknown(self):
        with pytest.raises(ValueError):
            SearchMethod.parse("nope")

    def test_only_the_papers_three_policies(self):
        assert len(SearchMethod) == 3
        with pytest.raises(ValueError, match="unknown search method"):
            SearchMethod.parse("lsh")

    def test_query_takes_the_method_by_value(self, engine):
        _fill(engine)
        engine.tracer.set_enabled(True)
        query = engine.get_object(3)
        by_value = engine.query(query, top_k=5, method="filtering")
        assert by_value == engine.query(
            query, top_k=5, method=SearchMethod.FILTERING
        )
        assert engine.tracer.last.method == "filtering"

    def test_query_rejects_an_unknown_method_string(self, engine):
        _fill(engine)
        with pytest.raises(ValueError, match="sideways"):
            engine.query(engine.get_object(3), top_k=5, method="sideways")


class TestInsert:
    def test_sequential_ids(self, engine):
        _fill(engine, 5)
        assert sorted(engine.objects) == [0, 1, 2, 3, 4]

    def test_explicit_id(self, engine):
        oid = engine.insert(
            ObjectSignature(np.random.rand(2, 8), [1, 1]), object_id=100
        )
        assert oid == 100
        # next auto id continues past the explicit one
        auto = engine.insert(ObjectSignature(np.random.rand(1, 8), [1.0]))
        assert auto == 101

    def test_duplicate_id_rejected(self, engine):
        engine.insert(ObjectSignature(np.random.rand(1, 8), [1.0]), object_id=3)
        with pytest.raises(KeyError):
            engine.insert(ObjectSignature(np.random.rand(1, 8), [1.0]), object_id=3)

    def test_mismatched_sketch_meta_rejected(self, unit_meta):
        other = FeatureMeta(4, np.zeros(4), np.ones(4))
        plugin = DataTypePlugin("test", unit_meta)
        with pytest.raises(ValueError):
            SimilaritySearchEngine(plugin, SketchParams(64, other))

    def test_contains_and_len(self, engine):
        _fill(engine, 7)
        assert len(engine) == 7
        assert 0 in engine
        assert 7 not in engine


class TestQuery:
    def test_empty_engine_returns_empty(self, engine):
        q = ObjectSignature(np.random.rand(1, 8), [1.0])
        assert engine.query(q) == []

    def test_self_query_ranks_first(self, engine):
        _fill(engine)
        for method in SearchMethod:
            results = engine.query_by_id(5, top_k=3, method=method)
            assert results[0].object_id == 5
            assert results[0].distance == pytest.approx(0.0, abs=1e-9)

    def test_exclude_self(self, engine):
        _fill(engine)
        results = engine.query_by_id(5, top_k=10, exclude_self=True)
        assert all(r.object_id != 5 for r in results)

    def test_invalid_top_k(self, engine):
        _fill(engine, 3)
        with pytest.raises(ValueError):
            engine.query_by_id(0, top_k=0)

    def test_methods_agree_on_duplicate(self, engine):
        """An exact duplicate must rank top for all three methods."""
        rng = _fill(engine)
        original = engine.get_object(10)
        dup_id = engine.insert(
            ObjectSignature(original.features.copy(), original.weights.copy(),
                            normalize=False)
        )
        for method in SearchMethod:
            results = engine.query_by_id(10, top_k=2, method=method,
                                         exclude_self=True)
            assert results[0].object_id == dup_id

    def test_restrict_to(self, engine):
        _fill(engine)
        allowed = [1, 2, 3]
        results = engine.query_by_id(
            1, top_k=10, method=SearchMethod.BRUTE_FORCE_ORIGINAL,
            restrict_to=allowed,
        )
        assert {r.object_id for r in results} <= set(allowed)

    def test_restrict_to_applies_to_filtering(self, engine):
        _fill(engine)
        results = engine.query_by_id(
            1, top_k=10, method=SearchMethod.FILTERING, restrict_to=[2, 4],
        )
        assert {r.object_id for r in results} <= {2, 4}

    def test_filtering_subset_of_brute_force_order(self, engine):
        """Filtering results must rank consistently with brute force: any
        object filtering returns gets the same distance brute force gives."""
        _fill(engine, 60)
        brute = {
            r.object_id: r.distance
            for r in engine.query_by_id(
                0, top_k=60, method=SearchMethod.BRUTE_FORCE_ORIGINAL
            )
        }
        filtered = engine.query_by_id(0, top_k=10, method=SearchMethod.FILTERING)
        for r in filtered:
            assert r.distance == pytest.approx(brute[r.object_id], rel=1e-9)

    def test_single_segment_sketch_ranking(self, unit_meta):
        """With one segment per object, BruteForceSketch = Hamming scan."""
        plugin = DataTypePlugin("single", unit_meta)
        engine = SimilaritySearchEngine(plugin, SketchParams(512, unit_meta, seed=3))
        rng = np.random.default_rng(1)
        base = rng.random(8)
        engine.insert(ObjectSignature(base[None, :], [1.0]))  # 0
        engine.insert(ObjectSignature((base + 0.02)[None, :], [1.0]))  # 1 near
        engine.insert(ObjectSignature(rng.random((1, 8)), [1.0]))  # 2 far
        results = engine.query_by_id(
            0, top_k=2, method=SearchMethod.BRUTE_FORCE_SKETCH, exclude_self=True
        )
        assert results[0].object_id == 1


class TestUnrestrictedUniverse:
    """Without ``restrict_to`` a query tests candidates against the live
    object map instead of a per-query copy of its id set; the answers
    are those of ``restrict_to=<every id>``."""

    METHODS = [
        SearchMethod.FILTERING,
        SearchMethod.BRUTE_FORCE_ORIGINAL,
        SearchMethod.BRUTE_FORCE_SKETCH,
    ]

    @pytest.mark.parametrize("method", METHODS)
    def test_query_equals_restrict_to_everything(self, engine, method):
        _fill(engine, 60)
        engine.remove(7)
        everything = list(engine.objects)
        for qid in (0, 13, 59):
            query = engine.get_object(qid)
            got = engine.query(query, top_k=8, method=method)
            assert got and got == engine.query(
                query, top_k=8, method=method, restrict_to=everything
            )

    @pytest.mark.parametrize("method", METHODS)
    def test_query_many_equals_restrict_to_everything(self, engine, method):
        _fill(engine, 60)
        engine.remove(7)
        queries = [engine.get_object(qid) for qid in (0, 13, 59)]
        got = engine.query_many(queries, top_k=8, method=method)
        assert all(got) and got == engine.query_many(
            queries, top_k=8, method=method,
            restrict_to=list(engine.objects),
        )
        assert got == [
            engine.query(q, top_k=8, method=method) for q in queries
        ]

    @pytest.mark.parametrize("batched", [False, True])
    def test_candidate_removed_between_scan_and_rank_is_dropped(
        self, engine, monkeypatch, batched
    ):
        _fill(engine, 40)
        query = engine.get_object(3)

        def ask(top_k):
            if batched:
                return engine.query_many([query], top_k=top_k)[0]
            return engine.query(query, top_k=top_k)

        before = ask(6)
        victim = before[1].object_id
        scan = engine._filter_candidates

        def scan_then_remove(*args, **kwargs):
            candidate_sets = scan(*args, **kwargs)
            assert victim in candidate_sets[0]
            engine.remove(victim)
            return candidate_sets

        monkeypatch.setattr(engine, "_filter_candidates", scan_then_remove)
        after = ask(5)
        assert after == [r for r in before if r.object_id != victim]


class TestOnePipeline:
    """``query(q)`` is ``query_many([q])``: a traced single query and a
    traced batch of one book the same trace and the same metrics."""

    @pytest.fixture()
    def uncached(self, unit_meta):
        # No result cache, so the second call scans like the first.
        engine = SimilaritySearchEngine(
            DataTypePlugin("test", unit_meta),
            SketchParams(256, unit_meta, seed=1),
            FilterParams(num_query_segments=3, candidates_per_segment=20),
            parallel=ParallelConfig(cache_entries=0),
        )
        _fill(engine, 40)
        engine.tracer.set_enabled(True)
        return engine

    @staticmethod
    def _booked(trace):
        return (
            trace.method,
            trace.num_queries,
            sorted(trace.stages),
            trace.counts,
            trace.notes,
            [span["name"] for span in trace.spans],
        )

    @pytest.mark.parametrize("cascade", [None, 4])
    @pytest.mark.parametrize("method", list(SearchMethod))
    def test_single_and_batch_of_one_book_the_same(
        self, uncached, method, cascade
    ):
        query = uncached.get_object(3)
        options = dict(top_k=5, method=method, exclude_self=True, cascade=cascade)
        single = uncached.query(query, **options)
        single_trace = uncached.tracer.last
        batch = uncached.query_many([query], **options)
        assert batch == [single]
        assert self._booked(uncached.tracer.last) == self._booked(single_trace)
        if method is SearchMethod.FILTERING:
            assert single_trace.counts["candidates"] > 0
            assert ("cascade_survivors" in single_trace.counts) == bool(cascade)

    @pytest.mark.parametrize("cascade", [None, 4])
    @pytest.mark.parametrize("method", list(SearchMethod))
    def test_queries_grow_by_the_batch_size(self, uncached, method, cascade):
        queries = _metrics.counter("engine.queries")
        seconds = _metrics.histogram("engine.query_seconds")
        batch = [uncached.get_object(i) for i in (0, 3, 9)]
        for size in (1, 3):
            count, samples = queries.value, seconds.count
            uncached.query_many(
                batch[:size], top_k=5, method=method, cascade=cascade
            )
            assert queries.value == count + size
            assert seconds.count == samples + 1
            assert uncached.tracer.last.num_queries == size
        count, samples = queries.value, seconds.count
        uncached.query(batch[0], top_k=5, method=method, cascade=cascade)
        assert (queries.value, seconds.count) == (count + 1, samples + 1)


class TestStats:
    def test_counts(self, engine):
        _fill(engine, 10, segs=4)
        stats = engine.stats()
        assert stats.num_objects == 10
        assert stats.num_segments == 40
        assert stats.avg_segments_per_object == pytest.approx(4.0)

    def test_compression_ratio(self, engine):
        _fill(engine, 2)
        stats = engine.stats()
        # 8 dims * 32 bits = 256 feature bits; sketch = 256 bits
        assert stats.feature_bits_per_vector == 256
        assert stats.sketch_bits_per_vector == 256
        assert stats.compression_ratio == pytest.approx(1.0)

    def test_bytes_accounting(self, engine):
        _fill(engine, 5, segs=2)
        stats = engine.stats()
        assert stats.feature_bytes == 10 * 8 * 4
        assert stats.sketch_bytes == 10 * 4 * 8  # 256 bits = 4 words


class _ExplodingMetadata:
    """Metadata backend whose write-through always fails."""

    def put_object(self, *args, **kwargs):
        raise RuntimeError("backend down")


class TestInsertRollback:
    def test_failed_insert_restores_engine_and_signature(self, unit_meta):
        plugin = DataTypePlugin("test", unit_meta)
        engine = SimilaritySearchEngine(
            plugin, SketchParams(64, unit_meta, seed=1),
            metadata=_ExplodingMetadata(),
        )
        sig = ObjectSignature(np.random.rand(2, 8), [1.0, 1.0])
        with pytest.raises(RuntimeError):
            engine.insert(sig)
        assert len(engine) == 0
        # The failure must not consume an id or leave the caller's
        # signature claiming an id that was never assigned.
        assert sig.object_id is None
        assert engine._next_id == 0
        engine.metadata = None
        assert engine.insert(ObjectSignature(np.random.rand(1, 8), [1.0])) == 0

"""Matrix test: build_demo_engine works for every registered data type."""

import pytest

from repro.core import SearchMethod
from repro.datatypes import DEFAULT_SKETCH_BITS, build_demo_engine
from repro.evaltool import evaluate_engine

# Small sizes keep the matrix fast; image/audio/video render real data.
_SIZES = {
    "image": 50,
    "audio": 28,
    "shape": 30,
    "genomic": 48,
    "sensor": 32,
    "video": 36,
}


@pytest.mark.parametrize("datatype", sorted(DEFAULT_SKETCH_BITS))
def test_demo_engine_end_to_end(datatype):
    engine, bench = build_demo_engine(datatype, size=_SIZES[datatype], seed=5)
    assert len(engine) > 0
    assert engine.sketcher.n_bits == DEFAULT_SKETCH_BITS[datatype]

    # Self-query sanity for every data type.
    first = next(iter(engine.objects))
    results = engine.query_by_id(first, top_k=3)
    assert results[0].object_id == first

    # The generated gold standard must be usable and score above chance.
    result = evaluate_engine(engine, bench.suite, SearchMethod.FILTERING)
    chance = 1.0 / len(engine)
    assert result.quality.average_precision > 5 * chance


def test_custom_sketch_bits_override():
    engine, _bench = build_demo_engine("genomic", size=48, sketch_bits=64)
    assert engine.sketcher.n_bits == 64


@pytest.mark.parametrize("datatype", sorted(DEFAULT_SKETCH_BITS))
def test_bulk_build_matches_per_object_build(datatype, monkeypatch):
    """``insert_many`` assigns the ids and answers the queries that a
    loop of ``insert`` over the same corpus does."""
    import copy
    import importlib

    from repro.core import SimilaritySearchEngine

    # Generate the corpus once; each build gets its own copy.
    module = importlib.import_module(f"repro.datatypes.{datatype}")
    name = f"generate_{datatype}_benchmark"
    generate, made = getattr(module, name), []

    def generate_once(*args, **kwargs):
        if not made:
            made.append(generate(*args, **kwargs))
        return copy.deepcopy(made[0])

    monkeypatch.setattr(module, name, generate_once)
    size = _SIZES[datatype] // 2
    bulk, _bench = build_demo_engine(datatype, size=size, seed=7)
    monkeypatch.setattr(
        SimilaritySearchEngine,
        "insert_many",
        lambda self, signatures: [self.insert(sig) for sig in signatures],
    )
    loop, _bench = build_demo_engine(datatype, size=size, seed=7)
    assert list(bulk.objects) == list(loop.objects)
    for object_id in bulk.objects:
        assert [(r.object_id, r.distance) for r in bulk.query_by_id(object_id, top_k=5)] == [
            (r.object_id, r.distance) for r in loop.query_by_id(object_id, top_k=5)
        ]

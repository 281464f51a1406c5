"""Table 2 — search-speed benchmark suite.

Regenerates the paper's Table 2: number of data objects, average
segments per object, and average search time for the Mixed image
dataset, the TIMIT audio dataset, and the Mixed 3D shape dataset, with
sketching and filtering turned on.

The paper ran 660k images / 6,300 utterances / 40k shapes on a 2006
Pentium 4; we run scaled-down populations with the same per-object
segment statistics (set FERRET_BENCH_SCALE=full for larger runs).
Expected shape: per-query time ordered image > audio > shape at equal
size — more segments per object means more sketch rows to scan and more
EMD work per candidate — and the single-segment shape dataset far
fastest, exactly Table 2's pattern.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core import FilterParams, SearchMethod, meta_from_dataset
from repro.datatypes.bulk import (
    bulk_audio_dataset,
    bulk_image_dataset,
    bulk_shape_dataset,
)

from bench_common import build_engine, scaled, write_result

_HEADER = (
    f"{'benchmark':>14} {'objects':>8} {'avg segs/obj':>13} "
    f"{'avg search time (s)':>20}"
)

_NUM_QUERIES = 200


def _measure(engine, dataset, rows, label):
    rng = np.random.default_rng(0)
    query_ids = rng.choice(sorted(dataset.objects), _NUM_QUERIES, replace=False)
    started = time.perf_counter()
    for qid in query_ids:
        engine.query_by_id(int(qid), top_k=20, method=SearchMethod.FILTERING,
                           exclude_self=True)
    per_query = (time.perf_counter() - started) / _NUM_QUERIES
    rows.append(
        f"{label:>14} {len(dataset):>8} {dataset.avg_segments:>13.1f} "
        f"{per_query:>20.4f}"
    )
    return per_query


@pytest.fixture(scope="module")
def table2_rows():
    rows = [_HEADER]
    yield rows
    if len(rows) > 1:
        write_result("table2_speed", rows)


@pytest.fixture(scope="module")
def speed_results():
    return {}


def test_table2_image(table2_rows, speed_results, benchmark):
    from repro.datatypes.image import make_image_plugin

    dataset = bulk_image_dataset(scaled(3000, 20000), seed=1)
    plugin = make_image_plugin()
    engine = build_engine(plugin, n_bits=96,
                          filter_params=FilterParams(candidates_per_segment=32))
    for obj in dataset:
        engine.insert(obj)
    speed_results["image"] = _measure(engine, dataset, table2_rows, "Mixed image")
    benchmark(engine.query_by_id, 0, top_k=20, method=SearchMethod.FILTERING,
              exclude_self=True)


def test_table2_audio(table2_rows, speed_results, benchmark):
    from repro.datatypes.audio import make_audio_plugin

    dataset = bulk_audio_dataset(scaled(1500, 6300), seed=2)
    plugin = make_audio_plugin(meta_from_dataset(dataset))
    engine = build_engine(plugin, n_bits=600,
                          filter_params=FilterParams(candidates_per_segment=32))
    for obj in dataset:
        engine.insert(obj)
    speed_results["audio"] = _measure(engine, dataset, table2_rows, "TIMIT audio")
    benchmark(engine.query_by_id, 0, top_k=20, method=SearchMethod.FILTERING,
              exclude_self=True)


def test_table2_shape(table2_rows, speed_results, benchmark):
    from repro.datatypes.shape import make_shape_plugin

    dataset = bulk_shape_dataset(scaled(3000, 40000), seed=3)
    plugin = make_shape_plugin(meta_from_dataset(dataset))
    engine = build_engine(plugin, n_bits=800,
                          filter_params=FilterParams(candidates_per_segment=32))
    for obj in dataset:
        engine.insert(obj)
    speed_results["shape"] = _measure(engine, dataset, table2_rows, "Mixed 3D shape")
    benchmark(engine.query_by_id, 0, top_k=20, method=SearchMethod.FILTERING,
              exclude_self=True)

    # Table 2's pattern: multi-segment EMD ranking dominates, so the
    # single-segment shape dataset is by far the fastest per query.
    if "image" in speed_results:
        assert speed_results["shape"] < speed_results["image"]

"""Query throughput — the batched Hamming kernel and multi-query pipeline.

Measures three things the batching PR claims:

1. *Batch filtering throughput*: ``sketch_filter_many`` (one fused scan
   for the whole batch) against a per-query ``sketch_filter`` loop —
   this is where the multi-query fusion pays off, since the database is
   streamed once per batch instead of once per query.
2. *End-to-end throughput*: three configurations in queries/sec — the
   pre-cascade baseline (a sequential ``query`` loop with the ranking
   cascade disabled: one exact transportation solve per candidate), the
   sequential loop with the cascade on, and ``engine.query_many`` with
   the cascade on.  All three must return identical ``(object_id,
   distance)`` lists; the batched-vs-exact ratio is the PR's headline
   ``cascade_speedup`` (gated >= 2x here and in check_regression.py).
   A filter-vs-rank phase split (from the engine's stage histograms)
   plus prune-rate counters are recorded per configuration.
3. *Metrics overhead*: the same sequential query loop with the metrics
   registry enabled vs disabled.  The observability layer claims
   near-zero cost (one branch per instrument with metrics off, a lock +
   add with them on); this section holds it to < 5% end-to-end.

Assertions fail the bench if any batched path stops returning the same
candidates or ranked results, the fused batch filter stops beating the
per-query loop, the cascade speedup drops below 2x, or the
metrics-enabled query path regresses more than 5% against
metrics-disabled.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core import (
    FilterParams,
    RankParams,
    SearchMethod,
    sketch_filter,
    sketch_filter_many,
)
from repro.datatypes.bulk import bulk_image_dataset
from repro.observability import metrics as obs_metrics

from bench_common import QUICK, build_engine, scaled, write_json, write_result

N_BITS = 256


def _build(num_objects, num_queries, seed=0):
    from repro.datatypes.image import make_image_plugin

    dataset = bulk_image_dataset(num_objects, seed=seed)
    plugin = make_image_plugin()
    engine = build_engine(
        plugin, n_bits=N_BITS,
        filter_params=FilterParams(num_query_segments=4,
                                   candidates_per_segment=32),
    )
    engine.insert_many(list(dataset))
    rng = np.random.default_rng(seed + 1)
    query_ids = rng.choice(num_objects, num_queries, replace=False)
    queries = [engine.get_object(int(i)) for i in query_ids]
    return engine, queries


def _phase_snapshot():
    """Cumulative filter/rank stage time + cascade counters from the
    metrics registry; deltas around a timed pass give its phase split."""
    registry = obs_metrics.get_registry()

    def _sum(name):
        metric = registry.get(name)
        return float(metric.sum) if metric is not None else 0.0

    def _val(name):
        metric = registry.get(name)
        return float(metric.value) if metric is not None else 0.0

    return {
        "filter_seconds": _sum("engine.filter_seconds"),
        "rank_seconds": _sum("engine.rank_seconds"),
        "exact_evals": _val("rank.exact_evals"),
        "lower_bound_prunes": _val("rank.lower_bound_prunes"),
    }


def _phase_delta(before, after):
    delta = {key: after[key] - before[key] for key in before}
    considered = delta["exact_evals"] + delta["lower_bound_prunes"]
    delta["prune_rate"] = (
        delta["lower_bound_prunes"] / considered if considered else 0.0
    )
    delta["exact_evals"] = int(delta["exact_evals"])
    delta["lower_bound_prunes"] = int(delta["lower_bound_prunes"])
    return delta


def test_query_throughput():
    # Large enough that the sketch database (~4 MB at 12k objects) spills
    # out of L2: that is the regime the filtering unit targets, and where
    # streaming the database once per *batch* instead of once per query
    # pays off.
    num_objects = scaled(12000, 50000, quick=1500)
    num_queries = scaled(24, 64, quick=8)
    repeats = scaled(3, 3, quick=1)
    engine, queries = _build(num_objects, num_queries)
    sketches = [engine.sketcher.sketch_many(q.features) for q in queries]

    # -- 1. batch filtering: fused multi-query scan vs per-query loop ----
    started = time.perf_counter()
    loop_sets = []
    for _ in range(repeats):
        loop_sets = [
            sketch_filter(q, qs, engine._store, engine.filter_params,
                          n_bits=engine.sketcher.n_bits)
            for q, qs in zip(queries, sketches)
        ]
    loop_elapsed = (time.perf_counter() - started) / repeats
    started = time.perf_counter()
    many_sets = []
    for _ in range(repeats):
        many_sets = sketch_filter_many(
            queries, sketches, engine._store, engine.filter_params,
            n_bits=engine.sketcher.n_bits,
        )
    many_elapsed = (time.perf_counter() - started) / repeats
    assert many_sets == loop_sets, "fused batch filter changed candidate sets"
    loop_qps = len(queries) / loop_elapsed
    many_qps = len(queries) / many_elapsed

    # -- 2. end-to-end: exact baseline vs ranking cascade ---------------
    # Each pass clears the filter cache first so all three pay a real
    # filtering scan, and the phase split is read from the engine's own
    # stage histograms around the timed region.
    obs_metrics.set_enabled(True)
    phase_split = {}

    def _timed_pass(label, fn):
        engine._filter_cache.clear()
        before = _phase_snapshot()
        started = time.perf_counter()
        results = fn()
        elapsed = time.perf_counter() - started
        phase_split[label] = _phase_delta(before, _phase_snapshot())
        return results, elapsed

    engine.rank_params = RankParams(cascade=False)
    exact_sequential, exact_elapsed = _timed_pass(
        "exact_sequential",
        lambda: [
            engine.query(q, top_k=10, method=SearchMethod.FILTERING,
                         exclude_self=True)
            for q in queries
        ],
    )
    exact_seq_qps = len(queries) / exact_elapsed

    engine.rank_params = RankParams()
    sequential, seq_elapsed = _timed_pass(
        "cascade_sequential",
        lambda: [
            engine.query(q, top_k=10, method=SearchMethod.FILTERING,
                         exclude_self=True)
            for q in queries
        ],
    )
    seq_qps = len(queries) / seq_elapsed

    batched, batch_elapsed = _timed_pass(
        "cascade_batched",
        lambda: engine.query_many(queries, top_k=10, exclude_self=True),
    )
    batch_qps = len(queries) / batch_elapsed
    cascade_speedup = batch_qps / exact_seq_qps

    # Identity against the exact per-candidate EMD path: same ids, same
    # distances (bit-for-bit), same order — for both cascade passes.
    for variant in (sequential, batched):
        for got, expected in zip(variant, exact_sequential):
            assert [(r.object_id, r.distance) for r in got] == [
                (r.object_id, r.distance) for r in expected
            ], "cascade changed ranked results vs the exact EMD path"

    # -- 3. metrics overhead: instrumented query path on vs off ----------
    # The filter cache is cleared before every timed pass so both
    # configurations do identical work (full serial scan + ranking);
    # best-of-N per configuration suppresses scheduler noise on the
    # 1-core CI box.  Alternating the order (on, off, on, off, ...)
    # keeps thermal/cache drift from biasing one side.
    # The ranking cascade cut per-query time ~6x, so the fixed metric
    # cost is measured against a much smaller denominator than when this
    # gate was introduced: the full query set and best-of-7 keep
    # scheduler noise (easily +-10% per pass on a busy box) from
    # swamping the microsecond-scale true overhead.
    overhead_queries = queries
    overhead_repeats = 7
    registry = obs_metrics.get_registry()
    was_enabled = registry.enabled

    def _time_query_loop() -> float:
        engine._filter_cache.clear()
        started = time.perf_counter()
        for q in overhead_queries:
            engine.query(q, top_k=10, method=SearchMethod.FILTERING,
                         exclude_self=True)
        return time.perf_counter() - started

    best_on = float("inf")
    best_off = float("inf")
    try:
        _time_query_loop()  # warm-up, outside both measurements
        for _ in range(overhead_repeats):
            obs_metrics.set_enabled(True)
            best_on = min(best_on, _time_query_loop())
            obs_metrics.set_enabled(False)
            best_off = min(best_off, _time_query_loop())
    finally:
        registry.enabled = was_enabled
    metrics_on_qps = len(overhead_queries) / best_on
    metrics_off_qps = len(overhead_queries) / best_off
    metrics_overhead = (best_on - best_off) / best_off

    lines = [
        "# Query throughput: batched Hamming kernel + multi-query pipeline",
        f"# {num_objects} objects, {engine.stats().num_segments} segments, "
        f"r=4, k=32, {N_BITS}-bit sketches, {num_queries} queries",
        "",
        "## Batch filtering (whole batch through the filter stage)",
        f"per-query sketch_filter loop           {loop_qps:10.0f} queries/s",
        f"fused sketch_filter_many               {many_qps:10.0f} queries/s",
        f"batch filter speedup                   {many_qps / loop_qps:10.2f} x",
        "",
        "## End-to-end (filter + EMD ranking, top 10)",
        f"exact sequential (cascade off) {exact_seq_qps:10.1f} queries/s "
        f"({exact_elapsed / len(queries) * 1e3:.3f} ms/query)",
        f"cascade sequential             {seq_qps:10.1f} queries/s "
        f"({seq_elapsed / len(queries) * 1e3:.3f} ms/query)",
        f"cascade query_many() batch     {batch_qps:10.1f} queries/s "
        f"({batch_elapsed / len(queries) * 1e3:.3f} ms/query)",
        f"batch-vs-sequential speedup    {batch_qps / seq_qps:10.2f} x",
        f"cascade speedup vs exact       {cascade_speedup:10.2f} x",
        "",
        "## Phase split (seconds per pass; prune rate of the cascade)",
    ] + [
        f"{label:<18} filter {split['filter_seconds']:8.3f} s   "
        f"rank {split['rank_seconds']:8.3f} s   "
        f"prune_rate {split['prune_rate']:.3f}   "
        f"exact_evals {split['exact_evals']}"
        for label, split in phase_split.items()
    ] + [
        "",
        "## Metrics overhead (sequential query loop, best of "
        f"{overhead_repeats})",
        f"metrics enabled              {metrics_on_qps:10.1f} queries/s",
        f"metrics disabled             {metrics_off_qps:10.1f} queries/s",
        f"overhead                     {metrics_overhead * 100:10.2f} %",
    ]
    write_result("query_throughput", lines)
    write_json("query_throughput", {
        "num_objects": num_objects,
        "num_segments": engine.stats().num_segments,
        "n_bits": N_BITS,
        "num_queries": num_queries,
        "batch_filter": {
            "per_query_loop_qps": loop_qps,
            "fused_many_qps": many_qps,
            "speedup": many_qps / loop_qps,
        },
        "end_to_end": {
            "exact_sequential_qps": exact_seq_qps,
            "sequential_qps": seq_qps,
            "batched_qps": batch_qps,
            "speedup": batch_qps / seq_qps,
            "cascade_speedup": cascade_speedup,
        },
        "phase_split": phase_split,
        "metrics_overhead": {
            "enabled_qps": metrics_on_qps,
            "disabled_qps": metrics_off_qps,
            "overhead_fraction": metrics_overhead,
        },
        "identical_candidate_sets": True,
    })

    if QUICK:
        # Smoke run: speedup ratios on a tiny dataset are dominated by
        # constant overheads, so only the identity assertions above gate.
        return
    assert batch_qps >= 0.9 * seq_qps, "batch pipeline regressed end-to-end"
    assert cascade_speedup >= 2.0, (
        f"ranking-cascade end-to-end speedup {cascade_speedup:.2f}x below "
        "the 2x target vs the exact per-candidate EMD path"
    )
    assert metrics_overhead < 0.05, (
        f"metrics-enabled query path {metrics_overhead * 100:.2f}% slower "
        f"than disabled (budget: 5%)"
    )


if __name__ == "__main__":
    test_query_throughput()

"""Index-churn benchmark: insert-to-visible latency under sustained churn.

The online-maintenance PR's claim: making freshly inserted objects
visible to a parallel pool costs O(delta), not O(arena).  Before the
segmented arena + delta shipping, every insert invalidated the pool and
the next query paid a full snapshot reload — per-batch refresh cost
scaled linearly with total arena rows.

This bench measures that directly.  At two arena sizes (the large one
``ARENA_RATIO``x the small one) it runs B insert-batches, timing the
pool refresh that makes each batch visible, and reports

- ``refresh_scaling``  — median refresh cost at the large size over the
  small size.  Delta shipping keeps it near 1; a full-reload regression
  pushes it toward ``ARENA_RATIO``.
- ``delta_loads`` / ``full_loads_after_warmup`` — the counters that
  prove the equivalence came from the delta path, not silent reloads.
- ``churn.ops_per_sec`` — sustained insert/remove/query throughput with
  a refresh forced after every mutation.

``check_regression.py --churn BENCH_index_churn.json`` gates the
result; ``make bench-churn`` runs both steps.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from bench_common import QUICK, scaled, write_json, write_result

from repro.core import (
    DataTypePlugin,
    FeatureMeta,
    ObjectSignature,
    ParallelConfig,
    SimilaritySearchEngine,
    SketchParams,
)
from repro.observability import metrics as _metrics

DIM = 8
N_BITS = 64
BACKEND = "thread"
NUM_WORKERS = 2
SEGS_PER_OBJECT = 2
ARENA_RATIO = 6

BASE_OBJECTS = scaled(2_000, 10_000, 200)
BATCHES = scaled(24, 48, 8)
BATCH_SIZE = 16
CHURN_OPS = scaled(300, 900, 60)

# Timing gates are meaningless on refresh costs of tens of microseconds:
# quick mode keeps the counter assertions but disarms the scaling ratio.
SCALING_LIMIT = 4.0


def _make_engine(seed: int) -> SimilaritySearchEngine:
    meta = FeatureMeta(DIM, np.zeros(DIM), np.ones(DIM))
    return SimilaritySearchEngine(
        DataTypePlugin("bench", meta),
        sketch_params=SketchParams(N_BITS, meta, seed=seed),
        parallel=ParallelConfig(
            num_workers=NUM_WORKERS,
            min_segments=0,
            backend=BACKEND,
            cache_entries=0,
        ),
    )


def _signature(rng, segs: int = SEGS_PER_OBJECT) -> ObjectSignature:
    return ObjectSignature(rng.random((segs, DIM)), rng.random(segs) + 0.1)


def _populate(engine: SimilaritySearchEngine, rng, count: int) -> None:
    for _ in range(count):
        engine.insert(_signature(rng))


def _measure_refresh(n_base: int, seed: int) -> dict:
    """Warm a pool over ``n_base`` objects, then time the per-batch
    refresh (``_ensure_pool``) that makes each insert batch visible."""
    engine = _make_engine(seed)
    rng = np.random.default_rng(seed)
    try:
        _populate(engine, rng, n_base)
        probe = _signature(rng)
        engine.query(probe, top_k=5)  # builds + fully loads the pool

        reg = _metrics.get_registry()
        full0 = reg.get("parallel.arena_loads").value
        delta0 = reg.get("arena.delta_loads").value

        refresh_s = []
        visible_s = []
        for _ in range(BATCHES):
            t_batch = time.perf_counter()
            for _ in range(BATCH_SIZE):
                engine.insert(_signature(rng))
            t0 = time.perf_counter()
            engine._ensure_pool()
            t1 = time.perf_counter()
            engine.query(probe, top_k=5)
            refresh_s.append(t1 - t0)
            visible_s.append(time.perf_counter() - t_batch)

        return {
            "rows": len(engine._store),
            "refresh_ms_median": statistics.median(refresh_s) * 1e3,
            "insert_to_visible_ms_median": statistics.median(visible_s) * 1e3,
            "delta_loads": reg.get("arena.delta_loads").value - delta0,
            "full_loads_after_warmup": reg.get("parallel.arena_loads").value
            - full0,
        }
    finally:
        engine.close()


def _measure_churn(seed: int) -> dict:
    """Sustained insert/remove churn with a query (= forced refresh)
    after every mutation; reports ops/sec."""
    engine = _make_engine(seed)
    rng = np.random.default_rng(seed)
    try:
        _populate(engine, rng, max(BASE_OBJECTS // 4, 16))
        probe = _signature(rng)
        engine.query(probe, top_k=5)
        live = sorted(engine._objects)
        t0 = time.perf_counter()
        for i in range(CHURN_OPS):
            if i % 3 == 2 and len(live) > 8:
                engine.remove(live.pop(0))
            else:
                live.append(engine.insert(_signature(rng)))
            engine.query(probe, top_k=5)
        elapsed = time.perf_counter() - t0
        return {"ops": CHURN_OPS, "ops_per_sec": CHURN_OPS / elapsed}
    finally:
        engine.close()


def main() -> None:
    small = _measure_refresh(BASE_OBJECTS, seed=11)
    large = _measure_refresh(BASE_OBJECTS * ARENA_RATIO, seed=12)
    churn = _measure_churn(seed=13)

    scaling = large["refresh_ms_median"] / max(
        small["refresh_ms_median"], 1e-6
    )
    gate_armed = not QUICK
    payload = {
        "backend": BACKEND,
        "num_workers": NUM_WORKERS,
        "n_bits": N_BITS,
        "batch_size": BATCH_SIZE,
        "batches": BATCHES * 2,  # measured at both arena sizes
        "arena_ratio": large["rows"] / small["rows"],
        "small": small,
        "large": large,
        "refresh_scaling": scaling,
        "scaling_limit": SCALING_LIMIT,
        "scaling_gate_armed": gate_armed,
        "delta_loads": small["delta_loads"] + large["delta_loads"],
        "full_loads_after_warmup": small["full_loads_after_warmup"]
        + large["full_loads_after_warmup"],
        "churn": churn,
    }
    if not gate_armed:
        payload["scaling_gate_skipped_reason"] = (
            "quick mode: refresh costs are tens of microseconds, the "
            "ratio is timer noise"
        )

    write_result(
        "index_churn",
        [
            f"arena rows            {small['rows']} -> {large['rows']}",
            f"refresh (small)       {small['refresh_ms_median']:.3f} ms",
            f"refresh (large)       {large['refresh_ms_median']:.3f} ms",
            f"refresh scaling       {scaling:.2f}x "
            f"(arena grew {payload['arena_ratio']:.1f}x)",
            f"insert-to-visible     {small['insert_to_visible_ms_median']:.3f}"
            f" / {large['insert_to_visible_ms_median']:.3f} ms",
            f"delta loads           {payload['delta_loads']}",
            f"full loads (warm)     {payload['full_loads_after_warmup']}",
            f"churn throughput      {churn['ops_per_sec']:.0f} ops/s "
            f"({churn['ops']} ops, refresh after every mutation)",
        ],
    )
    write_json("index_churn", payload)


if __name__ == "__main__":
    main()

"""Cluster telemetry overhead bench: tracing must be (nearly) free.

The telemetry plane's bargain is that cross-node tracing is paid only
by sampled requests: an untraced query through the coordinator must not
slow down because the tracing machinery exists, and a traced query's
piggybacked span tree must cost noise, not milliseconds.  This bench
stands up a real in-process cluster (TCP backends behind a
:class:`~repro.cluster.coordinator.FerretCoordinator`), alternates
timed rounds of untraced and traced queries, and writes
``BENCH_cluster_obs.json`` for the ``check_regression.py
--cluster-obs`` gate:

- ``cluster_obs.overhead_percent`` — traced-vs-untraced qps penalty,
  held under ``overhead_limit_percent`` (5%) whenever the gate is
  armed (quick mode disarms it with an explicit skip reason: tiny
  corpora make per-query cost too noisy to ratio);
- correctness fields — every live shard contributed a subtree with
  engine stages to the stitched trace, untraced queries piggybacked
  nothing, and federation saw every node.

Run as a script (``python bench_cluster_obs.py``); honours
``FERRET_BENCH_SCALE=quick|default|full``.
"""

from __future__ import annotations

import time

from repro.cluster import ClusterConfig, FerretCoordinator
from repro.observability.context import TraceContext
from repro.server.commands import CommandProcessor
from repro.server.server import serve_background

BACKENDS = 4
SHARDS = 2
REPLICATION = 2


def _start_cluster(size: int):
    """Four TCP backends over deterministic demo corpora + coordinator.

    Returns ``(servers, coordinator, num_objects)`` — the demo builder
    rounds ``size`` to whole similarity groups, so the actual object
    count (ids ``0..n-1``) comes from the built engine, not ``size``.
    """
    from repro.datatypes import build_demo_engine

    servers = []
    endpoints = []
    num_objects = 0
    for _ in range(BACKENDS):
        engine, _plugin = build_demo_engine("sensor", size=size, seed=42)
        num_objects = len(engine)
        server = serve_background(CommandProcessor(engine))
        servers.append(server)
        endpoints.append(server.server_address)
    coordinator = FerretCoordinator(
        endpoints,
        num_shards=SHARDS,
        config=ClusterConfig(replication=REPLICATION, cache_entries=0),
    )
    return servers, coordinator, num_objects


def _timed_batch(coordinator, num_queries: int, size: int, traced: bool) -> float:
    """One timed batch; returns elapsed seconds."""
    started = time.perf_counter()
    for i in range(num_queries):
        ctx = TraceContext.generate() if traced else None
        coordinator.query(i % size, top_k=10, trace_context=ctx)
    return time.perf_counter() - started


def _assert_trace_correct(coordinator, size: int) -> dict:
    """One traced query must yield a stitched tree covering every shard."""
    ctx = TraceContext.generate()
    result = coordinator.query(1 % size, top_k=5, trace_context=ctx)
    assert not result.partial, "bench cluster unexpectedly degraded"
    tree = coordinator.trace_store.get(ctx.trace_id)
    assert tree is not None, "traced query stored no stitched trace"
    nodes = tree.get("nodes", {})
    # Node keys are ``<s1>+<s2>.<backend>``: the shards one call answered.
    shards_covered = {
        int(shard) for key in nodes for shard in key.split(".")[0].split("+")
    }
    assert shards_covered == set(range(SHARDS)), (
        f"stitched trace covers shards {sorted(shards_covered)}, "
        f"expected all of {list(range(SHARDS))}"
    )
    for key, subtree in nodes.items():
        stages = set(subtree.get("stages", {}))
        assert {"filter", "rank"} <= stages, (
            f"node {key} subtree is missing engine stages: {sorted(stages)}"
        )
    return {"trace_nodes": len(nodes), "trace_shards_covered": len(shards_covered)}


def main() -> None:
    from bench_common import QUICK, scaled, write_json, write_result

    size = scaled(48, 96, 24)
    batch = scaled(25, 50, 10)
    # Loopback-TCP timings drift over seconds (scheduler, GC, thermal);
    # fine-grained alternating batches make the drift hit both modes
    # equally, so the 5% gate measures tracing cost, not the drift.
    pairs = scaled(12, 20, 4)
    num_queries = batch * pairs

    servers, coordinator, size = _start_cluster(size)
    try:
        # Warm up connections, sketch pools, and code paths on both modes.
        _timed_batch(coordinator, batch, size, traced=False)
        _timed_batch(coordinator, batch, size, traced=True)

        stored_before = len(coordinator.trace_store)
        off_seconds = on_seconds = 0.0
        for _ in range(pairs):
            off_seconds += _timed_batch(coordinator, batch, size, False)
            on_seconds += _timed_batch(coordinator, batch, size, True)
        qps_off = num_queries / off_seconds
        qps_on = num_queries / on_seconds
        overhead = max(0.0, (qps_off - qps_on) / qps_off * 100.0)

        # Untraced rounds must not have stored traces; traced ones must.
        stored = len(coordinator.trace_store)
        assert stored > stored_before, "traced rounds stored no traces"

        trace_facts = _assert_trace_correct(coordinator, size)

        nodes_up = coordinator.collect_node_metrics()
        assert nodes_up == BACKENDS, (
            f"federation saw {nodes_up}/{BACKENDS} nodes on a healthy cluster"
        )
    finally:
        coordinator.close()
        for server in servers:
            server.shutdown()
            server.server_close()

    armed = not QUICK
    payload = {
        "backends": BACKENDS,
        "shards": SHARDS,
        "replication": REPLICATION,
        "num_objects": size,
        "num_queries": num_queries,
        "pairs": pairs,
        "cluster_obs": {
            "qps_trace_off": qps_off,
            "qps_trace_on": qps_on,
            "overhead_percent": overhead,
        },
        "overhead_limit_percent": 5.0,
        "overhead_gate_armed": armed,
        "federated_nodes_up": nodes_up,
        **trace_facts,
    }
    if not armed:
        payload["overhead_gate_skipped_reason"] = (
            "quick mode: corpus too small for a stable qps ratio"
        )
    write_result("cluster_obs", [
        "# Cluster telemetry overhead: traced vs untraced scatter/gather",
        f"# ({BACKENDS} backends, {SHARDS} shards x R{REPLICATION}, "
        f"{size} objects/node, {pairs} alternating pairs x {batch})",
        "",
        f"untraced   {qps_off:8.1f} qps",
        f"traced     {qps_on:8.1f} qps",
        f"overhead   {overhead:8.2f} %",
        f"trace nodes stitched   {trace_facts['trace_nodes']}",
        f"federated nodes up     {nodes_up}/{BACKENDS}",
    ])
    write_json("cluster_obs", payload)


if __name__ == "__main__":
    main()

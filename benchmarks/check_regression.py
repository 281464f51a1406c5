"""Throughput regression gate over BENCH_query_throughput.json.

Compares a freshly produced ``bench_query_throughput`` JSON against a
baseline (normally the committed ``BENCH_query_throughput.json``) and
fails if any throughput series regressed by more than the tolerance.

Usage::

    python check_regression.py BASELINE.json CURRENT.json [--tolerance 0.15]
    python check_regression.py --recovery BENCH_recovery.json

The compared series are queries/sec figures, so *lower is worse*:

- ``end_to_end.exact_sequential_qps`` — query() loop, ranking cascade off
- ``end_to_end.sequential_qps``   — per-query engine.query() loop
- ``end_to_end.batched_qps``      — engine.query_many() pipeline
- ``batch_filter.fused_many_qps`` — fused multi-query filter scan

On top of the relative series, ``end_to_end.cascade_speedup`` (batched
cascade vs exact per-candidate ranking) is held to an absolute floor of
2.0x — the ranking-cascade PR's headline claim — independent of the
baseline.

``--recovery`` switches to the crash-recovery gate: a single
``BENCH_recovery.json`` (from ``python bench_recovery.py``) is held to
the absolute floors in ``RECOVERY_FLOOR_KEYS`` — no baseline, because
the WAL-replay rate is asserted outright, not relative to a prior run.

``--churn`` gates a single ``BENCH_index_churn.json`` (from
``bench_index_churn.py``): every measured insert batch must have become
visible through the delta path (``delta_loads >= batches`` and
``full_loads_after_warmup == 0``), and — when the timing gate is armed
— the per-batch refresh cost must not scale with total arena rows
(``refresh_scaling`` stays under ``scaling_limit`` even though the
large arena is several times the small one).  Quick-mode runs disarm
only the timing ratio, with an explicit skip reason; the counter
assertions always apply.

``--cluster-obs`` gates a single ``BENCH_cluster_obs.json`` (from
``bench_cluster_obs.py``): the stitched cross-node trace must carry a
subtree from every live shard, metric federation must see every
backend, and — when the overhead gate is armed — traced queries must
cost under ``overhead_limit_percent`` (5%) versus untraced ones.
Quick-mode runs disarm only the overhead ratio, with an explicit skip
reason; the trace/federation assertions always apply.

Machine-size drift is the obvious failure mode of comparing absolute
qps across runs, which is why the default tolerance is a generous 15%
and why the gate refuses to compare runs of different dataset sizes.
Exit status: 0 = within tolerance, 1 = regression, 2 = unusable input.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

THROUGHPUT_KEYS = (
    "end_to_end.exact_sequential_qps",
    "end_to_end.sequential_qps",
    "end_to_end.batched_qps",
    "batch_filter.fused_many_qps",
)

SHAPE_KEYS = ("num_objects", "num_queries", "n_bits")

# Absolute floors: (dotted key, minimum value).  Unlike the qps series
# these do not compare against the baseline — they assert the current
# run still delivers the claimed ratio on its own.
FLOOR_KEYS = (("end_to_end.cascade_speedup", 2.0),)

# Crash-recovery floors (--recovery mode).  Local runs replay ~14k
# txns/s; 1k leaves an order of magnitude of headroom for loaded CI
# boxes while still catching an accidentally quadratic replay path.
RECOVERY_FLOOR_KEYS = (("recovery.replay_txns_per_sec", 1000.0),)


def _lookup(payload: dict, dotted: str) -> Optional[float]:
    node = payload
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return float(node) if isinstance(node, (int, float)) else None


def check(baseline: dict, current: dict, tolerance: float) -> list:
    """Return a list of human-readable failure strings (empty = pass)."""
    failures = []
    for key in SHAPE_KEYS:
        if baseline.get(key) != current.get(key):
            failures.append(
                f"shape mismatch on {key!r}: baseline "
                f"{baseline.get(key)} vs current {current.get(key)} "
                "(runs are not comparable)"
            )
    if failures:
        return failures
    for key in THROUGHPUT_KEYS:
        base = _lookup(baseline, key)
        cur = _lookup(current, key)
        if base is None:
            failures.append(f"baseline missing series {key!r}")
            continue
        if cur is None:
            failures.append(f"current run missing series {key!r}")
            continue
        if base <= 0:
            failures.append(f"baseline {key!r} is non-positive ({base})")
            continue
        floor = base * (1.0 - tolerance)
        if cur < floor:
            drop = (base - cur) / base
            failures.append(
                f"{key}: {cur:.1f} qps is {drop * 100:.1f}% below "
                f"baseline {base:.1f} qps (tolerance {tolerance * 100:.0f}%)"
            )
    for key, floor in FLOOR_KEYS:
        cur = _lookup(current, key)
        if cur is None:
            failures.append(f"current run missing series {key!r}")
        elif cur < floor:
            failures.append(
                f"{key}: {cur:.2f} is below the absolute floor {floor:.2f}"
            )
    return failures


def check_recovery(current: dict) -> list:
    """Absolute-floor check of a BENCH_recovery.json payload."""
    failures = []
    for key, floor in RECOVERY_FLOOR_KEYS:
        cur = _lookup(current, key)
        if cur is None:
            failures.append(f"current run missing series {key!r}")
        elif cur < floor:
            failures.append(
                f"{key}: {cur:.0f} is below the absolute floor {floor:.0f}"
            )
    return failures


def check_churn(current: dict) -> list:
    """Gate a BENCH_index_churn.json payload (no baseline)."""
    failures = []
    delta = _lookup(current, "delta_loads")
    full = _lookup(current, "full_loads_after_warmup")
    batches = _lookup(current, "batches")
    if delta is None or full is None or batches is None:
        failures.append(
            "missing delta_loads/full_loads_after_warmup/batches: cannot "
            "verify that inserts became visible through the delta path"
        )
        return failures
    if delta < batches:
        failures.append(
            f"delta_loads {delta:.0f} < batches {batches:.0f}: some insert "
            "batches became visible without a delta load"
        )
    if full != 0:
        failures.append(
            f"full_loads_after_warmup is {full:.0f}: a warmed pool fell "
            "back to full snapshot reloads under insert churn"
        )
    limit = _lookup(current, "scaling_limit") or 4.0
    if current.get("scaling_gate_armed"):
        scaling = _lookup(current, "refresh_scaling")
        ratio = _lookup(current, "arena_ratio")
        if scaling is None or ratio is None:
            failures.append(
                "gate armed but refresh_scaling/arena_ratio is missing"
            )
        elif scaling > limit:
            failures.append(
                f"refresh_scaling {scaling:.2f}x exceeds the {limit:.1f}x "
                f"limit (arena grew {ratio:.1f}x): per-batch refresh cost "
                "is scaling with arena size again"
            )
    else:
        reason = current.get("scaling_gate_skipped_reason")
        if not isinstance(reason, str) or not reason.strip():
            failures.append(
                "scaling gate disarmed without a "
                "scaling_gate_skipped_reason — silent disarming is "
                "exactly what this gate forbids"
            )
    return failures


def check_cluster_obs(current: dict) -> list:
    """Gate a BENCH_cluster_obs.json payload (no baseline)."""
    failures = []
    nodes = _lookup(current, "trace_nodes")
    covered = _lookup(current, "trace_shards_covered")
    shards = _lookup(current, "shards")
    if nodes is None or covered is None or shards is None:
        failures.append(
            "missing trace_nodes/trace_shards_covered/shards: cannot "
            "verify the stitched cross-node trace"
        )
    elif covered < shards:
        failures.append(
            f"stitched trace covered {covered:.0f} of {shards:.0f} "
            "shards: a live shard contributed no subtree"
        )
    backends = _lookup(current, "backends")
    nodes_up = _lookup(current, "federated_nodes_up")
    if backends is None or nodes_up is None:
        failures.append(
            "missing backends/federated_nodes_up: cannot verify metric "
            "federation"
        )
    elif nodes_up < backends:
        failures.append(
            f"federation saw {nodes_up:.0f}/{backends:.0f} nodes on a "
            "healthy cluster"
        )
    limit = _lookup(current, "overhead_limit_percent") or 5.0
    if current.get("overhead_gate_armed"):
        overhead = _lookup(current, "cluster_obs.overhead_percent")
        if overhead is None:
            failures.append("gate armed but cluster_obs.overhead_percent missing")
        elif overhead > limit:
            failures.append(
                f"cluster_obs.overhead_percent {overhead:.2f}% exceeds "
                f"the {limit:.1f}% limit: tracing is no longer "
                "pay-only-when-sampled"
            )
    else:
        reason = current.get("overhead_gate_skipped_reason")
        if not isinstance(reason, str) or not reason.strip():
            failures.append(
                "overhead gate disarmed without an "
                "overhead_gate_skipped_reason — silent disarming is "
                "exactly what this gate forbids"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Fail on query-throughput regression vs a baseline run"
    )
    parser.add_argument(
        "baseline",
        help="baseline BENCH_query_throughput.json "
        "(with --recovery: the BENCH_recovery.json to gate)",
    )
    parser.add_argument(
        "current", nargs="?", default=None,
        help="current BENCH_query_throughput.json (omit with --recovery)",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.15,
        help="allowed fractional drop per series (default 0.15 = 15%%)",
    )
    parser.add_argument(
        "--recovery", action="store_true",
        help="gate a BENCH_recovery.json against the absolute "
        "crash-recovery floors instead of comparing throughput runs",
    )
    parser.add_argument(
        "--churn", action="store_true",
        help="gate a BENCH_index_churn.json: inserts become visible "
        "through delta loads only, and per-batch refresh cost must not "
        "scale with arena size",
    )
    parser.add_argument(
        "--cluster-obs", action="store_true",
        help="gate a BENCH_cluster_obs.json: stitched traces cover every "
        "shard, federation sees every node, and traced queries cost "
        "under the overhead limit (or an explicit skip reason)",
    )
    args = parser.parse_args(argv)

    if args.cluster_obs:
        if args.churn or args.recovery or args.current is not None:
            print(
                "error: --cluster-obs takes a single BENCH_cluster_obs.json",
                file=sys.stderr,
            )
            return 2
        try:
            with open(args.baseline, "r", encoding="utf-8") as fh:
                current = json.load(fh)
        except (OSError, ValueError) as exc:
            print(f"error: cannot read {args.baseline}: {exc}", file=sys.stderr)
            return 2
        failures = check_cluster_obs(current)
        if failures:
            print("CLUSTER TELEMETRY REGRESSION:")
            for failure in failures:
                print(f"  - {failure}")
            return 1
        print(
            f"ok  stitched trace: {_lookup(current, 'trace_nodes'):.0f} node "
            f"subtrees over {_lookup(current, 'shards'):.0f} shards, "
            f"federation {_lookup(current, 'federated_nodes_up'):.0f}/"
            f"{_lookup(current, 'backends'):.0f} nodes"
        )
        if current.get("overhead_gate_armed"):
            print(
                f"ok  tracing overhead: "
                f"{_lookup(current, 'cluster_obs.overhead_percent'):.2f}% "
                f"(limit {_lookup(current, 'overhead_limit_percent'):.1f}%)"
            )
        else:
            print(
                "ok  overhead gate skipped: "
                f"{current.get('overhead_gate_skipped_reason')}"
            )
        return 0

    if args.churn:
        if args.recovery or args.current is not None:
            print(
                "error: --churn takes a single BENCH_index_churn.json",
                file=sys.stderr,
            )
            return 2
        try:
            with open(args.baseline, "r", encoding="utf-8") as fh:
                current = json.load(fh)
        except (OSError, ValueError) as exc:
            print(f"error: cannot read {args.baseline}: {exc}", file=sys.stderr)
            return 2
        failures = check_churn(current)
        if failures:
            print("INDEX CHURN REGRESSION:")
            for failure in failures:
                print(f"  - {failure}")
            return 1
        print(
            f"ok  delta_loads: {_lookup(current, 'delta_loads'):.0f} "
            f"(>= {_lookup(current, 'batches'):.0f} batches), "
            "full_loads_after_warmup: 0"
        )
        if current.get("scaling_gate_armed"):
            print(
                f"ok  refresh_scaling: "
                f"{_lookup(current, 'refresh_scaling'):.2f}x "
                f"(limit {_lookup(current, 'scaling_limit'):.1f}x, arena "
                f"grew {_lookup(current, 'arena_ratio'):.1f}x)"
            )
        else:
            print(
                "ok  scaling gate skipped: "
                f"{current.get('scaling_gate_skipped_reason')}"
            )
        return 0

    if args.recovery:
        if args.current is not None:
            print(
                "error: --recovery takes a single BENCH_recovery.json",
                file=sys.stderr,
            )
            return 2
        try:
            with open(args.baseline, "r", encoding="utf-8") as fh:
                current = json.load(fh)
        except (OSError, ValueError) as exc:
            print(f"error: cannot read {args.baseline}: {exc}", file=sys.stderr)
            return 2
        failures = check_recovery(current)
        if failures:
            print("RECOVERY REGRESSION:")
            for failure in failures:
                print(f"  - {failure}")
            return 1
        for key, floor in RECOVERY_FLOOR_KEYS:
            cur = _lookup(current, key)
            print(f"ok  {key}: {cur:.0f} (floor {floor:.0f})")
        return 0

    if args.current is None:
        print("error: CURRENT.json is required without --recovery", file=sys.stderr)
        return 2
    if not 0.0 <= args.tolerance < 1.0:
        print("error: --tolerance must be in [0, 1)", file=sys.stderr)
        return 2

    payloads = []
    for path in (args.baseline, args.current):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payloads.append(json.load(fh))
        except (OSError, ValueError) as exc:
            print(f"error: cannot read {path}: {exc}", file=sys.stderr)
            return 2
    baseline, current = payloads

    failures = check(baseline, current, args.tolerance)
    if failures:
        print("THROUGHPUT REGRESSION:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    for key in THROUGHPUT_KEYS:
        base, cur = _lookup(baseline, key), _lookup(current, key)
        delta = (cur - base) / base * 100.0
        print(f"ok  {key}: {cur:.1f} qps ({delta:+.1f}% vs baseline)")
    for key, floor in FLOOR_KEYS:
        cur = _lookup(current, key)
        print(f"ok  {key}: {cur:.2f} (floor {floor:.2f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Sharded parallel filtering scan: thread and process backends.

The filtering unit streams over *all* database segment sketches per
query (section 4.1.1); the batched kernel made that scan vector-wide,
and this module fans it out across cores.  Two pool implementations
share one contract (same ``load`` / ``scan_topk`` surface, same
deterministic results):

- :class:`ThreadFilterPool` — worker *threads* over zero-copy views of
  one in-process arena.  ``hamming_many_to_many`` releases the GIL in
  its hot loop when numpy >= 2.0 provides ``np.bitwise_count``, so the
  per-shard scans genuinely overlap with no pickling and no
  shared-memory attach.  This is the default pick of the ``auto``
  backend on multi-core hosts.
- :class:`ParallelFilterPool` — persistent worker *processes* over a
  ``multiprocessing.shared_memory`` arena.  The consolidated
  ``(n_rows, n_words)`` sketch matrix and its owner array are copied
  once into shared blocks; workers map zero-copy views of their row
  shards.  A whole ``query_many`` batch travels to each worker as one
  fused binary message (raw query/threshold words + a packed header,
  no per-array pickling) and the reply carries the worker's local
  top-k plus its piggybacked telemetry delta — exactly one round trip
  per worker per batch, counted by ``parallel.dispatch_round_trips``.

Both pools cut rows into contiguous shards through the same
:func:`shard_bounds` assignment and select through the same
deterministic smallest-row-wins rule
(:func:`~repro.core.filtering.select_k_smallest`), which makes their
candidate sets *bit-identical* to the single-process paths — the
per-shard top-k provably contains every globally selected row.

:func:`choose_backend` is the cost model behind
``ParallelConfig.backend="auto"``: serial below the work floor or on a
single core, threads when the Hamming kernel releases the GIL,
processes otherwise (see docs/PERFORMANCE.md for the matrix).

Staleness is tracked by the segment store's mutation epoch: a pool
records the epoch its arena was loaded from, and the engine reloads
(reshards) when they diverge.  On any pool failure the engine falls
back to the serial scan and keeps answering queries;
:attr:`ParallelScanError.kind` says *how* the pool failed (worker
crash, timeout, protocol error, closed pool) so the fallback can be
classified instead of absorbed generically.

A bounded LRU :class:`QueryResultCache` (also epoch-invalidated) sits
in front of the scan so repeated queries of a skewed stream skip it
entirely; with ``metrics_prefix`` it doubles as the cluster
coordinator's result cache (``cluster.cache.*`` series).

See docs/PERFORMANCE.md for the shard layout, backend-selection
matrix, pool lifecycle, and tuning knobs.
"""

from __future__ import annotations

import os
import pickle
import struct
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor, TimeoutError as _FutureTimeout
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

import multiprocessing
import numpy as np

from ..observability import log as _log
from ..observability import metrics as _metrics
from .bitvector import _HAS_BITWISE_COUNT, hamming_many_to_many
from .filtering import (
    FilterParams,
    _stack_query_rows,
    select_k_smallest,
)
from .types import ObjectSignature

__all__ = [
    "BACKENDS",
    "FilterPool",
    "ParallelConfig",
    "ParallelFilterPool",
    "ParallelScanError",
    "QueryResultCache",
    "ThreadFilterPool",
    "available_cores",
    "choose_backend",
    "hamming_kernel_releases_gil",
    "parallel_filter_candidates",
    "parallel_sketch_filter",
    "parallel_sketch_filter_many",
    "shard_bounds",
]

# Masking value for dead / over-threshold rows inside workers: above any
# real Hamming distance, below no distance, and shared with the merge so
# padded entries sort last and never survive the final selection.
_SENTINEL = np.uint32(np.iinfo(np.uint32).max)

#: Recognized ``ParallelConfig.backend`` values; ``auto`` resolves
#: through :func:`choose_backend` at pool-build time.
BACKENDS = ("auto", "serial", "thread", "process")

#: ``parallel.backend`` gauge encoding (0 = serial, 1 = thread,
#: 2 = process); see docs/OBSERVABILITY.md.
BACKEND_GAUGE_VALUES = {"serial": 0, "thread": 1, "process": 2}

# Parent-side pool/cache telemetry (see docs/OBSERVABILITY.md).  Handles
# are created once at import; MetricsRegistry.reset() zeroes them in
# place so they stay valid across test resets.
_M_POOL_SCANS = _metrics.counter("parallel.scans")
_M_POOL_SCAN_SECONDS = _metrics.histogram("parallel.scan_seconds")
_M_POOL_WAIT_SECONDS = _metrics.histogram("parallel.shard_wait_seconds")
_M_POOL_ROUND_TRIPS = _metrics.counter("parallel.worker_round_trips")
_M_DISPATCH_ROUND_TRIPS = _metrics.counter("parallel.dispatch_round_trips")
_M_BACKEND = _metrics.gauge("parallel.backend")
_M_POOL_LOADS = _metrics.counter("parallel.arena_loads")
_M_DELTA_LOADS = _metrics.counter("arena.delta_loads")
_M_POOL_ROWS = _metrics.gauge("parallel.arena_rows")
_M_ERR_SHM_RELEASE = _metrics.counter("errors_absorbed.parallel.shm_release")
_M_ERR_POOL_CLOSE = _metrics.counter("errors_absorbed.parallel.pool_close")
_M_ERR_METRICS_MERGE = _metrics.counter(
    "errors_absorbed.parallel.metrics_merge"
)


class ParallelScanError(RuntimeError):
    """The worker pool failed (dead worker, timeout, protocol error).

    Callers treat this as "pool unusable": the engine answers the query
    through the serial scan and rebuilds or disables the pool.

    ``kind`` classifies the failure for telemetry and error accounting:

    - ``"crash"`` — a worker process died mid-conversation (EOF/EPIPE
      on its pipe); the engine books these under
      ``errors_absorbed.parallel_worker_crash``.
    - ``"timeout"`` — no reply within ``response_timeout``.
    - ``"protocol"`` — the worker answered, but with an error payload.
    - ``"closed"`` — the pool was used after :meth:`close`.
    - ``"state"`` — the pool has no arena loaded.
    """

    def __init__(self, message: str, kind: str = "state") -> None:
        super().__init__(message)
        self.kind = kind


def available_cores() -> int:
    """Cores this process may actually run on.

    ``os.sched_getaffinity`` honors cgroup/container CPU masks;
    ``os.cpu_count`` (the fallback on platforms without affinity) counts
    the whole machine and over-reports inside restricted containers —
    the oversubscription that benched a 2-worker pool on a 1-CPU host.
    """
    if hasattr(os, "sched_getaffinity"):
        try:
            return max(1, len(os.sched_getaffinity(0)))
        except OSError:
            pass
    return os.cpu_count() or 1


def hamming_kernel_releases_gil() -> bool:
    """True when the Hamming kernel's popcount is GIL-releasing numpy
    (``np.bitwise_count``, numpy >= 2.0) — the precondition for the
    thread backend to scale instead of serializing on the lock."""
    return _HAS_BITWISE_COUNT


@dataclass
class ParallelConfig:
    """Knobs of the parallel filtering scan.

    Parameters
    ----------
    num_workers:
        Worker count; ``None`` means one per *available* core
        (:func:`available_cores`, affinity-aware).  A resolved count of
        1 disables the pool (a single worker only adds dispatch cost).
    shard_rows:
        Rows per contiguous shard; ``None`` splits the arena evenly into
        one shard per worker.
    min_segments:
        Auto-enable threshold: the engine only spins a pool up once the
        store holds at least this many live segments — below it the
        serial scan wins on dispatch overhead alone.
    backend:
        ``"auto"`` (default) resolves through :func:`choose_backend`;
        ``"serial"`` forces the in-process scan; ``"thread"`` /
        ``"process"`` force a pool implementation.  Live-tunable via the
        server's ``setparam parallel backend=...``.
    start_method:
        ``multiprocessing`` start method (process backend only);
        ``None`` picks ``fork`` when available and ``spawn`` otherwise.
    response_timeout:
        Seconds to wait for a worker reply before declaring the pool
        broken.
    cache_entries:
        Capacity of the engine's query-result LRU cache (0 disables).
    enabled:
        Master switch; the server's ``setparam parallel`` toggles it.
    """

    num_workers: Optional[int] = None
    shard_rows: Optional[int] = None
    min_segments: int = 50_000
    backend: str = "auto"
    start_method: Optional[str] = None
    response_timeout: float = 60.0
    cache_entries: int = 256
    enabled: bool = True

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown parallel backend {self.backend!r}; "
                f"expected one of {BACKENDS}"
            )

    def effective_workers(self) -> int:
        if self.num_workers is not None:
            return max(1, int(self.num_workers))
        return available_cores()


#: Work floor (distance evaluations per batch: query rows x arena rows)
#: below which a *process* pool cannot amortize its per-batch IPC even
#: on a large arena; threads dispatch for microseconds and skip it.
_MIN_PROCESS_WORK = 2_000_000


def choose_backend(
    cfg: ParallelConfig,
    n_rows: int,
    batch_rows: int = 1,
    cores: Optional[int] = None,
) -> str:
    """Resolve ``cfg.backend`` for one scan shape: the ``auto`` cost model.

    ``n_rows`` is the arena size (live store segments), ``batch_rows``
    the stacked query rows of the batch about to be scanned, ``cores``
    the parallelism actually available (defaults to ``num_workers`` when
    the operator pinned one, else :func:`available_cores` — an explicit
    worker count is a statement that the parallelism exists).

    Decision order:

    1. disabled, a single core, or an arena under ``min_segments``
       -> ``serial`` (no parallelism to win, or dispatch dominates);
    2. GIL-releasing Hamming kernel -> ``thread`` (zero-copy arena
       sharing, no IPC, no arena duplication);
    3. enough per-batch work to amortize one fused round trip per
       worker -> ``process``;
    4. otherwise ``serial`` — a LUT-popcount build scanning small
       batches loses more to IPC than it gains from cores.
    """
    if not cfg.enabled:
        return "serial"
    if cfg.backend != "auto":
        return cfg.backend
    if cores is None:
        cores = (
            cfg.effective_workers()
            if cfg.num_workers is not None
            else available_cores()
        )
    if cores < 2 or n_rows < cfg.min_segments:
        return "serial"
    if hamming_kernel_releases_gil():
        return "thread"
    if n_rows * max(1, batch_rows) >= _MIN_PROCESS_WORK:
        return "process"
    return "serial"


def _arena_capacity(n_rows: int) -> int:
    """Physical rows to allocate for an arena of ``n_rows`` logical rows.

    The headroom is what lets :meth:`load_delta` append in place; once a
    delta would overflow it, the pool reports "cannot apply" and the
    caller full-loads — which re-allocates with fresh headroom.
    """
    return n_rows + max(n_rows // 2, 1024)


def _resolve_start_method(name: Optional[str]) -> str:
    available = multiprocessing.get_all_start_methods()
    if name is not None:
        if name not in available:
            raise ValueError(
                f"start method {name!r} unavailable (have {available})"
            )
        return name
    return "fork" if "fork" in available else "spawn"


def shard_bounds(
    n_rows: int, num_workers: int, shard_rows: Optional[int] = None
) -> List[List[Tuple[int, int]]]:
    """Per-worker lists of contiguous ``(start, stop)`` row ranges.

    Deterministic in its inputs and shared by both pool backends, so a
    thread pool and a process pool with the same geometry scan the same
    shards — a precondition for their bit-identical merges.
    """
    if shard_rows is not None and shard_rows > 0:
        rows_per_shard = shard_rows
    else:
        rows_per_shard = max(1, -(-n_rows // num_workers))
    per_worker: List[List[Tuple[int, int]]] = [[] for _ in range(num_workers)]
    shard = 0
    for start in range(0, n_rows, rows_per_shard):
        stop = min(start + rows_per_shard, n_rows)
        per_worker[shard % num_workers].append((start, stop))
        shard += 1
    return per_worker


def _merge_topk(
    parts_d: List[np.ndarray],
    parts_id: List[np.ndarray],
    k: int,
    n_queries: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Deterministic cross-shard merge of per-shard top-k lists."""
    if not parts_d:
        return (
            np.empty((n_queries, 0), dtype=np.uint32),
            np.empty((n_queries, 0), dtype=np.int64),
        )
    if len(parts_d) == 1:
        return parts_d[0], parts_id[0]
    all_d = np.concatenate(parts_d, axis=1)
    all_id = np.concatenate(parts_id, axis=1)
    kk = min(k, all_d.shape[1])
    sel = select_k_smallest(all_d, kk, ids=all_id)
    return (
        np.take_along_axis(all_d, sel, axis=1),
        np.take_along_axis(all_id, sel, axis=1),
    )


# ----------------------------------------------------------------------
# Fused scan codec (process backend)
#
# A scan batch crosses the pipe as ONE binary message per direction:
# magic + packed header + raw array bytes, no pickling of the numpy
# payload.  Control messages (load/metrics/info/stop) stay pickled
# tuples — Connection.send() produces pickle bytes, so the worker can
# receive everything through recv_bytes() and dispatch on the magic.
# ----------------------------------------------------------------------
_SCAN_MAGIC = b"FSB1"
_REPLY_MAGIC = b"FSR1"
_SCAN_HEADER = struct.Struct("<IIIdII")  # n_queries, n_words, k, t_sent,
#                                          has_thresholds, origin_len
_REPLY_HEADER = struct.Struct("<IIdd")  # n_queries, kk, queue_wait, compute


def _pack_scan_request(
    queries: np.ndarray,
    k: int,
    thresholds: Optional[np.ndarray],
    t_sent: float,
    origin: str,
) -> bytes:
    origin_bytes = origin.encode("utf-8")
    parts = [
        _SCAN_MAGIC,
        _SCAN_HEADER.pack(
            queries.shape[0], queries.shape[1], k, t_sent,
            int(thresholds is not None), len(origin_bytes),
        ),
        np.ascontiguousarray(queries, dtype=np.uint64).tobytes(),
    ]
    if thresholds is not None:
        parts.append(
            np.ascontiguousarray(thresholds, dtype=np.float64).tobytes()
        )
    parts.append(origin_bytes)
    return b"".join(parts)


def _unpack_scan_request(buf: bytes):
    view = memoryview(buf)[len(_SCAN_MAGIC):]
    (n_queries, n_words, k, t_sent, has_thresholds, origin_len) = (
        _SCAN_HEADER.unpack_from(view, 0)
    )
    offset = _SCAN_HEADER.size
    q_bytes = n_queries * n_words * 8
    queries = np.frombuffer(
        view, dtype=np.uint64, count=n_queries * n_words, offset=offset
    ).reshape(n_queries, n_words)
    offset += q_bytes
    thresholds = None
    if has_thresholds:
        thresholds = np.frombuffer(
            view, dtype=np.float64, count=n_queries, offset=offset
        )
        offset += n_queries * 8
    origin = bytes(view[offset : offset + origin_len]).decode("utf-8")
    return queries, k, thresholds, t_sent, origin


def _pack_scan_reply(
    dists: np.ndarray,
    rows: np.ndarray,
    queue_wait: float,
    compute: float,
    delta,
) -> bytes:
    return b"".join(
        [
            _REPLY_MAGIC,
            _REPLY_HEADER.pack(
                dists.shape[0], dists.shape[1], queue_wait, compute
            ),
            np.ascontiguousarray(dists, dtype=np.uint32).tobytes(),
            np.ascontiguousarray(rows, dtype=np.int64).tobytes(),
            pickle.dumps(delta, protocol=pickle.HIGHEST_PROTOCOL),
        ]
    )


def _unpack_scan_reply(buf: bytes):
    view = memoryview(buf)[len(_REPLY_MAGIC):]
    n_queries, kk, queue_wait, compute = _REPLY_HEADER.unpack_from(view, 0)
    offset = _REPLY_HEADER.size
    # Copy out of the message buffer: the arrays outlive it (merge,
    # owners_of) and downstream masking writes into the distance matrix.
    dists = np.frombuffer(
        view, dtype=np.uint32, count=n_queries * kk, offset=offset
    ).reshape(n_queries, kk).copy()
    offset += n_queries * kk * 4
    rows = np.frombuffer(
        view, dtype=np.int64, count=n_queries * kk, offset=offset
    ).reshape(n_queries, kk).copy()
    offset += n_queries * kk * 8
    delta = pickle.loads(view[offset:])
    stats = {"queue_wait": queue_wait, "compute": compute}
    return dists, rows, stats, delta


# ----------------------------------------------------------------------
# Worker side (process backend)
# ----------------------------------------------------------------------
def _attach_shm(name: str):
    # The parent owns the blocks' lifetime — workers only ever close()
    # their maps.  Attaching must therefore NOT register the name with
    # the (shared) resource tracker: tracker messages from parent and
    # child interleave arbitrarily, so a child register racing a parent
    # unregister leaves phantom "leaked" names (bpo-38119).  Python 3.13
    # exposes this as ``track=False``; on older versions the register
    # call is suppressed for the duration of the attach.
    from multiprocessing import resource_tracker, shared_memory

    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        pass
    original_register = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original_register


def _worker_main(conn, quiet: bool = False, metrics_enabled: bool = True) -> None:
    """Persistent worker loop: attach shards, answer sub-scans.

    ``quiet``/``metrics_enabled`` are the parent's logger and registry
    switches at spawn time — a spawn-mode worker re-imports everything,
    so without them it would re-enable banner logging the operator
    turned off and run its registry in the wrong state.

    Every message arrives through ``recv_bytes`` and is dispatched on a
    magic prefix: scan requests are fused binary frames
    (:func:`_pack_scan_request`) answered with one fused reply carrying
    the local top-k, queue-wait/compute stats, and this worker's
    registry delta (:func:`delta_snapshots`) — one round trip per batch.
    Anything else is a pickled control tuple:

    - ``("load", sketch_shm, owner_shm, n_rows, n_words, bounds,
      cap_rows)`` — attach the arena (allocated at ``cap_rows`` capacity
      so later deltas fit in place) and view the ``bounds`` row ranges;
      ack ``("ok",)``.
    - ``("delta", n_rows, bounds)`` — re-cut shard views over the
      already-attached arena after the parent wrote appended rows /
      tombstones directly into shared memory; ack ``("ok",)``.  No row
      bytes cross the pipe — that is the point.
    - ``("metrics",)`` — on-demand delta export; reply ``("ok", delta)``.
    - ``("info",)`` — reply ``("ok", {pid, name, quiet,
      metrics_enabled})`` (used by tests and ``parallel_info``).
    - ``("stop",)`` — exit.
    """
    _log.set_quiet(quiet)
    registry = _metrics.get_registry()
    registry.enabled = bool(metrics_enabled)
    # Worker-side instruments live here, not at module level, so the
    # parent process never registers zero-valued `scan.*` series.
    w_requests = registry.counter("scan.requests")
    w_rows = registry.counter("scan.rows")
    w_compute = registry.histogram("scan.compute_seconds")
    w_queue_wait = registry.histogram("scan.queue_wait_seconds")
    w_arena_loads = registry.counter("arena.loads")
    w_arena_deltas = registry.counter("arena.delta_loads")
    w_ooc_scans = registry.counter("outofcore.scans")
    w_ooc_rows = registry.counter("outofcore.rows_scanned")
    # Fork-mode workers inherit the parent registry's live values, so
    # export *deltas against this baseline* — a worker only ever ships
    # what it did itself.
    prev_snap = registry.snapshot()

    def _export_delta():
        nonlocal prev_snap
        cur = registry.snapshot()
        delta = _metrics.delta_snapshots(prev_snap, cur)
        prev_snap = cur
        return delta

    shms: list = []
    shards: List[Tuple[int, np.ndarray, np.ndarray]] = []
    arena_owners: Optional[np.ndarray] = None
    arena_sketches: Optional[np.ndarray] = None
    n_shard_rows = 0
    while True:
        try:
            buf = conn.recv_bytes()
        except (EOFError, OSError):
            break
        if buf[:4] == _SCAN_MAGIC:
            try:
                queries, k, thresholds, t_sent, origin = (
                    _unpack_scan_request(buf)
                )
                queue_wait = max(0.0, time.time() - t_sent)
                compute_started = time.perf_counter()
                dists, rows = _scan_shards(shards, queries, k, thresholds)
                compute = time.perf_counter() - compute_started
                w_requests.inc()
                w_rows.inc(n_shard_rows * queries.shape[0])
                w_compute.observe(compute)
                w_queue_wait.observe(queue_wait)
                if origin == "outofcore":
                    w_ooc_scans.inc()
                    w_ooc_rows.inc(n_shard_rows * queries.shape[0])
                conn.send_bytes(
                    _pack_scan_reply(
                        dists, rows, queue_wait, compute, _export_delta()
                    )
                )
            except Exception as exc:  # keep the loop alive; parent decides
                try:
                    conn.send(("err", f"{type(exc).__name__}: {exc}"))
                except (BrokenPipeError, OSError):
                    break
            continue
        try:
            msg = pickle.loads(buf)
        except Exception:
            try:
                conn.send(("err", "undecodable control message"))
            except (BrokenPipeError, OSError):
                break
            continue
        kind = msg[0]
        try:
            if kind == "stop":
                conn.send(("ok",))
                break
            elif kind == "load":
                (_, sketch_name, owner_name, n_rows, n_words, bounds,
                 cap_rows) = msg
                for shm in shms:
                    shm.close()
                shms = []
                shards = []
                arena_owners = None
                arena_sketches = None
                n_shard_rows = 0
                if n_rows:
                    sk_shm = _attach_shm(sketch_name)
                    ow_shm = _attach_shm(owner_name)
                    shms = [sk_shm, ow_shm]
                    # Map the whole capacity, not just the loaded rows:
                    # a later ("delta", ...) re-cuts shard views past
                    # n_rows without reattaching.
                    arena_sketches = np.ndarray(
                        (cap_rows, n_words), dtype=np.uint64, buffer=sk_shm.buf
                    )
                    arena_owners = np.ndarray(
                        (cap_rows,), dtype=np.int64, buffer=ow_shm.buf
                    )
                    shards = [
                        (start, arena_owners[start:stop],
                         arena_sketches[start:stop])
                        for start, stop in bounds
                    ]
                    n_shard_rows = sum(stop - start for start, stop in bounds)
                w_arena_loads.inc()
                conn.send(("ok",))
            elif kind == "delta":
                _, n_rows, bounds = msg
                if arena_owners is None or arena_sketches is None:
                    conn.send(("err", "delta before load"))
                    continue
                if n_rows > arena_owners.shape[0]:
                    conn.send(("err", "delta exceeds arena capacity"))
                    continue
                shards = [
                    (start, arena_owners[start:stop],
                     arena_sketches[start:stop])
                    for start, stop in bounds
                ]
                n_shard_rows = sum(stop - start for start, stop in bounds)
                w_arena_deltas.inc()
                conn.send(("ok",))
            elif kind == "metrics":
                conn.send(("ok", _export_delta()))
            elif kind == "info":
                conn.send(
                    (
                        "ok",
                        {
                            "pid": os.getpid(),
                            "name": multiprocessing.current_process().name,
                            "quiet": _log.is_quiet(),
                            "metrics_enabled": registry.enabled,
                        },
                    )
                )
            else:
                conn.send(("err", f"unknown message kind {kind!r}"))
        except Exception as exc:  # keep the loop alive; parent decides
            try:
                conn.send(("err", f"{type(exc).__name__}: {exc}"))
            except (BrokenPipeError, OSError):
                break
    for shm in shms:
        try:
            shm.close()
        except (OSError, BufferError):
            # A vanished map or an exported view must not mask the exit
            # path; anything else (a bug) is allowed to surface in the
            # worker's traceback.
            pass
    try:
        conn.close()
    except OSError:
        pass


def _scan_shards(
    shards: Sequence[Tuple[int, np.ndarray, np.ndarray]],
    queries: np.ndarray,
    k: int,
    thresholds: Optional[np.ndarray],
) -> Tuple[np.ndarray, np.ndarray]:
    """Deterministic top-k over one worker's shards (both backends).

    Returns ``(dists, global_rows)``, each ``(n_queries, <=k)``.  Dead
    rows (owner < 0) — and, when ``thresholds`` is given, rows beyond
    the per-query threshold — are masked to the sentinel before
    selection, mirroring the serial scan's masking order.
    """
    n_queries = np.atleast_2d(queries).shape[0]
    parts_d: List[np.ndarray] = []
    parts_id: List[np.ndarray] = []
    for start, owners, sketches in shards:
        if sketches.shape[0] == 0:
            continue
        dists = hamming_many_to_many(queries, sketches)
        dead = owners < 0
        if dead.any():
            dists[:, dead] = _SENTINEL
        if thresholds is not None:
            dists[np.greater(dists, thresholds[:, None])] = _SENTINEL
        kk = min(k, sketches.shape[0])
        sel = select_k_smallest(dists, kk)
        parts_d.append(np.take_along_axis(dists, sel, axis=1))
        parts_id.append(np.asarray(sel, dtype=np.int64) + start)
    return _merge_topk(parts_d, parts_id, k, n_queries)


# ----------------------------------------------------------------------
# Parent side: process-backed pool
# ----------------------------------------------------------------------
class ParallelFilterPool:
    """Persistent worker-process pool over a shared-memory shard arena.

    Lifecycle: workers are spawned lazily on the first :meth:`load`;
    each ``load`` copies a consistent ``(owners, sketches)`` snapshot
    into fresh shared-memory blocks, reassigns shards, and retires the
    previous arena once every worker acked the switch.  :meth:`close`
    stops the workers and unlinks the arena; the pool is also a context
    manager.  All public methods are thread-safe.
    """

    backend = "process"

    def __init__(
        self,
        num_workers: Optional[int] = None,
        shard_rows: Optional[int] = None,
        start_method: Optional[str] = None,
        response_timeout: float = 60.0,
    ) -> None:
        cfg = ParallelConfig(num_workers=num_workers)
        self.num_workers = cfg.effective_workers()
        self.shard_rows = shard_rows
        self.response_timeout = response_timeout
        self._ctx = multiprocessing.get_context(
            _resolve_start_method(start_method)
        )
        self._lock = threading.RLock()
        self._workers: List[Tuple[object, object]] = []  # (process, conn)
        self._shm: List[object] = []
        self._epoch: Optional[object] = None
        self._loaded = False
        self._owners: Optional[np.ndarray] = None
        # Parent-side views over the live shm blocks ([:_cap_rows]); the
        # delta path writes appended rows and tombstones through them.
        self._sk_view: Optional[np.ndarray] = None
        self._ow_view: Optional[np.ndarray] = None
        self._cap_rows = 0
        self._n_rows = 0
        self._n_alive = 0
        self._n_shards = 0
        self._closed = False

    # -- lifecycle ------------------------------------------------------
    def _ensure_workers(self) -> None:
        if self._workers:
            return
        if self._closed:
            raise ParallelScanError("pool is closed", kind="closed")
        # Workers inherit the parent's operational switches at spawn
        # time (fork shares them for free; spawn re-imports and must be
        # told), so `--quiet` and `setparam metrics off` hold across the
        # whole process tree.
        quiet = _log.is_quiet()
        metrics_enabled = _metrics.get_registry().enabled
        for i in range(self.num_workers):
            parent_conn, child_conn = self._ctx.Pipe()
            proc = self._ctx.Process(
                target=_worker_main,
                args=(child_conn, quiet, metrics_enabled),
                daemon=True,
                name=f"ferret-scan-{i}",
            )
            proc.start()
            child_conn.close()
            self._workers.append((proc, parent_conn))

    def _recv(self, conn, what: str):
        if not conn.poll(self.response_timeout):
            raise ParallelScanError(
                f"worker timed out on {what}", kind="timeout"
            )
        try:
            reply = conn.recv()
        except (EOFError, OSError) as exc:
            raise ParallelScanError(
                f"worker died during {what}: {exc}", kind="crash"
            ) from exc
        if reply[0] != "ok":
            raise ParallelScanError(
                f"worker error during {what}: {reply[1]}", kind="protocol"
            )
        return reply

    def _recv_scan(self, conn):
        """One fused scan reply (or a pickled worker-error tuple)."""
        if not conn.poll(self.response_timeout):
            raise ParallelScanError("worker timed out on scan", kind="timeout")
        try:
            buf = conn.recv_bytes()
        except (EOFError, OSError) as exc:
            raise ParallelScanError(
                f"worker died during scan: {exc}", kind="crash"
            ) from exc
        if buf[:4] == _REPLY_MAGIC:
            return _unpack_scan_reply(buf)
        try:
            reply = pickle.loads(buf)
        except Exception as exc:
            raise ParallelScanError(
                f"undecodable scan reply: {exc}", kind="protocol"
            ) from exc
        raise ParallelScanError(
            f"worker error during scan: {reply[1] if len(reply) > 1 else reply}",
            kind="protocol",
        )

    def _send(self, conn, msg, what: str) -> None:
        try:
            conn.send(msg)
        except (BrokenPipeError, OSError) as exc:
            raise ParallelScanError(
                f"worker died during {what}: {exc}", kind="crash"
            ) from exc

    def _send_bytes(self, conn, payload: bytes, what: str) -> None:
        try:
            conn.send_bytes(payload)
        except (BrokenPipeError, OSError) as exc:
            raise ParallelScanError(
                f"worker died during {what}: {exc}", kind="crash"
            ) from exc

    def load(
        self,
        owners: np.ndarray,
        sketches: np.ndarray,
        epoch: Optional[object] = None,
    ) -> None:
        """Copy a snapshot into a fresh arena and reshard the workers.

        ``epoch`` is an opaque staleness token (the segment store's
        mutation counter); :meth:`matches` compares against it so the
        engine can rebuild on insert/delete.
        """
        from multiprocessing import shared_memory

        owners = np.ascontiguousarray(owners, dtype=np.int64)
        sketches = np.ascontiguousarray(sketches, dtype=np.uint64)
        if sketches.ndim != 2 or owners.shape[0] != sketches.shape[0]:
            raise ValueError("owners and sketches must be parallel arrays")
        n_rows, n_words = sketches.shape
        with self._lock:
            if self._closed:
                raise ParallelScanError("pool is closed", kind="closed")
            old_shm = self._shm
            new_shm: List[object] = []
            sk_view: Optional[np.ndarray] = None
            ow_view: Optional[np.ndarray] = None
            cap_rows = 0
            n_shards = 0
            if n_rows:
                self._ensure_workers()
                # Over-allocate so later deltas append in place instead
                # of rebuilding the blocks (see _arena_capacity).
                cap_rows = _arena_capacity(n_rows)
                sk_shm = shared_memory.SharedMemory(
                    create=True, size=cap_rows * n_words * 8
                )
                ow_shm = shared_memory.SharedMemory(
                    create=True, size=cap_rows * 8
                )
                new_shm = [sk_shm, ow_shm]
                sk_view = np.ndarray(
                    (cap_rows, n_words), dtype=np.uint64, buffer=sk_shm.buf
                )
                ow_view = np.ndarray(
                    (cap_rows,), dtype=np.int64, buffer=ow_shm.buf
                )
                sk_view[:n_rows] = sketches
                ow_view[:n_rows] = owners
                ow_view[n_rows:] = -1
                bounds = shard_bounds(n_rows, self.num_workers, self.shard_rows)
                n_shards = sum(len(ranges) for ranges in bounds)
                try:
                    for (proc, conn), ranges in zip(self._workers, bounds):
                        self._send(
                            conn,
                            ("load", sk_shm.name, ow_shm.name, n_rows,
                             n_words, ranges, cap_rows),
                            "load",
                        )
                    for proc, conn in self._workers:
                        self._recv(conn, "load")
                except ParallelScanError:
                    self._release_shm(new_shm)
                    raise
            self._shm = new_shm
            self._sk_view = sk_view
            self._ow_view = ow_view
            self._cap_rows = cap_rows
            # Private owner copy (capacity-sized): owners_of must keep
            # working even while/after the shm blocks are retired.
            owners_priv = np.full(max(cap_rows, n_rows), -1, dtype=np.int64)
            owners_priv[:n_rows] = owners
            self._owners = owners_priv
            self._n_rows = n_rows
            self._n_alive = int((owners >= 0).sum())
            self._n_shards = n_shards
            self._epoch = epoch
            self._loaded = True
            self._release_shm(old_shm)
            _M_POOL_LOADS.inc()
            _M_POOL_ROWS.set(n_rows)

    def load_delta(
        self,
        new_owners: np.ndarray,
        new_sketches: np.ndarray,
        from_epoch: object,
        to_epoch: object,
        dead_rows: Optional[np.ndarray] = None,
        base_rows: Optional[int] = None,
    ) -> bool:
        """Apply an arena delta in place; returns ``True`` if applied.

        Appended rows and tombstones are written directly into the
        shared-memory blocks (no row bytes cross the pipe); each worker
        only receives a tiny ``("delta", n_rows, bounds)`` control
        message re-cutting its shard views.  Returns ``False`` — and
        leaves the pool untouched — when the delta cannot be applied
        (epoch mismatch, no arena, capacity overflow): the caller then
        falls back to a full :meth:`load`.  Infrastructure failures
        (dead worker, timeout) raise :class:`ParallelScanError` exactly
        like a full load would.
        """
        new_owners = np.ascontiguousarray(new_owners, dtype=np.int64)
        new_sketches = np.ascontiguousarray(new_sketches, dtype=np.uint64)
        if new_sketches.ndim != 2 or new_owners.shape[0] != new_sketches.shape[0]:
            raise ValueError("owners and sketches must be parallel arrays")
        n_new = new_owners.shape[0]
        with self._lock:
            if self._closed:
                raise ParallelScanError("pool is closed", kind="closed")
            if (
                not self._loaded
                or self._ow_view is None
                or self._sk_view is None
                or not self._workers
            ):
                return False
            if self._epoch != from_epoch:
                return False
            if base_rows is not None and base_rows != self._n_rows:
                return False
            if n_new and new_sketches.shape[1] != self._sk_view.shape[1]:
                return False
            n0 = self._n_rows
            new_n = n0 + n_new
            if new_n > self._cap_rows:
                return False
            dead = (
                np.asarray(dead_rows, dtype=np.int64)
                if dead_rows is not None
                else np.empty(0, dtype=np.int64)
            )
            if dead.size and (dead.min() < 0 or dead.max() >= n0):
                return False
            # The protocol lock guarantees no scan is in flight, so the
            # workers observe these writes only after acking the delta.
            if n_new:
                self._sk_view[n0:new_n] = new_sketches
                self._ow_view[n0:new_n] = new_owners
                self._owners[n0:new_n] = new_owners
            if dead.size:
                self._ow_view[dead] = -1
                self._owners[dead] = -1
            bounds = shard_bounds(new_n, self.num_workers, self.shard_rows)
            for (proc, conn), ranges in zip(self._workers, bounds):
                self._send(conn, ("delta", new_n, ranges), "delta load")
            for proc, conn in self._workers:
                self._recv(conn, "delta load")
            self._n_rows = new_n
            self._n_alive += int((new_owners >= 0).sum()) - int(dead.size)
            self._n_shards = sum(len(ranges) for ranges in bounds)
            self._epoch = to_epoch
            _M_DELTA_LOADS.inc()
            _M_POOL_ROWS.set(new_n)
            return True

    @staticmethod
    def _release_shm(blocks) -> None:
        for shm in blocks:
            try:
                shm.close()
                shm.unlink()
            except FileNotFoundError:
                pass
            except (OSError, BufferError):
                # Already-unlinked blocks and still-exported buffer views
                # are expected during teardown races; count them instead
                # of hiding every exception type.
                _M_ERR_SHM_RELEASE.inc()

    def matches(self, epoch: object) -> bool:
        """True when the arena was loaded from exactly this epoch."""
        with self._lock:
            return self._loaded and self._epoch == epoch

    @property
    def loaded_epoch(self) -> Optional[object]:
        with self._lock:
            return self._epoch if self._loaded else None

    @property
    def n_rows(self) -> int:
        return self._n_rows

    @property
    def n_alive(self) -> int:
        return self._n_alive

    @property
    def n_shards(self) -> int:
        """Shards in the loaded arena (dispatch_round_trips' upper bound
        is one message per *worker*, which never exceeds this)."""
        return self._n_shards

    def owners_of(self, rows: np.ndarray) -> np.ndarray:
        """Owner ids of global row numbers (parent-side lookup)."""
        if self._owners is None:
            raise ParallelScanError("pool has no arena loaded", kind="state")
        return self._owners[rows]

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for proc, conn in self._workers:
                try:
                    conn.send(("stop",))
                except OSError:
                    # Dead worker / closed pipe: join+terminate below
                    # still reaps it.
                    _M_ERR_POOL_CLOSE.inc()
            for proc, conn in self._workers:
                proc.join(timeout=2.0)
                if proc.is_alive():
                    proc.terminate()
                    proc.join(timeout=1.0)
                try:
                    conn.close()
                except OSError:
                    _M_ERR_POOL_CLOSE.inc()
            self._workers = []
            # Drop the exported views before unlinking, or the buffer
            # protocol keeps the mapping alive and close() raises.
            self._sk_view = None
            self._ow_view = None
            self._release_shm(self._shm)
            self._shm = []
            self._loaded = False

    def __enter__(self) -> "ParallelFilterPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __del__(self) -> None:  # best-effort; engine/system call close()
        try:
            self.close()
        except Exception:
            pass

    # -- cross-process telemetry ----------------------------------------
    def _fold_delta(self, worker_index: int, delta) -> None:
        """Fold one worker's registry delta into the parent registry as
        ``worker.<i>.*`` plus the merged ``workers.*`` roll-up.  Both
        merges are additive over deltas, so the roll-up equals the sum
        of the per-worker series regardless of arrival order."""
        if not delta:
            return
        registry = _metrics.get_registry()
        try:
            registry.merge_snapshot(delta, prefix=f"worker.{worker_index}.")
            registry.merge_snapshot(delta, prefix="workers.")
        except ValueError:
            # A type/bounds conflict in telemetry must never fail the
            # scan that carried it.
            _M_ERR_METRICS_MERGE.inc()

    def fetch_worker_metrics(self) -> int:
        """On-demand metric pull: ask every worker for its registry
        delta and fold the results.  Returns the number of workers
        polled (0 when the pool has never spawned).  The `metrics` and
        `stat` server commands call this so a dump reflects worker
        activity even between scans."""
        with self._lock:
            if self._closed or not self._workers:
                return 0
            for proc, conn in self._workers:
                self._send(conn, ("metrics",), "metrics")
            deltas = []
            for proc, conn in self._workers:
                reply = self._recv(conn, "metrics")
                deltas.append(reply[1])
        for i, delta in enumerate(deltas):
            self._fold_delta(i, delta)
        return len(deltas)

    def worker_info(self) -> List[Dict[str, object]]:
        """Per-worker runtime state (pid, process name, quiet flag,
        metrics switch) straight from each worker process."""
        with self._lock:
            if self._closed or not self._workers:
                return []
            for proc, conn in self._workers:
                self._send(conn, ("info",), "info")
            return [dict(self._recv(conn, "info")[1])
                    for proc, conn in self._workers]

    # -- scanning -------------------------------------------------------
    def scan_topk(
        self,
        queries: np.ndarray,
        k: int,
        thresholds: Optional[np.ndarray] = None,
        origin: str = "filter",
        trace=None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Global deterministic top-k rows per query sketch.

        ``queries`` is ``(n_queries, n_words)``; returns
        ``(dists, global_rows)`` of shape ``(n_queries, <=k)``.  When
        ``thresholds`` (one per query row) is given, rows beyond the
        threshold are masked *before* selection — the out-of-core scan's
        semantics; the in-memory filter thresholds after selection
        instead and passes ``None`` here.  Entries may include masked
        sentinel distances when fewer than ``k`` rows qualify; callers
        filter on the sentinel / owner sign.

        The whole batch travels to each worker as ONE fused binary
        message and comes back as one fused reply — the dispatch cost of
        a batch is ``num_workers`` round trips total, booked under
        ``parallel.dispatch_round_trips``, regardless of how many
        queries the batch stacks.

        ``origin`` labels the request for worker-side accounting (the
        out-of-core store passes ``"outofcore"`` so workers count
        ``outofcore.scans``).  ``trace``, when given a
        :class:`~repro.observability.tracing.QueryTrace`, gains one
        ``worker.<i>`` child span per worker splitting that worker's
        round trip into queue wait, compute, and reply serialization.
        """
        queries = np.atleast_2d(np.asarray(queries, dtype=np.uint64))
        if k <= 0:
            raise ValueError("k must be positive")
        if thresholds is not None:
            thresholds = np.asarray(thresholds, dtype=np.float64)
            if thresholds.shape[0] != queries.shape[0]:
                raise ValueError("need one threshold per query row")
        started = time.perf_counter()
        deltas: List[Tuple[int, object]] = []
        with self._lock:
            if self._closed:
                raise ParallelScanError("pool is closed", kind="closed")
            if not self._loaded:
                raise ParallelScanError(
                    "pool has no arena loaded", kind="state"
                )
            n_queries = queries.shape[0]
            if self._n_rows == 0:
                return (
                    np.empty((n_queries, 0), dtype=np.uint32),
                    np.empty((n_queries, 0), dtype=np.int64),
                )
            # time.time() crosses the process boundary (same host), so
            # workers can subtract it for queue wait; perf_counter does
            # not and stays parent-side.
            request = _pack_scan_request(
                queries, k, thresholds, time.time(), origin
            )
            for proc, conn in self._workers:
                self._send_bytes(conn, request, "scan")
            dispatched = time.perf_counter()
            parts_d: List[np.ndarray] = []
            parts_id: List[np.ndarray] = []
            wait_started = time.perf_counter()
            for i, (proc, conn) in enumerate(self._workers):
                d, rows, stats, delta = self._recv_scan(conn)
                deltas.append((i, delta))
                if trace is not None:
                    round_trip = time.perf_counter() - dispatched
                    queue_wait = float(stats.get("queue_wait", 0.0))
                    compute = float(stats.get("compute", 0.0))
                    trace.add_span(
                        f"worker.{i}",
                        queue_wait=queue_wait,
                        compute=compute,
                        reply=max(0.0, round_trip - queue_wait - compute),
                    )
                if d.shape[1]:
                    parts_d.append(d)
                    parts_id.append(rows)
            _M_POOL_WAIT_SECONDS.observe(time.perf_counter() - wait_started)
            _M_POOL_ROUND_TRIPS.inc(len(self._workers))
            _M_DISPATCH_ROUND_TRIPS.inc(len(self._workers))
        for i, delta in deltas:
            self._fold_delta(i, delta)
        _M_POOL_SCANS.inc()
        result = _merge_topk(parts_d, parts_id, k, n_queries)
        _M_POOL_SCAN_SECONDS.observe(time.perf_counter() - started)
        return result


# ----------------------------------------------------------------------
# Parent side: thread-backed pool
# ----------------------------------------------------------------------
class ThreadFilterPool:
    """Worker-*thread* pool sharing the arena zero-copy.

    Same contract and same deterministic results as
    :class:`ParallelFilterPool` (identical :func:`shard_bounds`
    geometry, identical :func:`_scan_shards` per worker, identical
    merge), but the arena is plain in-process numpy memory: no
    ``shared_memory`` blocks, no pickling, no pipes.  Worth it because
    the Hamming kernel's ``np.bitwise_count`` popcount releases the GIL
    (:func:`hamming_kernel_releases_gil`), so per-shard scans genuinely
    run on multiple cores.

    :meth:`load` *copies* the snapshot arrays once — the segment store
    compacts and tombstones its internal arrays in place, and the pool's
    epoch tag is only meaningful if the arena content is frozen at load
    time (this also keeps thread results bit-identical to the process
    pool, whose shared-memory copy freezes the same way).  The frozen
    sketches keep the store's word-major ``(n_words, capacity)`` layout
    and shards are transposed column slices of it, so every shard scan
    reads the arena in place.

    Teardown under load is safe: :meth:`close` drains in-flight scans
    (they only read the frozen arrays) and subsequent calls raise
    :class:`ParallelScanError` with ``kind="closed"``.
    """

    backend = "thread"

    def __init__(
        self,
        num_workers: Optional[int] = None,
        shard_rows: Optional[int] = None,
        start_method: Optional[str] = None,  # accepted for API parity
        response_timeout: float = 60.0,
    ) -> None:
        cfg = ParallelConfig(num_workers=num_workers)
        self.num_workers = cfg.effective_workers()
        self.shard_rows = shard_rows
        self.response_timeout = response_timeout
        self._lock = threading.RLock()
        self._executor: Optional[ThreadPoolExecutor] = None
        self._shards: List[List[Tuple[int, np.ndarray, np.ndarray]]] = []
        self._epoch: Optional[object] = None
        self._loaded = False
        self._owners: Optional[np.ndarray] = None
        # Capacity-sized backing arrays; _owners is their [:n_rows] view.
        self._sketch_arr: Optional[np.ndarray] = None
        self._owner_arr: Optional[np.ndarray] = None
        self._cap_rows = 0
        self._n_rows = 0
        self._n_alive = 0
        self._n_shards = 0
        self._closed = False

    # -- lifecycle ------------------------------------------------------
    def _ensure_executor(self) -> ThreadPoolExecutor:
        if self._executor is None:
            if self._closed:
                raise ParallelScanError("pool is closed", kind="closed")
            self._executor = ThreadPoolExecutor(
                max_workers=self.num_workers,
                thread_name_prefix="ferret-scan-t",
            )
        return self._executor

    def load(
        self,
        owners: np.ndarray,
        sketches: np.ndarray,
        epoch: Optional[object] = None,
    ) -> None:
        """Freeze a snapshot copy and cut it into per-worker shard views.

        The copy lands in capacity-sized arrays (see
        :func:`_arena_capacity`) so :meth:`load_delta` can append rows
        in place without reallocating or re-freezing the loaded prefix.
        """
        owners = np.asarray(owners, dtype=np.int64)
        sketches = np.asarray(sketches, dtype=np.uint64)
        if sketches.ndim != 2 or owners.shape[0] != sketches.shape[0]:
            raise ValueError("owners and sketches must be parallel arrays")
        n_rows = sketches.shape[0]
        cap_rows = _arena_capacity(n_rows)
        sketch_arr = np.empty((sketches.shape[1], cap_rows), dtype=np.uint64)
        sketch_arr[:, :n_rows] = sketches.T
        owner_arr = np.full(cap_rows, -1, dtype=np.int64)
        owner_arr[:n_rows] = owners
        bounds = shard_bounds(n_rows, self.num_workers, self.shard_rows)
        per_worker = self._cut_shards(bounds, owner_arr, sketch_arr)
        with self._lock:
            if self._closed:
                raise ParallelScanError("pool is closed", kind="closed")
            if n_rows:
                self._ensure_executor()
            self._shards = per_worker
            self._sketch_arr = sketch_arr
            self._owner_arr = owner_arr
            self._cap_rows = cap_rows
            self._owners = owner_arr[:n_rows]
            self._n_rows = n_rows
            self._n_alive = int((owners >= 0).sum())
            self._n_shards = sum(len(ranges) for ranges in bounds)
            self._epoch = epoch
            self._loaded = True
            _M_POOL_LOADS.inc()
            _M_POOL_ROWS.set(n_rows)

    @staticmethod
    def _cut_shards(bounds, owner_arr: np.ndarray, sketch_arr: np.ndarray):
        """Per-worker ``(start, owners, sketches)`` views of the arena;
        ``sketches`` is the row view of a word-major column slice."""
        return [
            [(start, owner_arr[start:stop], sketch_arr[:, start:stop].T)
             for start, stop in ranges]
            for ranges in bounds
        ]

    def load_delta(
        self,
        new_owners: np.ndarray,
        new_sketches: np.ndarray,
        from_epoch: object,
        to_epoch: object,
        dead_rows: Optional[np.ndarray] = None,
        base_rows: Optional[int] = None,
    ) -> bool:
        """Apply an arena delta in place; returns ``True`` if applied.

        Only the appended chunk is written (and re-frozen via fresh
        shard views); the loaded prefix is untouched.  Tombstones below
        the base are applied onto a copy-on-write owner array so scans
        already in flight — which captured views of the *old* array —
        never observe a torn tombstone.  Returns ``False`` and leaves
        the pool untouched when the delta cannot be applied (epoch
        mismatch, no arena, capacity overflow); the caller then falls
        back to a full :meth:`load`.
        """
        new_owners = np.ascontiguousarray(new_owners, dtype=np.int64)
        new_sketches = np.asarray(new_sketches, dtype=np.uint64)
        if new_sketches.ndim != 2 or new_owners.shape[0] != new_sketches.shape[0]:
            raise ValueError("owners and sketches must be parallel arrays")
        n_new = new_owners.shape[0]
        with self._lock:
            if self._closed:
                raise ParallelScanError("pool is closed", kind="closed")
            if (
                not self._loaded
                or self._owner_arr is None
                or self._sketch_arr is None
            ):
                return False
            if self._epoch != from_epoch:
                return False
            if base_rows is not None and base_rows != self._n_rows:
                return False
            if n_new and new_sketches.shape[1] != self._sketch_arr.shape[0]:
                return False
            n0 = self._n_rows
            new_n = n0 + n_new
            if new_n > self._cap_rows:
                return False
            dead = (
                np.asarray(dead_rows, dtype=np.int64)
                if dead_rows is not None
                else np.empty(0, dtype=np.int64)
            )
            if dead.size and (dead.min() < 0 or dead.max() >= n0):
                return False
            if n_new:
                # Rows past n0 are invisible to in-flight scans (their
                # shard views stop at the old bounds), so writing them
                # into the shared sketch/owner arrays is safe.
                self._sketch_arr[:, n0:new_n] = new_sketches.T
                self._owner_arr[n0:new_n] = new_owners
            owner_arr = self._owner_arr
            if dead.size:
                # Copy-on-write: tombstones land below n0, inside the
                # row ranges in-flight scans are reading.
                owner_arr = self._owner_arr.copy()
                owner_arr[dead] = -1
                self._owner_arr = owner_arr
            if new_n:
                self._ensure_executor()
            bounds = shard_bounds(new_n, self.num_workers, self.shard_rows)
            self._shards = self._cut_shards(bounds, owner_arr, self._sketch_arr)
            self._owners = owner_arr[:new_n]
            self._n_rows = new_n
            self._n_alive += int((new_owners >= 0).sum()) - int(dead.size)
            self._n_shards = sum(len(ranges) for ranges in bounds)
            self._epoch = to_epoch
            _M_DELTA_LOADS.inc()
            _M_POOL_ROWS.set(new_n)
            return True

    def matches(self, epoch: object) -> bool:
        """True when the arena was loaded from exactly this epoch."""
        with self._lock:
            return self._loaded and self._epoch == epoch

    @property
    def loaded_epoch(self) -> Optional[object]:
        with self._lock:
            return self._epoch if self._loaded else None

    @property
    def n_rows(self) -> int:
        return self._n_rows

    @property
    def n_alive(self) -> int:
        return self._n_alive

    @property
    def n_shards(self) -> int:
        return self._n_shards

    def owners_of(self, rows: np.ndarray) -> np.ndarray:
        """Owner ids of global row numbers."""
        owners = self._owners
        if owners is None:
            raise ParallelScanError("pool has no arena loaded", kind="state")
        return owners[rows]

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            executor, self._executor = self._executor, None
            self._shards = []
            self._loaded = False
        if executor is not None:
            # Outside the lock: in-flight scans hold references to the
            # frozen arrays and finish normally; waiting here makes
            # close() a clean barrier even under concurrent load.
            executor.shutdown(wait=True)

    def __enter__(self) -> "ThreadFilterPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __del__(self) -> None:  # best-effort; engine/system call close()
        try:
            self.close()
        except Exception:
            pass

    # -- telemetry parity ------------------------------------------------
    def fetch_worker_metrics(self) -> int:
        """Threads share the parent registry — nothing to pull."""
        return 0

    def worker_info(self) -> List[Dict[str, object]]:
        """Per-worker runtime state (all workers share this process)."""
        with self._lock:
            if self._closed:
                return []
            return [
                {
                    "pid": os.getpid(),
                    "name": f"ferret-scan-t-{i}",
                    "quiet": _log.is_quiet(),
                    "metrics_enabled": _metrics.get_registry().enabled,
                }
                for i in range(self.num_workers)
            ]

    # -- scanning -------------------------------------------------------
    def scan_topk(
        self,
        queries: np.ndarray,
        k: int,
        thresholds: Optional[np.ndarray] = None,
        origin: str = "filter",
        trace=None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Global deterministic top-k rows per query sketch.

        Same semantics as :meth:`ParallelFilterPool.scan_topk`.  The
        arena snapshot is read under the lock but the shard scans run
        *outside* it — concurrent callers and a concurrent :meth:`load`
        are safe because each scan works on the frozen arrays it
        captured.  No dispatch round trips are booked: thread handoff is
        not IPC.
        """
        queries = np.atleast_2d(np.asarray(queries, dtype=np.uint64))
        if k <= 0:
            raise ValueError("k must be positive")
        if thresholds is not None:
            thresholds = np.asarray(thresholds, dtype=np.float64)
            if thresholds.shape[0] != queries.shape[0]:
                raise ValueError("need one threshold per query row")
        started = time.perf_counter()
        with self._lock:
            if self._closed:
                raise ParallelScanError("pool is closed", kind="closed")
            if not self._loaded:
                raise ParallelScanError(
                    "pool has no arena loaded", kind="state"
                )
            n_queries = queries.shape[0]
            if self._n_rows == 0:
                return (
                    np.empty((n_queries, 0), dtype=np.uint32),
                    np.empty((n_queries, 0), dtype=np.int64),
                )
            executor = self._ensure_executor()
            shard_lists = [s for s in self._shards if s]
        try:
            futures = [
                executor.submit(_scan_shards, shards, queries, k, thresholds)
                for shards in shard_lists
            ]
        except RuntimeError as exc:  # shutdown raced the submit
            raise ParallelScanError(
                f"pool is closed: {exc}", kind="closed"
            ) from exc
        parts_d: List[np.ndarray] = []
        parts_id: List[np.ndarray] = []
        wait_started = time.perf_counter()
        for i, future in enumerate(futures):
            try:
                d, rows = future.result(timeout=self.response_timeout)
            except _FutureTimeout as exc:
                raise ParallelScanError(
                    "worker timed out on scan", kind="timeout"
                ) from exc
            if trace is not None:
                trace.add_span(
                    f"worker.{i}",
                    seconds=time.perf_counter() - wait_started,
                )
            if d.shape[1]:
                parts_d.append(d)
                parts_id.append(rows)
        _M_POOL_WAIT_SECONDS.observe(time.perf_counter() - wait_started)
        _M_POOL_SCANS.inc()
        result = _merge_topk(parts_d, parts_id, k, n_queries)
        _M_POOL_SCAN_SECONDS.observe(time.perf_counter() - started)
        return result


#: Either pool implementation — they share one duck-typed contract
#: (``load`` / ``scan_topk`` / ``matches`` / ``owners_of`` / ``close``).
FilterPool = Union[ParallelFilterPool, ThreadFilterPool]


def make_pool(
    backend: str,
    num_workers: Optional[int] = None,
    shard_rows: Optional[int] = None,
    start_method: Optional[str] = None,
    response_timeout: float = 60.0,
) -> FilterPool:
    """Construct the pool implementation for a resolved backend name."""
    if backend == "thread":
        cls = ThreadFilterPool
    elif backend == "process":
        cls = ParallelFilterPool
    else:
        raise ValueError(
            f"no pool for backend {backend!r} (resolve 'auto' through "
            f"choose_backend first; 'serial' needs no pool)"
        )
    return cls(
        num_workers=num_workers,
        shard_rows=shard_rows,
        start_method=start_method,
        response_timeout=response_timeout,
    )


# ----------------------------------------------------------------------
# Filtering-unit entry points (mirror the serial functions)
# ----------------------------------------------------------------------
def parallel_filter_candidates(
    queries: Sequence[ObjectSignature],
    query_sketches_list: Sequence[np.ndarray],
    params: FilterParams,
    n_bits: int,
    pool: FilterPool,
    trace=None,
) -> List[Set[int]]:
    """Candidate sets for a batch of queries via a shard pool.

    Equivalent to :func:`~repro.core.filtering.sketch_filter_many` run
    against the snapshot the pool's arena was loaded from: all queries'
    top-``r`` rows go out as one fused scan request, the per-shard top-k
    lists are merged deterministically, and thresholding + owner dedup
    run parent-side exactly like the serial selection.  ``pool`` may be
    either backend.  ``trace`` forwards to the pool's ``scan_topk`` for
    per-worker child spans.
    """
    queries = list(queries)
    if not queries:
        return []
    if pool.n_rows == 0 or pool.n_alive == 0:
        return [set() for _ in queries]
    tops, stacked, thresholds = _stack_query_rows(
        queries, query_sketches_list, params, n_bits
    )
    k = min(params.candidates_per_segment, pool.n_alive)
    dists, rows = pool.scan_topk(stacked, k, trace=trace)
    owners = pool.owners_of(rows)
    if thresholds is not None:
        within = dists <= thresholds[:, None]
    else:
        within = dists < _SENTINEL
    results: List[Set[int]] = []
    offset = 0
    for top in tops:
        span = slice(offset, offset + len(top))
        offset += len(top)
        hit_owners = owners[span][within[span]]
        hit_owners = hit_owners[hit_owners >= 0]
        results.append(set(int(o) for o in np.unique(hit_owners)))
    return results


def parallel_sketch_filter(
    query: ObjectSignature,
    query_sketches: np.ndarray,
    params: FilterParams,
    n_bits: int,
    pool: FilterPool,
) -> Set[int]:
    """Single-query candidate set via a shard pool (sketch path)."""
    return parallel_filter_candidates(
        [query], [query_sketches], params, n_bits, pool
    )[0]


def parallel_sketch_filter_many(
    queries: Sequence[ObjectSignature],
    query_sketches_list: Sequence[np.ndarray],
    params: FilterParams,
    n_bits: int,
    pool: FilterPool,
) -> List[Set[int]]:
    """Alias mirroring :func:`sketch_filter_many`'s name."""
    return parallel_filter_candidates(
        queries, query_sketches_list, params, n_bits, pool
    )


# ----------------------------------------------------------------------
# Query-result cache
# ----------------------------------------------------------------------
class QueryResultCache:
    """Bounded LRU cache of scan results, invalidated by mutation epoch.

    Entries are tagged with the single epoch the whole cache is valid
    for; the first access at a different epoch clears everything (any
    insert/delete/compaction may change any candidate set).  Real query
    streams are heavily skewed, so even a small capacity absorbs most
    repeats.  Thread-safe; a ``max_entries`` of 0 disables the cache.

    ``metrics_prefix`` names the registry series this instance books its
    hit/miss/eviction/invalidation counters under — ``query_cache`` for
    the engine's filter cache (the default), ``cluster.cache`` for the
    coordinator's result cache.  The epoch token is opaque: the
    coordinator passes a ``(write_epoch, topology_epoch)`` tuple where
    the engine passes the store's integer mutation counter.
    """

    def __init__(
        self, max_entries: int = 256, metrics_prefix: str = "query_cache"
    ) -> None:
        self.max_entries = max(0, int(max_entries))
        self._lock = threading.Lock()
        self._entries: "OrderedDict" = OrderedDict()
        self._epoch: Optional[object] = None
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self._m_hits = _metrics.counter(f"{metrics_prefix}.hits")
        self._m_misses = _metrics.counter(f"{metrics_prefix}.misses")
        self._m_evictions = _metrics.counter(f"{metrics_prefix}.evictions")
        self._m_invalidations = _metrics.counter(
            f"{metrics_prefix}.invalidations"
        )

    def _sync_epoch(self, epoch: object) -> None:
        if self._epoch != epoch:
            if self._entries:
                self.invalidations += 1
                self._m_invalidations.inc()
            self._entries.clear()
            self._epoch = epoch

    def lookup(self, epoch: object, key: object):
        """Cached value for ``key`` at ``epoch``, or ``None``."""
        if self.max_entries == 0 or key is None:
            return None
        with self._lock:
            self._sync_epoch(epoch)
            value = self._entries.get(key)
            if value is None:
                self.misses += 1
                self._m_misses.inc()
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            self._m_hits.inc()
            return value

    def store(self, epoch: object, key: object, value) -> None:
        if self.max_entries == 0 or key is None:
            return
        with self._lock:
            self._sync_epoch(epoch)
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1
                self._m_evictions.inc()

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "capacity": self.max_entries,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
            }

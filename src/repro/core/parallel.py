"""Sharded parallel filtering scan over worker threads.

The filtering unit streams over *all* database segment sketches per
query (section 4.1.1); the batched kernel made that scan vector-wide,
and this module fans it out across cores.  :class:`ThreadFilterPool`
runs worker *threads* over zero-copy views of one in-process arena:
``hamming_many_to_many`` pops counts with ``np.bitwise_count``, which
releases the GIL, so the per-shard scans genuinely overlap with no
pickling and no copies per query.

Rows are cut into contiguous shards by :func:`shard_bounds`, and every
shard selects through the same deterministic smallest-row-wins rule
(:func:`~repro.core.filtering.select_k_smallest`), which makes the
pool's candidate sets *bit-identical* to the serial scan — the
per-shard top-k provably contains every globally selected row.

:func:`choose_backend` is the cost model behind
``ParallelConfig.backend="auto"``: serial when disabled, on a single
core, or below the work floor; threads otherwise (see
docs/PERFORMANCE.md for the matrix).

Staleness is tracked by the segment store's mutation epoch: the pool
records the epoch its arena was loaded from, and the engine refreshes
it when they diverge.  On any pool failure the engine falls back to the
serial scan and keeps answering queries; :attr:`ParallelScanError.kind`
says *how* the pool failed (timeout, closed pool, no arena) so the
fallback can be classified instead of absorbed generically.

A bounded LRU :class:`QueryResultCache` (also epoch-invalidated) sits
in front of the scan so repeated queries of a skewed stream skip it
entirely; with ``metrics_prefix`` it doubles as the cluster
coordinator's result cache (``cluster.cache.*`` series).

See docs/PERFORMANCE.md for the shard layout, backend-selection
matrix, pool lifecycle, and tuning knobs.
"""

from __future__ import annotations

import os
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor, TimeoutError as _FutureTimeout
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..observability import metrics as _metrics
from .bitvector import hamming_many_to_many
from .filtering import (
    FilterParams,
    _stack_query_rows,
    select_k_smallest,
)
from .types import ObjectSignature

__all__ = [
    "BACKENDS",
    "ParallelConfig",
    "ParallelScanError",
    "QueryResultCache",
    "ThreadFilterPool",
    "available_cores",
    "choose_backend",
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
BACKENDS = ("auto", "serial", "thread")

#: ``parallel.backend`` gauge encoding (0 = serial, 1 = thread); see
#: docs/OBSERVABILITY.md.
BACKEND_GAUGE_VALUES = {"serial": 0, "thread": 1}

# Pool telemetry (see docs/OBSERVABILITY.md).  Handles are created once
# at import; MetricsRegistry.reset() zeroes them in place so they stay
# valid across test resets.
_M_POOL_SCANS = _metrics.counter("parallel.scans")
_M_POOL_SCAN_SECONDS = _metrics.histogram("parallel.scan_seconds")
_M_POOL_WAIT_SECONDS = _metrics.histogram("parallel.shard_wait_seconds")
_M_POOL_LOADS = _metrics.counter("parallel.arena_loads")
_M_DELTA_LOADS = _metrics.counter("arena.delta_loads")
_M_POOL_ROWS = _metrics.gauge("parallel.arena_rows")


class ParallelScanError(RuntimeError):
    """The worker pool failed (timeout, closed, no arena).

    Callers treat this as "pool unusable": the engine answers the query
    through the serial scan and rebuilds or disables the pool.

    ``kind`` classifies the failure for telemetry and error accounting:

    - ``"timeout"`` — no shard result within ``response_timeout``.
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
        ``"serial"`` forces the in-process scan; ``"thread"`` forces the
        pool.  Live-tunable via the server's
        ``setparam parallel backend=...``.
    response_timeout:
        Seconds to wait for a shard result before declaring the pool
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


def choose_backend(
    cfg: ParallelConfig,
    n_rows: int,
    cores: Optional[int] = None,
) -> str:
    """Resolve ``cfg.backend`` for one scan: the ``auto`` cost model.

    ``n_rows`` is the arena size (live store segments), ``cores`` the
    parallelism actually available (defaults to ``num_workers`` when the
    operator pinned one, else :func:`available_cores` — an explicit
    worker count is a statement that the parallelism exists).

    Disabled, a single core, or an arena under ``min_segments`` ->
    ``serial`` (no parallelism to win, or dispatch dominates); otherwise
    ``thread``.
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
    return "thread"


def _arena_capacity(n_rows: int) -> int:
    """Physical rows to allocate for an arena of ``n_rows`` logical rows.

    The headroom is what lets :meth:`load_delta` append in place; once a
    delta would overflow it, the pool reports "cannot apply" and the
    caller full-loads — which re-allocates with fresh headroom.
    """
    return n_rows + max(n_rows // 2, 1024)


def shard_bounds(
    n_rows: int, num_workers: int, shard_rows: Optional[int] = None
) -> List[List[Tuple[int, int]]]:
    """Per-worker lists of contiguous ``(start, stop)`` row ranges.

    Deterministic in its inputs, so two pools with the same geometry
    scan the same shards.
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


def _scan_shards(
    shards: Sequence[Tuple[int, np.ndarray, np.ndarray]],
    queries: np.ndarray,
    k: int,
    thresholds: Optional[np.ndarray],
) -> Tuple[np.ndarray, np.ndarray]:
    """Deterministic top-k over one worker's shards.

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


class ThreadFilterPool:
    """Worker-*thread* pool sharing the arena zero-copy.

    Rows are cut by :func:`shard_bounds`, each worker runs
    :func:`_scan_shards` over its shards, and the per-worker lists go
    through one deterministic merge.  The arena is plain in-process
    numpy memory: no pickling, no pipes.  Worth it because the Hamming
    kernel's ``np.bitwise_count`` popcount releases the GIL, so
    per-shard scans genuinely run on multiple cores.

    :meth:`load` *copies* the snapshot arrays once — the segment store
    compacts and tombstones its internal arrays in place, and the pool's
    epoch tag is only meaningful if the arena content is frozen at load
    time.  The frozen sketches keep the store's word-major
    ``(n_words, capacity)`` layout and shards are transposed column
    slices of it, so every shard scan reads the arena in place.

    Teardown under load is safe: :meth:`close` drains in-flight scans
    (they only read the frozen arrays) and subsequent calls raise
    :class:`ParallelScanError` with ``kind="closed"``.
    """

    def __init__(
        self,
        num_workers: Optional[int] = None,
        shard_rows: Optional[int] = None,
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

        ``epoch`` is an opaque staleness token (the segment store's
        mutation counter); :meth:`matches` compares against it so the
        engine can refresh on insert/delete.  The copy lands in
        capacity-sized arrays (see :func:`_arena_capacity`) so
        :meth:`load_delta` can append rows in place without reallocating
        or re-freezing the loaded prefix.
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

    # -- scanning -------------------------------------------------------
    def scan_topk(
        self,
        queries: np.ndarray,
        k: int,
        thresholds: Optional[np.ndarray] = None,
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

        The arena snapshot is read under the lock but the shard scans run
        *outside* it — concurrent callers and a concurrent :meth:`load`
        are safe because each scan works on the frozen arrays it
        captured.  ``trace``, when given a
        :class:`~repro.observability.tracing.QueryTrace`, gains one
        ``worker.<i>`` child span per worker.
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


# ----------------------------------------------------------------------
# Filtering-unit entry points (mirror the serial functions)
# ----------------------------------------------------------------------
def parallel_filter_candidates(
    queries: Sequence[ObjectSignature],
    query_sketches_list: Sequence[np.ndarray],
    params: FilterParams,
    n_bits: int,
    pool: ThreadFilterPool,
    trace=None,
) -> List[Set[int]]:
    """Candidate sets for a batch of queries via a shard pool.

    Equivalent to :func:`~repro.core.filtering.sketch_filter_many` run
    against the snapshot the pool's arena was loaded from: all queries'
    top-``r`` rows go out as one stacked scan, the per-shard top-k
    lists are merged deterministically, and thresholding + owner dedup
    run afterwards exactly like the serial selection.  ``trace``
    forwards to the pool's ``scan_topk`` for per-worker child spans.
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
    pool: ThreadFilterPool,
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
    pool: ThreadFilterPool,
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

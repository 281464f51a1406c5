"""Out-of-core similarity search — the paper's stated future work.

"We expect to investigate more efficient out-of-core indexing data
structures for similarity search to further improve support for very
large data sets" (section 8).  This module provides that path: segment
sketches live in a table of the transactional store and the filtering
scan streams them in bounded-size blocks, so neither the sketch database
nor the feature vectors need to fit in memory.  Candidate objects are
loaded from the metadata manager only for the final ranking step.

Layout: table ``segment_sketches``, key ``object_key || segment index``
(big-endian, so one object's segments are contiguous and the scan order
is deterministic), value = packed sketch words.  The key embeds the
owner, so the scan needs no side lookup.

A :class:`~repro.core.parallel.ThreadFilterPool` (worker threads over
an in-process copy of the sketches) can be attached to the sketch
store: the table is streamed once into the pool's arena (in scan order,
so global row number == scan position) and subsequent scans fan out
across the pool's shards as one stacked batch.  Per-query thresholds
are pushed into the shard scans — masked before selection — so the
parallel scan keeps this module's threshold-then-top-k semantics, and
the deterministic tie rule (smallest scan position wins at the kth
distance) makes its results identical to the serial blocked scan.
Attaching trades the out-of-core memory bound for scan speed: the arena
snapshot is memory-resident.
"""

from __future__ import annotations

import heapq
import struct
import time
from typing import Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..core.bitvector import hamming_many_to_many
from ..core.filtering import FilterParams
from ..core.parallel import _SENTINEL, ParallelScanError, ThreadFilterPool
from ..core.ranking import SearchResult, rank_candidates
from ..core.types import ObjectSignature
from ..observability import metrics as _metrics
from ..storage.kvstore import KVStore
from .manager import MetadataManager

__all__ = ["OutOfCoreSketchStore", "OutOfCoreSearcher"]

_TABLE = "segment_sketches"

_M_SCANS = _metrics.counter("outofcore.scans")
_M_SCAN_SECONDS = _metrics.histogram("outofcore.scan_seconds")
_M_POOL_SCANS = _metrics.counter("outofcore.pool_scans")
_M_BLOCKS = _metrics.counter("outofcore.blocks_read")
_M_ROWS = _metrics.counter("outofcore.rows_scanned")
_M_DELTA_SYNCS = _metrics.counter("outofcore.delta_syncs")
_M_ERR_POOL_FALLBACK = _metrics.counter("errors_absorbed.outofcore.pool_scan")

# Rows of recent inserts retained in memory for delta pool syncs.  Past
# this the oldest entries are dropped and a pool that lags further back
# than the log reaches falls back to a full re-stream.
_MAX_APPEND_LOG_ROWS = 65536


class OutOfCoreSketchStore:
    """Disk-resident segment sketch database with blocked scans."""

    def __init__(self, store: KVStore, n_words: int, block_size: int = 4096) -> None:
        if block_size <= 0:
            raise ValueError("block_size must be positive")
        self.store = store
        self.n_words = n_words
        self.block_size = block_size
        # Mutation epoch: bumped on every insert so an attached pool's
        # arena (tagged with the epoch it was loaded from) can be
        # detected as stale and reloaded before the next scan.
        self._epoch = 0
        self._pool: Optional[ThreadFilterPool] = None
        # Append log for delta pool syncs: (epoch-after-insert, owners,
        # sketches) per insert, covering exactly (_log_floor, _epoch].
        # Delta rows land at the arena tail, which matches a fresh
        # re-stream only while keys arrive in ascending order; _last_key
        # tracks the table's known maximum key so out-of-order (or
        # overwriting) inserts invalidate the log instead of corrupting
        # the pool's scan-position tie rule.  None means "unknown" — a
        # store opened over pre-existing data stays conservative until a
        # full stream has observed the table's final key.
        self._append_log: List[Tuple[int, np.ndarray, np.ndarray]] = []
        self._log_rows = 0
        self._log_floor = 0
        self._last_key: Optional[bytes] = (
            b"" if store.count(_TABLE) == 0 else None
        )

    @property
    def epoch(self) -> int:
        return self._epoch

    @staticmethod
    def _key(object_id: int, segment: int) -> bytes:
        return struct.pack(">QI", object_id, segment)

    def add_object(self, object_id: int, sketches: np.ndarray) -> None:
        sketches = np.atleast_2d(np.asarray(sketches, dtype="<u8"))
        if sketches.shape[1] != self.n_words:
            raise ValueError(
                f"expected {self.n_words}-word sketches, got {sketches.shape[1]}"
            )
        first_key = self._key(object_id, 0)
        last_key = self._key(object_id, sketches.shape[0] - 1)
        in_order = self._last_key is not None and first_key > self._last_key
        overwrite = in_order and self.store.get(_TABLE, first_key) is not None
        with self.store.begin() as txn:
            for segment, row in enumerate(sketches):
                txn.put(_TABLE, self._key(object_id, segment), row.tobytes())
        self._epoch += 1
        if in_order and not overwrite:
            self._append_log.append(
                (
                    self._epoch,
                    np.full(sketches.shape[0], object_id, dtype=np.int64),
                    sketches.copy(),
                )
            )
            self._log_rows += sketches.shape[0]
            self._trim_append_log()
        else:
            self._invalidate_append_log()
        # Never seed _last_key from a blind insert: the table may hold
        # larger pre-existing keys, and guessing low would mislabel later
        # inserts as in-order.  A completed full stream seeds it instead.
        if self._last_key is not None and last_key > self._last_key:
            self._last_key = last_key

    def num_segments(self) -> int:
        return self.store.count(_TABLE)

    def iter_blocks(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Yield ``(owner_ids, sketch_matrix)`` blocks of bounded size.

        Each block holds at most ``block_size`` segments; memory use is
        O(block_size x n_words) regardless of database size.
        """
        # Paged range scans: 'start' is inclusive, so resume from the
        # previous block's last key plus a zero byte (its successor in
        # bytewise order).
        after: Optional[bytes] = None
        scanned_to: Optional[bytes] = None
        while True:
            batch = self.store.items(_TABLE, start=after, limit=self.block_size)
            if not batch:
                break
            owners = []
            rows = []
            for key, value in batch:
                object_id, _segment = struct.unpack(">QI", key)
                owners.append(object_id)
                rows.append(value)
            matrix = np.frombuffer(b"".join(rows), dtype="<u8").reshape(
                len(rows), self.n_words
            )
            _M_BLOCKS.inc()
            _M_ROWS.inc(len(rows))
            yield np.asarray(owners, dtype=np.int64), matrix.astype(np.uint64)
            scanned_to = batch[-1][0]
            after = scanned_to + b"\x00"
            if len(batch) < self.block_size:
                break
        # A fully-consumed pass has observed the table's maximum key, so
        # a store opened over pre-existing data can start serving delta
        # syncs for subsequent in-order inserts.
        if self._last_key is None and scanned_to is not None:
            self._last_key = scanned_to

    # -- parallel scan attachment ---------------------------------------
    def attach_pool(self, pool: ThreadFilterPool) -> None:
        """Serve scans from ``pool``'s worker shards instead of in-process.

        The table is streamed into the pool's arena on the next scan
        (and re-streamed whenever the store's epoch moves past the
        arena's).  The store does not own the pool: detaching or a scan
        failure never closes it.
        """
        self._pool = pool
        self._sync_pool()

    def detach_pool(self) -> Optional[ThreadFilterPool]:
        """Stop using the attached pool and return it (not closed)."""
        pool, self._pool = self._pool, None
        return pool

    def _invalidate_append_log(self) -> None:
        """Forget logged inserts; pools must full-stream to catch up."""
        self._append_log.clear()
        self._log_rows = 0
        self._log_floor = self._epoch

    def _trim_append_log(self) -> None:
        """Bound log memory; dropped epochs force a full re-stream."""
        while self._log_rows > _MAX_APPEND_LOG_ROWS and self._append_log:
            epoch, owners, _sketches = self._append_log.pop(0)
            self._log_rows -= owners.shape[0]
            self._log_floor = epoch

    def _delta_since(
        self, loaded: object
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Rows appended after ``loaded``, or None when unservable.

        The log covers exactly ``(_log_floor, _epoch]``; anything older
        (or an epoch tag this store didn't issue) needs a full stream.
        """
        if not isinstance(loaded, int) or isinstance(loaded, bool):
            return None
        if loaded < self._log_floor or loaded >= self._epoch:
            return None
        owners = [o for e, o, _s in self._append_log if e > loaded]
        sketches = [s for e, _o, s in self._append_log if e > loaded]
        if not owners:
            return None
        return (
            np.concatenate(owners),
            np.ascontiguousarray(np.concatenate(sketches, axis=0)),
        )

    def _sync_pool(self) -> bool:
        """Load/refresh the pool arena; True when it can serve scans."""
        pool = self._pool
        if pool is None:
            return False
        epoch = self._epoch
        if pool.matches(epoch):
            return True
        loaded = pool.loaded_epoch
        if loaded is not None:
            delta = self._delta_since(loaded)
            if delta is not None and pool.load_delta(
                delta[0], delta[1], loaded, epoch
            ):
                # The store is append-only, so the delta carries no
                # tombstones; the pool refused (False) only when its
                # arena lacks capacity or the epochs raced, both of
                # which the full stream below resolves.
                _M_DELTA_SYNCS.inc()
                return True
        owner_parts: List[np.ndarray] = []
        sketch_parts: List[np.ndarray] = []
        for owners, matrix in self.iter_blocks():
            owner_parts.append(owners)
            sketch_parts.append(matrix)
        if not owner_parts:
            return False  # empty table: the serial path is already O(1)
        pool.load(
            np.concatenate(owner_parts),
            np.ascontiguousarray(np.concatenate(sketch_parts, axis=0)),
            epoch=epoch,
        )
        return True

    def _scan_nearest_pool(
        self,
        queries: np.ndarray,
        k: int,
        thresholds: Optional[Sequence[float]],
        trace=None,
    ) -> List[List[Tuple[int, int]]]:
        assert self._pool is not None
        th = None
        if thresholds is not None:
            # Per-query None means "no cutoff"; +inf masks nothing.
            th = np.array(
                [np.inf if t is None else float(t) for t in thresholds],
                dtype=np.float64,
            )
        dists, rows = self._pool.scan_topk(queries, k, thresholds=th, trace=trace)
        out: List[List[Tuple[int, int]]] = []
        for qi in range(queries.shape[0]):
            keep = dists[qi] < _SENTINEL
            owners = self._pool.owners_of(rows[qi][keep])
            out.append(
                sorted(
                    (int(owner), int(d))
                    for owner, d in zip(owners, dists[qi][keep])
                )
            )
        return out

    def scan_nearest(
        self,
        query_sketch: np.ndarray,
        k: int,
        threshold: Optional[float] = None,
    ) -> List[Tuple[int, int]]:
        """k nearest segments to one query sketch: ``[(owner, distance)]``.

        Streams the whole table block by block, keeping a bounded heap.
        """
        thresholds = None if threshold is None else [threshold]
        return self.scan_nearest_many(
            np.atleast_2d(np.asarray(query_sketch, dtype=np.uint64)),
            k, thresholds,
        )[0]

    def scan_nearest_many(
        self,
        query_sketches: np.ndarray,
        k: int,
        thresholds: Optional[Sequence[float]] = None,
        trace=None,
    ) -> List[List[Tuple[int, int]]]:
        """k nearest segments for *every* query sketch in one table pass.

        The disk-resident table is streamed block by block exactly once
        for the whole batch; per block, distances to all queries come
        from a single :func:`~repro.core.bitvector.hamming_many_to_many`
        call, and each query keeps its own bounded heap.  Memory stays
        O(block_size x n_queries) regardless of database size.
        ``thresholds`` optionally gives one distance cutoff per query.
        """
        queries = np.atleast_2d(np.asarray(query_sketches, dtype=np.uint64))
        n_queries = queries.shape[0]
        if thresholds is not None and len(thresholds) != n_queries:
            raise ValueError("need one threshold per query sketch")
        started = time.perf_counter()
        _M_SCANS.inc()
        if self._pool is not None and k > 0:
            try:
                if self._sync_pool():
                    result = self._scan_nearest_pool(
                        queries, k, thresholds, trace=trace
                    )
                    _M_POOL_SCANS.inc()
                    _M_SCAN_SECONDS.observe(time.perf_counter() - started)
                    return result
            except ParallelScanError:
                # A dead/closed pool must not fail the scan; drop it and
                # stream in-process.  Re-attach to resume parallel scans.
                _M_ERR_POOL_FALLBACK.inc()
                self._pool = None
        heaps: List[List[Tuple[int, int, int]]] = [[] for _ in range(n_queries)]
        base = 0
        for owners, matrix in self.iter_blocks():
            dist_matrix = hamming_many_to_many(queries, matrix)
            for qi in range(n_queries):
                dists = dist_matrix[qi]
                heap = heaps[qi]
                # Pre-select the block's k best rows so the Python heap
                # merge touches at most k entries per block.  The stable
                # sort orders ties by scan position; heap entries carry
                # the negated global scan position so eviction removes
                # the latest-scanned row among equal distances.  That is
                # exactly the deterministic smallest-position-wins rule
                # of :func:`~repro.core.filtering.select_k_smallest`, so
                # serial and pool scans pick identical rows under ties.
                best = np.argsort(dists, kind="stable")[:k]
                threshold = thresholds[qi] if thresholds is not None else None
                for row in best:
                    d = int(dists[row])
                    if threshold is not None and d > threshold:
                        continue
                    if len(heap) < k:
                        heapq.heappush(heap, (-d, -(base + int(row)), int(owners[row])))
                    elif -heap[0][0] > d:
                        heapq.heapreplace(heap, (-d, -(base + int(row)), int(owners[row])))
            base += matrix.shape[0]
        _M_SCAN_SECONDS.observe(time.perf_counter() - started)
        return [
            sorted((owner, -neg) for neg, _pos, owner in heap) for heap in heaps
        ]


class OutOfCoreSearcher:
    """Two-phase search with disk-resident sketches and feature vectors.

    Mirrors the engine's FILTERING policy, but the only whole-dataset
    state it touches is the blocked sketch scan; candidate signatures
    are fetched individually from the metadata manager for ranking.
    """

    def __init__(
        self,
        metadata: MetadataManager,
        sketch_store: OutOfCoreSketchStore,
        sketcher: "object",
        obj_distance,
        filter_params: Optional[FilterParams] = None,
    ) -> None:
        self.metadata = metadata
        self.sketch_store = sketch_store
        self.sketcher = sketcher
        self.obj_distance = obj_distance
        self.filter_params = filter_params or FilterParams()

    def insert(self, object_id: int, signature: ObjectSignature,
               attributes: Optional[dict] = None) -> None:
        sketches = self.sketcher.sketch_many(signature.features)
        self.metadata.put_object(object_id, signature, sketches, attributes or {})
        self.sketch_store.add_object(object_id, sketches)

    def candidates(self, query: ObjectSignature) -> Set[int]:
        params = self.filter_params
        query_sketches = self.sketcher.sketch_many(query.features)
        threshold_base = (
            params.threshold_fraction * self.sketcher.n_bits
            if params.threshold_fraction is not None
            else None
        )
        top = query.top_segments(params.num_query_segments)
        thresholds = (
            [
                threshold_base * params.threshold_factor(float(query.weights[i]))
                for i in top
            ]
            if threshold_base is not None
            else None
        )
        # All top query segments share one blocked pass over the table
        # instead of re-streaming it per segment.
        per_segment = self.sketch_store.scan_nearest_many(
            query_sketches[top], params.candidates_per_segment, thresholds
        )
        out: Set[int] = set()
        for nearest in per_segment:
            out.update(owner for owner, _dist in nearest)
        return out

    def query(
        self, query: ObjectSignature, top_k: int = 10, exclude_self: bool = False
    ) -> List[SearchResult]:
        candidate_ids = self.candidates(query)

        class _LazyObjects:
            """Mapping view that loads signatures on demand."""

            def __init__(self, metadata: MetadataManager) -> None:
                self._metadata = metadata

            def __getitem__(self, object_id: int) -> ObjectSignature:
                signature = self._metadata.get_object(object_id)
                if signature is None:
                    raise KeyError(object_id)
                return signature

        return rank_candidates(
            query, candidate_ids, _LazyObjects(self.metadata),
            self.obj_distance, top_k=top_k, exclude_self=exclude_self,
        )

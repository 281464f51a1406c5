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
"""

from __future__ import annotations

import struct
import time
from typing import Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..core.bitvector import hamming_many_to_many
from ..core.filtering import FilterParams, select_k_smallest
from ..core.ranking import SearchResult, rank_candidates
from ..core.types import ObjectSignature
from ..observability import metrics as _metrics
from ..storage.kvstore import KVStore
from .manager import MetadataManager

__all__ = ["OutOfCoreSketchStore", "OutOfCoreSearcher"]

_TABLE = "segment_sketches"

_M_SCANS = _metrics.counter("outofcore.scans")
_M_SCAN_SECONDS = _metrics.histogram("outofcore.scan_seconds")
_M_BLOCKS = _metrics.counter("outofcore.blocks_read")
_M_ROWS = _metrics.counter("outofcore.rows_scanned")


class OutOfCoreSketchStore:
    """Disk-resident segment sketch database with blocked scans."""

    def __init__(self, store: KVStore, n_words: int, block_size: int = 4096) -> None:
        if block_size <= 0:
            raise ValueError("block_size must be positive")
        self.store = store
        self.n_words = n_words
        self.block_size = block_size

    @staticmethod
    def _key(object_id: int, segment: int) -> bytes:
        return struct.pack(">QI", object_id, segment)

    def add_object(self, object_id: int, sketches: np.ndarray) -> None:
        sketches = np.atleast_2d(np.asarray(sketches, dtype="<u8"))
        if sketches.shape[1] != self.n_words:
            raise ValueError(
                f"expected {self.n_words}-word sketches, got {sketches.shape[1]}"
            )
        with self.store.begin() as txn:
            for segment, row in enumerate(sketches):
                txn.put(_TABLE, self._key(object_id, segment), row.tobytes())

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
            after = batch[-1][0] + b"\x00"
            if len(batch) < self.block_size:
                break

    def scan_nearest(
        self,
        query_sketch: np.ndarray,
        k: int,
        threshold: Optional[float] = None,
    ) -> List[Tuple[int, int]]:
        """k nearest segments to one query sketch: ``[(owner, distance)]``.

        Streams the whole table block by block, keeping a running top-k.
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
    ) -> List[List[Tuple[int, int]]]:
        """k nearest segments for *every* query sketch in one table pass.

        The disk-resident table is streamed block by block exactly once
        for the whole batch; per block, distances to all queries come
        from a single :func:`~repro.core.bitvector.hamming_many_to_many`
        call, and each query's running top-k is merged with the block
        through :func:`~repro.core.filtering.select_k_smallest` keyed by
        scan position — the (distance, position) rule of every other
        filter path.  Memory stays O((block_size + k) x n_queries)
        regardless of database size.  ``thresholds`` optionally gives
        one distance cutoff per query; it is applied after selection,
        which keeps the same set as cutting first.
        """
        queries = np.atleast_2d(np.asarray(query_sketches, dtype=np.uint64))
        n_queries = queries.shape[0]
        if thresholds is not None and len(thresholds) != n_queries:
            raise ValueError("need one threshold per query sketch")
        started = time.perf_counter()
        _M_SCANS.inc()
        # Per query row: the running top-k's distances, scan positions
        # and owners.
        dists = np.empty((n_queries, 0), dtype=np.uint32)
        positions = np.empty((n_queries, 0), dtype=np.int64)
        owners = np.empty((n_queries, 0), dtype=np.int64)
        base = 0
        for block_owners, matrix in self.iter_blocks():
            n_rows = matrix.shape[0]
            shape = (n_queries, n_rows)
            dists = np.hstack([dists, hamming_many_to_many(queries, matrix)])
            positions = np.hstack([
                positions,
                np.broadcast_to(np.arange(base, base + n_rows), shape),
            ])
            owners = np.hstack([owners, np.broadcast_to(block_owners, shape)])
            cols = select_k_smallest(dists, k, ids=positions)
            dists = np.take_along_axis(dists, cols, axis=1)
            positions = np.take_along_axis(positions, cols, axis=1)
            owners = np.take_along_axis(owners, cols, axis=1)
            base += n_rows
        _M_SCAN_SECONDS.observe(time.perf_counter() - started)
        out = []
        for qi in range(n_queries):
            keep = slice(None) if thresholds is None else dists[qi] <= thresholds[qi]
            out.append(sorted(zip(owners[qi][keep].tolist(), dists[qi][keep].tolist())))
        return out


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

"""Scan-side configuration and the query-result cache.

The filtering scan itself lives in :mod:`repro.core.filtering`: one
compiled call (``bitvector.hamming_topk``) reads the segment store's
arena in place and keeps each query row's top-k.  This module keeps
what sits around it: :class:`ParallelConfig` (the result-cache size)
and a bounded LRU :class:`QueryResultCache` (epoch-invalidated) in
front of the scan, so repeated queries of a skewed stream skip it
entirely; with ``metrics_prefix`` it doubles as the cluster
coordinator's result cache (``cluster.cache.*`` series).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

import numpy as np

from ..observability import metrics as _metrics
from .filtering import FilterParams, SegmentStore, sketch_filter_many
from .types import ObjectSignature

__all__ = [
    "ParallelConfig",
    "QueryResultCache",
    "parallel_filter_candidates",
]


@dataclass
class ParallelConfig:
    """Knobs of the engine's scan side.

    Parameters
    ----------
    cache_entries:
        Capacity of the engine's query-result LRU cache (0 disables).
    """

    cache_entries: int = 256


def parallel_filter_candidates(
    queries: Sequence[ObjectSignature],
    query_sketches_list: Sequence[np.ndarray],
    params: FilterParams,
    n_bits: int,
    store: SegmentStore,
    trace=None,
) -> List[Set[int]]:
    """:func:`~repro.core.filtering.sketch_filter_many` under its old
    pool-era name.  It exists only for the end-to-end benchmark's import
    (``benchmarks/e2e/workloads.py``); ``trace`` is ignored."""
    return sketch_filter_many(queries, query_sketches_list, store, params, n_bits)


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

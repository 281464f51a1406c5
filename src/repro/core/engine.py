"""The core similarity search engine (section 4.1.1).

Two operations: *data input* (segment + extract features via the plug-in,
sketch each feature vector, store everything) and *query processing*
(sketch the query's segments, filter, rank).  The engine supports the
three search methods compared in section 6.3.3:

- ``BRUTE_FORCE_ORIGINAL`` — object distance against every object using
  the original feature vectors.
- ``BRUTE_FORCE_SKETCH`` — object distance against every object with
  segment distances estimated from sketch Hamming distances.
- ``FILTERING`` — sketch-based filtering to a candidate set, then exact
  object distance ranking on the candidates only.
"""

from __future__ import annotations

import enum
import itertools
import time
from dataclasses import dataclass
from typing import (
    Collection,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from ..observability import metrics as _metrics
from ..observability.tracing import QueryTrace, TraceRecorder
from .bitvector import hamming_many_to_many, hamming_to_many
from .filtering import (
    ArenaCompactor,
    FilterParams,
    SegmentStore,
    sketch_filter_many,
)
from .parallel import ParallelConfig, QueryResultCache
from .plugin import DataTypePlugin
from .ranking import (
    RankParams,
    RankStats,
    SearchResult,
    rank_candidates_many,
)
from .sketch import SketchConstructor, SketchParams
from .transport import solve_transport
from .types import ObjectSignature

__all__ = [
    "SearchMethod",
    "EngineStats",
    "SimilaritySearchEngine",
]

# Query-pipeline telemetry (see docs/OBSERVABILITY.md).  Handles are
# created once at import; the registry's reset() zeroes them in place.
_M_QUERIES = _metrics.counter("engine.queries")
_M_QUERY_SECONDS = _metrics.histogram("engine.query_seconds")
_M_FILTER_SECONDS = _metrics.histogram("engine.filter_seconds")
_M_RANK_SECONDS = _metrics.histogram("engine.rank_seconds")
_M_CANDIDATES = _metrics.histogram(
    "engine.candidates", buckets=_metrics.DEFAULT_COUNT_BUCKETS
)
_M_DISTANCE_EVALS = _metrics.counter("engine.distance_evals")
# Ranking-cascade telemetry: how many candidates skipped the exact
# transportation solve thanks to a lower bound, and where rank time went
# (bound computation vs exact solves).  prune_rate is the cumulative
# prunes / (prunes + exact evals) ratio.
_M_RANK_LB_PRUNES = _metrics.counter("rank.lower_bound_prunes")
_M_RANK_EXACT_EVALS = _metrics.counter("rank.exact_evals")
_M_RANK_PRUNE_RATE = _metrics.gauge("rank.prune_rate")
_M_RANK_BOUND_SECONDS = _metrics.histogram("rank.bound_seconds")
_M_RANK_SOLVE_SECONDS = _metrics.histogram("rank.solve_seconds")
_M_CACHE_RACE_SKIPS = _metrics.counter("query_cache.stale_store_skips")
_M_ERR_BATCH_ROLLBACK = _metrics.counter(
    "errors_absorbed.engine.batch_rollback"
)

# Objects per arena append in load() (one metadata iter_objects page)
# and in insert_many() (one sketch_many call and one add_many).
_LOAD_PAGE = 1024


class SearchMethod(enum.Enum):
    """Search policies of section 6.3.3."""

    BRUTE_FORCE_ORIGINAL = "brute_force_original"
    BRUTE_FORCE_SKETCH = "brute_force_sketch"
    FILTERING = "filtering"

    @classmethod
    def parse(cls, text: str) -> "SearchMethod":
        text = text.strip().lower()
        for method in cls:
            if method.value == text or method.name.lower() == text:
                return method
        raise ValueError(f"unknown search method {text!r}")


@dataclass(frozen=True)
class EngineStats:
    """Storage accounting used for the paper's metadata-size claims."""

    num_objects: int
    num_segments: int
    feature_bits_per_vector: int
    sketch_bits_per_vector: int
    feature_bytes: int
    sketch_bytes: int

    @property
    def compression_ratio(self) -> float:
        """Feature-vector bits to sketch bits — e.g. 4.7:1 for VARY images."""
        if self.sketch_bits_per_vector == 0:
            return float("inf")
        return self.feature_bits_per_vector / self.sketch_bits_per_vector

    @property
    def avg_segments_per_object(self) -> float:
        return self.num_segments / self.num_objects if self.num_objects else 0.0


class SimilaritySearchEngine:
    """General-purpose content-based similarity search over one data type.

    Parameters
    ----------
    plugin:
        The data-type plug-in (segmentation/extraction + distances).
    sketch_params:
        Sketch construction parameters; ``feature_meta`` must match the
        plug-in's.  Defaults to a 64-bit, K=1 sketch over the plug-in's
        declared feature space.
    filter_params:
        Filtering-unit tuning; defaults are reasonable for small/medium
        datasets and every benchmark overrides them explicitly.
    metadata:
        Optional persistence backend (see
        :class:`repro.metadata.manager.MetadataManager`).  When given,
        inserts are written through and :meth:`load` can rebuild the
        in-memory state after a restart.
    parallel:
        Scan-side knobs (:class:`~repro.core.parallel.ParallelConfig`):
        the query-result cache capacity.  ``None`` means the default.
        The scan needs no knob (``repro.core.bitvector.hamming_topk``).
    rank_params:
        Ranking-cascade knobs (:class:`~repro.core.ranking.RankParams`);
        defaults enable batched cost matrices and lower-bound pruning.
        Live-tunable via the server's ``setparam rank_* on|off``.
    """

    def __init__(
        self,
        plugin: DataTypePlugin,
        sketch_params: Optional[SketchParams] = None,
        filter_params: Optional[FilterParams] = None,
        metadata: Optional["object"] = None,
        parallel: Optional[ParallelConfig] = None,
        rank_params: Optional[RankParams] = None,
    ) -> None:
        self.plugin = plugin
        if sketch_params is None:
            sketch_params = SketchParams(n_bits=64, meta=plugin.meta)
        if sketch_params.meta.dim != plugin.meta.dim:
            raise ValueError(
                "sketch params feature dimension does not match the plug-in"
            )
        self.sketcher = SketchConstructor(sketch_params)
        self.filter_params = filter_params or FilterParams()
        self.rank_params = rank_params or RankParams()
        self.metadata = metadata
        self._objects: Dict[int, ObjectSignature] = {}
        self._object_sketches: Dict[int, np.ndarray] = {}
        # Sketches and owners only: the signatures in ``_objects``
        # already hold every feature vector.
        self._store = SegmentStore(
            self.sketcher.n_words, n_bits=self.sketcher.n_bits
        )
        self._next_id = 0
        self._compactor: Optional[ArenaCompactor] = None
        self._parallel_cfg = parallel if parallel is not None else ParallelConfig()
        # Always None: the scan reads the store's arena in place and
        # keeps no pool.  The end-to-end benchmark still probes it.
        self._pool = None
        self._filter_cache = QueryResultCache(self._parallel_cfg.cache_entries)
        # Per-engine tracing state: opt-in stage traces plus the always
        # armed slow-query log (the server's ``setparam trace on|off``).
        self.tracer = TraceRecorder()

    # ------------------------------------------------------------------
    # Data input
    # ------------------------------------------------------------------
    def insert(
        self,
        signature: ObjectSignature,
        attributes: Optional[Mapping[str, str]] = None,
        object_id: Optional[int] = None,
        filename: Optional[str] = None,
    ) -> int:
        """Insert a pre-extracted object; returns its assigned object id.

        The id is ``object_id``, else ``signature.object_id``, else the
        next free id.  This is :meth:`insert_many` with a batch of one,
        so it validates, appends and rolls back the same way.
        """
        return self._insert_batch(
            [signature], [object_id], dict(attributes or {}), filename
        )[0]

    def insert_file(
        self,
        filename: str,
        attributes: Optional[Mapping[str, str]] = None,
        object_id: Optional[int] = None,
    ) -> int:
        """Segment + extract a file through the plug-in, then insert it.

        The filename is recorded in the metadata manager's object-to-file
        mapping (when persistence is enabled), which is how the directory
        scanner avoids re-importing files across restarts."""
        return self.insert(
            self.plugin.extract(filename), attributes, object_id, filename=filename
        )

    def insert_many(self, signatures: Sequence[ObjectSignature]) -> List[int]:
        """Insert many pre-extracted objects; returns their assigned ids.

        Ids are assigned exactly as a loop of :meth:`insert` would
        assign them (an explicit ``object_id`` is kept, ``None`` takes
        the next free id).  The batch then goes in a page of
        ``_LOAD_PAGE`` objects at a time: one ``sketch_many`` call over
        the page's concatenated features, one
        :meth:`SegmentStore.add_many` append, and a ``put_object`` per
        object when a metadata backend is attached.  Per-call overhead
        is paid per page, not per object, and no whole-batch temporary
        is built.

        The batch is all-or-nothing: every signature is validated up
        front (at least one segment, the plug-in's feature dimension,
        no id collisions with the engine or within the batch, no
        signature given twice), and if an insert still fails mid-batch
        the already-applied prefix is rolled back before the error
        propagates — a failed bulk load leaves the engine exactly as it
        was.
        """
        signatures = list(signatures)
        return self._insert_batch(signatures, [None] * len(signatures), {}, None)

    def _insert_batch(
        self,
        signatures: List[ObjectSignature],
        object_ids: List[Optional[int]],
        attributes: Dict[str, str],
        filename: Optional[str],
    ) -> List[int]:
        # The one insertion path behind insert() and insert_many();
        # ``attributes`` and ``filename`` go to every object's
        # put_object (insert() passes a batch of one).
        dim = self.plugin.meta.dim
        # Up-front validation: reject the whole batch before touching
        # any state, so a later page cannot fail on what an earlier one
        # could have checked.
        ids: List[int] = []
        counts: List[int] = []
        taken: Set[int] = set()
        seen: Dict[int, int] = {}  # id(signature) -> batch position
        next_id = self._next_id
        for pos, (sig, oid) in enumerate(zip(signatures, object_ids)):
            count, sig_dim = sig.features.shape
            if count == 0:
                raise ValueError(
                    f"signature at batch position {pos} has no segments; "
                    "objects must have at least one segment to be "
                    "searchable (whole batch rejected)"
                )
            if sig_dim != dim:
                raise ValueError(
                    f"signature at batch position {pos} has {sig_dim}-dim "
                    f"features, expected {dim} (whole batch rejected)"
                )
            # One signature object cannot hold two ids.
            first = seen.setdefault(id(sig), pos)
            if first != pos:
                raise KeyError(
                    f"signature at batch position {pos} is the one at "
                    f"position {first} (whole batch rejected)"
                )
            if oid is None:
                oid = next_id if sig.object_id is None else sig.object_id
            if oid in self._objects or oid in taken:
                raise KeyError(
                    f"object id {oid} at batch position {pos} already "
                    "present (whole batch rejected)"
                )
            taken.add(oid)
            ids.append(oid)
            counts.append(count)
            if oid >= next_id:
                next_id = oid + 1
        prev_next_id = self._next_id
        prev_sig_ids = [sig.object_id for sig in signatures]
        applied = 0  # objects in the engine dicts and the arena
        persisted = 0  # of those, objects put to the metadata backend
        try:
            for start in range(0, len(signatures), _LOAD_PAGE):
                page = signatures[start : start + _LOAD_PAGE]
                page_ids = ids[start : start + _LOAD_PAGE]
                page_counts = counts[start : start + _LOAD_PAGE]
                sketches = self.sketcher.sketch_many(
                    np.concatenate([sig.features for sig in page])
                )
                blocks = [
                    sketches[end - count : end]
                    for end, count in zip(itertools.accumulate(page_counts), page_counts)
                ]
                if len(page) == 1:
                    # A single insert appends through add_object, the
                    # call the traced churn benchmark times.
                    self._store.add_object(page_ids[0], blocks[0])
                else:
                    self._store.add_many(page_ids, blocks)
                for oid, sig, rows in zip(page_ids, page, blocks):
                    sig.object_id = oid
                    self._objects[oid] = sig
                    self._object_sketches[oid] = rows
                applied += len(page)
                self._next_id = max(self._next_id, max(page_ids) + 1)
                if self.metadata is not None:
                    for oid, sig, rows in zip(page_ids, page, blocks):
                        self.metadata.put_object(
                            oid, sig, rows, attributes, filename=filename
                        )
                        persisted += 1
        except Exception:
            # A failure the validation could not foresee (e.g. the
            # metadata backend dying mid-batch): undo the applied
            # prefix, so queries cannot return an object that would
            # vanish on restart.  Rollback is best-effort — a second
            # failure here must not mask the original error.
            for pos in reversed(range(applied)):
                oid = ids[pos]
                if pos < persisted:
                    try:
                        self.remove(oid)
                    except Exception:
                        _M_ERR_BATCH_ROLLBACK.inc()
                else:
                    self._store.remove_object(oid)
                    del self._objects[oid]
                    del self._object_sketches[oid]
            for sig, prev in zip(signatures, prev_sig_ids):
                sig.object_id = prev
            # A failed batch must not consume ids either.
            self._next_id = prev_next_id
            raise
        return ids

    def remove(self, object_id: int) -> None:
        """Remove an object from the engine (and the metadata backend).

        The segment store tombstones the object's sketch rows and
        compacts lazily.

        Exception-safe, mirroring :meth:`insert`'s rollback: the
        in-memory structures are only committed once the metadata
        backend acknowledged the delete.  If it fails, the store rows
        are restored (the sketch rows re-append at the arena tail —
        positions move, contents don't) and the object stays fully
        searchable.
        """
        if object_id not in self._objects:
            raise KeyError(f"unknown object {object_id}")
        signature = self._objects[object_id]
        sketches = self._object_sketches[object_id]
        self._store.remove_object(object_id)
        try:
            if self.metadata is not None:
                self.metadata.delete_object(object_id)
        except Exception:
            self._store.add_object(object_id, sketches)
            raise
        del self._objects[object_id]
        del self._object_sketches[object_id]

    def load(self) -> int:
        """Rebuild in-memory state from the metadata backend.

        Returns the number of objects loaded.  Used after restart or
        crash recovery; sketches are reused as stored (they were built
        with the same constructor seed).  Objects reach the arena a page
        at a time through :meth:`SegmentStore.add_many`, so the arena
        grows once per page and no whole-corpus temporary is built.
        """
        if self.metadata is None:
            raise RuntimeError("engine has no metadata backend")
        rows = self.metadata.iter_objects()
        count = 0
        while True:
            page = list(itertools.islice(rows, _LOAD_PAGE))
            if not page:
                return count
            fresh = [row for row in page if row[0] not in self._objects]
            if not fresh:
                continue
            ids, signatures, sketch_blocks, _attrs = zip(*fresh)
            self._store.add_many(ids, sketch_blocks)
            for object_id, signature, sketches in zip(ids, signatures, sketch_blocks):
                signature.object_id = object_id
                self._objects[object_id] = signature
                self._object_sketches[object_id] = sketches
                self._next_id = max(self._next_id, object_id + 1)
            count += len(fresh)

    # ------------------------------------------------------------------
    # Compaction + result cache
    # ------------------------------------------------------------------
    def set_compaction(
        self,
        enabled: bool,
        dead_fraction: Optional[float] = None,
        interval: Optional[float] = None,
    ) -> None:
        """Toggle background arena compaction (``setparam compaction``).

        Enabled: an :class:`~repro.core.filtering.ArenaCompactor` thread
        takes over dead-row cleanup — removals no longer compact inline
        on the mutation path.  Disabled (the default): the thread is
        stopped and the store's inline 25%-dead threshold compaction is
        restored.
        """
        if enabled:
            if self._compactor is not None and self._compactor.running:
                if dead_fraction is not None:
                    self._compactor.dead_fraction = float(dead_fraction)
                if interval is not None:
                    self._compactor.interval = float(interval)
                return
            self._compactor = ArenaCompactor(
                self._store,
                dead_fraction=(
                    0.25 if dead_fraction is None else float(dead_fraction)
                ),
                interval=0.05 if interval is None else float(interval),
            )
            self._compactor.start()
        else:
            compactor, self._compactor = self._compactor, None
            if compactor is not None:
                compactor.stop()

    def compaction_info(self) -> Dict[str, object]:
        """Arena + compactor observability snapshot (``stat``)."""
        compactor = self._compactor
        info: Dict[str, object] = {
            "background": compactor is not None and compactor.running,
        }
        if compactor is not None:
            info["dead_fraction"] = compactor.dead_fraction
            info["interval"] = compactor.interval
        info.update(self._store.arena_info())
        return info

    def parallel_info(self) -> Dict[str, object]:
        """Result-cache observability snapshot (the server's ``stat``)."""
        return {"cache": self._filter_cache.stats()}

    def _query_cache_key(
        self, query: ObjectSignature, query_sketches: np.ndarray, params_key
    ):
        """Identity of one query's scan: params + the exact top-``r``
        sketch rows and their weights (all the scan ever looks at)."""
        params = self.filter_params
        top = query.top_segments(params.num_query_segments)
        weights = np.asarray(query.weights, dtype=np.float64)[top]
        return (
            params_key,
            self.sketcher.n_bits,
            np.ascontiguousarray(query_sketches[top]).tobytes(),
            weights.tobytes(),
        )

    def _filter_candidates(
        self,
        queries: Sequence[ObjectSignature],
        query_sketches_list: Sequence[np.ndarray],
        trace: Optional[QueryTrace] = None,
    ) -> List[Set[int]]:
        """Filtering-phase candidate sets for a batch of queries.

        Order of attack: the epoch-invalidated LRU cache, then the
        fused pass (:func:`~repro.core.filtering.sketch_filter_many`),
        which scans the arena in place.  Both return identical candidate
        sets, so the choice is invisible to callers.  When ``trace`` is
        given, the scan path, cache hit/miss split, and scan time are
        recorded on it.
        """
        params = self.filter_params
        n = len(queries)
        results: List[Optional[Set[int]]] = [None] * n
        params_key = params.cache_key()
        cache = self._filter_cache
        keys: List[Optional[tuple]] = [None] * n
        epoch_seen = self._store.epoch
        if cache.max_entries and params_key is not None:
            for i, (q, qs) in enumerate(zip(queries, query_sketches_list)):
                keys[i] = self._query_cache_key(q, qs, params_key)
                hit = cache.lookup(epoch_seen, keys[i])
                if hit is not None:
                    results[i] = set(hit)
        miss = [i for i in range(n) if results[i] is None]
        if trace is not None:
            trace.add_count("cache_hits", n - len(miss))
            trace.add_count("cache_misses", len(miss))
        if not miss:
            if trace is not None:
                trace.note("scan", "cache")
            return results  # type: ignore[return-value]
        miss_queries = [queries[i] for i in miss]
        miss_sketches = [query_sketches_list[i] for i in miss]
        scan_started = time.perf_counter()
        computed = sketch_filter_many(
            miss_queries, miss_sketches, self._store, params,
            n_bits=self.sketcher.n_bits,
        )
        if trace is not None:
            trace.add_stage("serial_scan", time.perf_counter() - scan_started)
            trace.note("scan", "serial")
        # The scan snapshots internally; only cache when the store
        # provably did not move underneath the whole pass.
        if self._store.epoch != epoch_seen:
            _M_CACHE_RACE_SKIPS.inc()
        elif cache.max_entries and params_key is not None:
            for i, cand in zip(miss, computed):
                if keys[i] is not None:
                    cache.store(epoch_seen, keys[i], frozenset(cand))
        for i, cand in zip(miss, computed):
            results[i] = cand
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Query processing
    # ------------------------------------------------------------------
    def query(
        self,
        query: ObjectSignature,
        top_k: int = 10,
        method: SearchMethod = SearchMethod.FILTERING,
        exclude_self: bool = False,
        restrict_to: Optional[Sequence[int]] = None,
        cascade: Optional[int] = None,
    ) -> List[SearchResult]:
        """Find the ``top_k`` objects most similar to ``query``.

        This is :meth:`query_many` with a batch of one.

        ``restrict_to`` limits the search to a subset of object ids —
        this is how attribute-based search composes with similarity
        search (section 4.1.2): run the attribute query first, then
        similarity-search only its matches.

        ``cascade`` (FILTERING only) inserts a cheap middle stage: the
        filter's candidates are pre-ranked by the sketch-estimated
        object distance and only the best ``cascade`` of them get the
        exact (expensive) object distance.  This trades a little recall
        for a large ranking-cost reduction when the candidate set is
        big — the direction the paper's conclusion sketches for "more
        efficiently computable distance functions".
        """
        return self.query_many(
            [query], top_k, method, exclude_self, restrict_to, cascade
        )[0]

    def _note_rank(
        self, trace: Optional[QueryTrace], seconds: float, stats: RankStats
    ) -> None:
        """Record one ranking pass: wall time, how many candidates got a
        full (expensive) distance evaluation, how many a lower bound
        pruned, and the bound/solve time split (as a ``rank`` span)."""
        _M_RANK_SECONDS.observe(seconds)
        _M_DISTANCE_EVALS.inc(stats.exact_evals)
        _M_RANK_EXACT_EVALS.inc(stats.exact_evals)
        _M_RANK_LB_PRUNES.inc(stats.lower_bound_prunes)
        total = _M_RANK_EXACT_EVALS.value + _M_RANK_LB_PRUNES.value
        if total > 0:
            _M_RANK_PRUNE_RATE.set(_M_RANK_LB_PRUNES.value / total)
        _M_RANK_BOUND_SECONDS.observe(stats.bound_seconds)
        _M_RANK_SOLVE_SECONDS.observe(stats.solve_seconds)
        if trace is not None:
            trace.add_stage("rank", seconds)
            trace.add_count("distance_evals", stats.exact_evals)
            trace.add_count("rank_considered", stats.considered)
            trace.add_count("lower_bound_prunes", stats.lower_bound_prunes)
            trace.add_span(
                "rank", bound=stats.bound_seconds, solve=stats.solve_seconds
            )

    def _universe(
        self, restrict_to: Optional[Sequence[int]]
    ) -> Collection[int]:
        """Ids a query may return, as a container for ``in`` / ``len``.

        Unrestricted, that is the live object map itself: the filter
        hands over at most ``r * k`` candidates, so testing each against
        the map is O(candidates), where copying the id set is O(objects)
        per query (1 ms at 100k).  A path that *iterates* the universe
        must snapshot it first (``tuple(universe)``) — inserts and
        removes run concurrently with queries.
        """
        if restrict_to is None:
            return self._objects
        return {i for i in restrict_to if i in self._objects}

    def query_many(
        self,
        queries: Sequence[ObjectSignature],
        top_k: int = 10,
        method: SearchMethod = SearchMethod.FILTERING,
        exclude_self: bool = False,
        restrict_to: Optional[Sequence[int]] = None,
        cascade: Optional[int] = None,
    ) -> List[List[SearchResult]]:
        """Answer a batch of queries; returns one result list per query.

        The engine's one query pipeline (:meth:`query` is a batch of
        one; the options are :meth:`query`'s).  Every query's segments
        are sketched in one concatenated pass.  For ``FILTERING`` the
        scans are then fused: every query's top-``r`` segment sketches
        are stacked into one matrix and the whole segment store is
        streamed through the filter's full scan exactly once, so the
        per-query scan cost is amortized across the batch.  Each query's
        candidates (or, for the brute-force methods, the whole
        universe) are then ranked one query after another (ranking
        holds the GIL, so threads would not overlap it).  A
        :class:`~repro.core.emd.NonFiniteDistanceError` raised by a
        poisoned candidate propagates carrying the offending
        ``object_id``.

        A call counts ``len(queries)`` in ``engine.queries``, books one
        ``engine.query_seconds`` sample, and, traced, one trace for the
        whole batch.  ``method`` may also be given by value
        (``"filtering"``); an unknown one raises :class:`ValueError`.
        """
        method = SearchMethod(method)
        queries = list(queries)
        if not queries:
            return []
        if top_k <= 0:
            raise ValueError("top_k must be positive")
        if not self._objects:
            return [[] for _ in queries]
        universe = self._universe(restrict_to)
        started = time.perf_counter()
        trace = self.tracer.begin(method.value, len(queries))
        if method is SearchMethod.BRUTE_FORCE_ORIGINAL:
            candidate_sets: List[Collection[int]] = [tuple(universe)] * len(queries)
        else:
            sketch_started = time.perf_counter()
            all_sketches = self.sketcher.sketch_many(
                np.concatenate([q.features for q in queries], axis=0)
            )
            counts = [q.num_segments for q in queries]
            sketches_list = [
                all_sketches[end - count : end]
                for end, count in zip(itertools.accumulate(counts), counts)
            ]
            if trace is not None:
                trace.add_stage("sketch", time.perf_counter() - sketch_started)
            if method is SearchMethod.FILTERING:
                candidate_sets = self._filter_stage(
                    queries, sketches_list, universe, cascade, exclude_self,
                    trace,
                )

        rank_started = time.perf_counter()
        if method is SearchMethod.BRUTE_FORCE_SKETCH:
            all_results = [
                self._rank_by_sketch(q, sketches, universe, top_k, exclude_self)
                for q, sketches in zip(queries, sketches_list)
            ]
            evals = len(universe) * len(queries)
            stats = RankStats(considered=evals, exact_evals=evals)
        else:
            # One merged RankStats keeps the metric update atomic per batch.
            stats = RankStats()
            all_results = []
            for query, candidates in zip(queries, candidate_sets):
                results, one = rank_candidates_many(
                    query, candidates, self._objects, self.plugin.obj_distance,
                    top_k=top_k, exclude_self=exclude_self,
                    params=self.rank_params,
                )
                stats.merge(one)
                all_results.append(results)
        self._note_rank(trace, time.perf_counter() - rank_started, stats)
        elapsed = time.perf_counter() - started
        _M_QUERIES.inc(len(queries))
        _M_QUERY_SECONDS.observe(elapsed)
        if trace is not None:
            self.tracer.finish(trace, elapsed)
        else:
            self.tracer.observe_total(method.value, len(queries), elapsed)
        return all_results

    def _filter_stage(
        self,
        queries: List[ObjectSignature],
        sketches_list: List[np.ndarray],
        universe: Collection[int],
        cascade: Optional[int],
        exclude_self: bool,
        trace: Optional[QueryTrace],
    ) -> List[Set[int]]:
        """FILTERING's candidate sets: one fused filter pass, limited to
        ``universe``, then each set over ``cascade`` pruned to its
        ``cascade`` best by the sketch-estimated distance."""
        filter_started = time.perf_counter()
        found = self._filter_candidates(queries, sketches_list, trace=trace)
        filter_seconds = time.perf_counter() - filter_started
        _M_FILTER_SECONDS.observe(filter_seconds)
        candidate_sets = [{i for i in cand if i in universe} for cand in found]
        for candidates in candidate_sets:
            _M_CANDIDATES.observe(len(candidates))
        if trace is not None:
            trace.add_stage("filter", filter_seconds)
            trace.add_count("candidates", sum(map(len, candidate_sets)))
        if cascade is None or cascade <= 0:
            return candidate_sets
        cascade_started = time.perf_counter()
        pruned = [i for i, c in enumerate(candidate_sets) if len(c) > cascade]
        for i in pruned:
            candidate_sets[i] = self._cascade_prune(
                queries[i], sketches_list[i], candidate_sets[i], cascade,
                exclude_self,
            )
        if trace is not None and pruned:
            trace.add_stage("cascade", time.perf_counter() - cascade_started)
            trace.add_count(
                "cascade_survivors", sum(len(candidate_sets[i]) for i in pruned)
            )
        return candidate_sets

    def query_by_id(self, object_id: int, **kwargs) -> List[SearchResult]:
        """Query using an already-inserted object as the seed."""
        return self.query(self._objects[object_id], **kwargs)

    def query_file(self, filename: str, **kwargs) -> List[SearchResult]:
        """Query with a file as the seed: the query data runs through
        the same segmentation and feature extraction unit as data input
        (Figure 3's query path)."""
        return self.query(self.plugin.extract(filename), **kwargs)

    def _rank_by_sketch(
        self,
        query: ObjectSignature,
        query_sketches: np.ndarray,
        universe: Collection[int],
        top_k: int,
        exclude_self: bool,
    ) -> List[SearchResult]:
        """BruteForceSketch: object distance with Hamming segment costs.

        For multi-segment objects this is EMD over the Hamming cost
        matrix; single-segment objects reduce to plain sketch Hamming,
        which vectorizes into one XOR+popcount scan over the whole
        sketch database — the regime where the paper reports its ~4x
        shape-search speedup.
        """
        if query.num_segments == 1 and len(self._store) == len(self._objects):
            # Every object (and the query) has exactly one segment: the
            # segment store's rows are the per-object sketches.
            owners, sketch_matrix = self._store.snapshot()
            dists = hamming_to_many(query_sketches[0], sketch_matrix)
            results = [
                SearchResult(float(d), int(oid))
                for d, oid in zip(dists, owners)
                if int(oid) in universe
                and not (exclude_self and int(oid) == query.object_id)
            ]
            results.sort()
            return results[:top_k]
        # Multi-segment: one batched Hamming pass over the whole segment
        # store, then per-object cost matrices come from owner-sorted
        # prefix slices instead of a hamming_to_many call per object.
        group_owners, starts, dists = self._owner_sorted_scan(query_sketches)
        ends = np.append(starts[1:], dists.shape[1])
        results: List[SearchResult] = []
        for group, object_id in enumerate(group_owners):
            object_id = int(object_id)
            if object_id not in universe:
                continue
            if exclude_self and object_id == query.object_id:
                continue
            cand = self._objects.get(object_id)
            if cand is None:
                continue
            costs = dists[:, starts[group] : ends[group]].astype(np.float64)
            if costs.shape == (1, 1):
                dist = float(costs[0, 0])
            else:
                dist = solve_transport(query.weights, cand.weights, costs).cost
            results.append(SearchResult(dist, object_id))
        results.sort()
        return results[:top_k]

    def _owner_sorted_scan(
        self, query_sketches: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One batched Hamming scan over the store, grouped by owner.

        Returns ``(group_owners, starts, dists)``: ``dists`` is the
        ``(num_query_segments, n_live_rows)`` distance matrix with
        columns sorted by owning object (segment insertion order is
        preserved inside each group, matching the owner's signature row
        order), ``starts[i]`` is the first column of ``group_owners[i]``'s
        slice, and tombstoned rows are dropped before the scan.
        """
        owners, sketch_matrix = self._store.snapshot()
        alive = np.nonzero(owners >= 0)[0]
        n_queries = np.atleast_2d(query_sketches).shape[0]
        if alive.size == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, np.empty((n_queries, 0), dtype=np.uint32)
        order = alive[np.argsort(owners[alive], kind="stable")]
        # Gather columns of the word-major arena, not rows of its view:
        # the copy then already has the layout the kernel scans in place.
        dists = hamming_many_to_many(query_sketches, sketch_matrix.T[:, order].T)
        group_owners, starts = np.unique(owners[order], return_index=True)
        return group_owners, starts, dists

    def _cascade_prune(
        self,
        query: ObjectSignature,
        query_sketches: np.ndarray,
        candidates: set,
        cascade: int,
        exclude_self: bool,
    ) -> set:
        """Keep the ``cascade`` candidates with the smallest *relaxed*
        sketch distance.

        The proxy is the classical relaxed EMD lower bound: each query
        segment is matched to its nearest candidate segment regardless of
        capacity, ``sum_i w_i min_j H(q_i, c_j)``.  All candidates are
        scored from one batched Hamming pass over the owner-sorted
        segment store (grouped ``minimum.reduceat`` instead of a
        ``hamming_to_many`` call per object), and no flow solve runs, so
        it is far cheaper than the exact object distance it stands in
        for.
        """
        group_owners, starts, dists = self._owner_sorted_scan(query_sketches)
        if group_owners.size == 0:
            return set()
        # (r, n_groups): per query segment, the nearest segment of each object.
        group_mins = np.minimum.reduceat(dists, starts, axis=1)
        proxies = np.asarray(query.weights, dtype=np.float64) @ group_mins
        scored = [
            (float(proxies[group]), int(object_id))
            for group, object_id in enumerate(group_owners)
            if int(object_id) in candidates
            and not (exclude_self and int(object_id) == query.object_id)
        ]
        scored.sort()
        return {object_id for _proxy, object_id in scored[:cascade]}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop the background compactor if one is running.

        Idempotent; the engine keeps answering queries after.
        """
        compactor, self._compactor = self._compactor, None
        if compactor is not None:
            compactor.stop()

    def __enter__(self) -> "SimilaritySearchEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._objects)

    def __contains__(self, object_id: int) -> bool:
        return object_id in self._objects

    def get_object(self, object_id: int) -> ObjectSignature:
        return self._objects[object_id]

    @property
    def objects(self) -> Mapping[int, ObjectSignature]:
        return self._objects

    @property
    def next_id(self) -> int:
        """The id the next auto-assigned insert would take.

        A cluster coordinator routing writes by object id seeds its
        global id counter from the maximum of its backends' ``next_id``
        so coordinator-assigned ids never collide with existing objects.
        """
        return self._next_id

    def stats(self) -> EngineStats:
        num_segments = len(self._store)
        dim = self.plugin.meta.dim
        feature_bits = dim * 32  # paper counts feature vectors as 32-bit floats
        return EngineStats(
            num_objects=len(self._objects),
            num_segments=num_segments,
            feature_bits_per_vector=feature_bits,
            sketch_bits_per_vector=self.sketcher.n_bits,
            feature_bytes=num_segments * dim * 4,
            sketch_bytes=self._store.sketch_bytes,
        )

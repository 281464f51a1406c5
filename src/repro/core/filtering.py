"""Filtering unit — first phase of the two-step similarity search.

Section 4.1.1: given a query object ``Q``, select the ``r`` segments of
``Q`` with the highest weights.  A database segment ``T_j`` matches a
high-weight query segment ``Q_i`` if it is among the ``k`` nearest
segments to ``Q_i`` *and* its distance is within a threshold that is a
decreasing function of ``w(Q_i)``.  Objects owning at least one matching
segment form the candidate set handed to the ranking unit.

The scan compares sketches with Hamming distance and, as in the paper,
streams over every segment sketch in the store: one compiled top-k pass
(:func:`~repro.core.bitvector.hamming_topk`) per query batch
(:func:`sketch_filter_many`).
:func:`sketch_filter_reference`, one scan per query segment, is the
oracle its candidate sets must equal.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from ..observability import metrics as _metrics
from .bitvector import hamming_to_many, hamming_topk
from .types import ObjectSignature

__all__ = [
    "ArenaCompactor",
    "FilterParams",
    "SegmentStore",
    "get_threshold_fn",
    "register_threshold_fn",
    "select_k_smallest",
    "sketch_filter",
    "sketch_filter_many",
    "sketch_filter_reference",
]

# Arena telemetry (see docs/OBSERVABILITY.md).  Handles are created once
# at import; the registry's reset() zeroes them in place.
_M_ARENA_APPENDS = _metrics.counter("arena.appends")
_M_ARENA_CHUNKS = _metrics.gauge("arena.chunks")
_M_ARENA_COMPACTIONS = _metrics.counter("arena.compactions")
_M_ARENA_ROWS = _metrics.gauge("arena.rows")
_M_ARENA_DEAD_ROWS = _metrics.gauge("arena.dead_rows")
_M_ARENA_COMPACT_SECONDS = _metrics.histogram("arena.compaction_seconds")
_M_ARENA_COMPACT_ERRORS = _metrics.counter("errors_absorbed.arena_compactor")


def default_threshold_fn(weight: float) -> float:
    """Default multiplier for the per-segment distance threshold.

    Decreasing in the segment weight, per the paper: heavier (more
    important) query segments must match more tightly.  Returns a factor
    in ``(0.5, 1.0]`` applied to the base threshold.
    """
    return 1.0 - 0.5 * min(max(weight, 0.0), 1.0)


def constant_threshold_fn(weight: float) -> float:
    """Weight-independent multiplier: every segment gets the base threshold."""
    return 1.0


# Named threshold functions.  ``FilterParams`` defaults to a *name* so the
# params travel across process boundaries (the wire protocol's
# setparam) without pickling code objects; custom callables still work
# in-process but cannot be serialized.
_THRESHOLD_FNS: Dict[str, Callable[[float], float]] = {}


def register_threshold_fn(name: str, fn: Callable[[float], float]) -> None:
    """Register a named weight->multiplier function for FilterParams."""
    if not name or not isinstance(name, str):
        raise ValueError("threshold function name must be a non-empty string")
    _THRESHOLD_FNS[name] = fn


def get_threshold_fn(name: str) -> Callable[[float], float]:
    """Look up a registered threshold function by name."""
    try:
        return _THRESHOLD_FNS[name]
    except KeyError:
        raise ValueError(
            f"unknown threshold function {name!r}; registered: "
            f"{sorted(_THRESHOLD_FNS)}"
        ) from None


register_threshold_fn("default", default_threshold_fn)
register_threshold_fn("constant", constant_threshold_fn)


@dataclass(frozen=True)
class FilterParams:
    """Tuning knobs of the filtering unit.

    Parameters
    ----------
    num_query_segments:
        ``r`` — how many of the highest-weight query segments to scan for.
    candidates_per_segment:
        ``k`` — how many nearest database segments each query segment may
        contribute.
    threshold_fraction:
        Base distance threshold as a fraction of the maximum possible
        distance (sketch bits for Hamming scans).  ``None`` disables the
        threshold, keeping the pure k-NN criterion.
    threshold_fn:
        Weight-dependent multiplier on the base threshold; must be
        decreasing in the weight.  Either the name of a function added
        with :func:`register_threshold_fn` or a bare callable (whose
        filter results are never cached; see :meth:`cache_key`).
    """

    num_query_segments: int = 4
    candidates_per_segment: int = 64
    threshold_fraction: Optional[float] = 0.5
    threshold_fn: Union[str, Callable[[float], float]] = "default"

    def __post_init__(self) -> None:
        if self.num_query_segments <= 0:
            raise ValueError("num_query_segments (r) must be positive")
        if self.candidates_per_segment <= 0:
            raise ValueError("candidates_per_segment (k) must be positive")
        if self.threshold_fraction is not None and not (
            0.0 < self.threshold_fraction <= 1.0
        ):
            raise ValueError("threshold_fraction must be in (0, 1]")
        if isinstance(self.threshold_fn, str):
            get_threshold_fn(self.threshold_fn)  # fail fast on unknown names
        elif not callable(self.threshold_fn):
            raise ValueError("threshold_fn must be a registered name or callable")

    def threshold_factor(self, weight: float) -> float:
        """Evaluate the (possibly named) threshold function at ``weight``."""
        fn = (
            get_threshold_fn(self.threshold_fn)
            if isinstance(self.threshold_fn, str)
            else self.threshold_fn
        )
        return fn(weight)

    @property
    def threshold_fn_name(self) -> Optional[str]:
        """Registered name of ``threshold_fn``, or ``None`` for anonymous
        callables (reverse-resolved by identity for registered callables)."""
        if isinstance(self.threshold_fn, str):
            return self.threshold_fn
        for name, fn in _THRESHOLD_FNS.items():
            if fn is self.threshold_fn:
                return name
        return None

    def cache_key(self) -> Optional[Tuple]:
        """Stable hashable identity for result caching.

        ``None`` (uncacheable) when the threshold function is an
        unregistered callable — its identity would not survive a
        re-registration, and two processes could not agree on it.
        """
        name = self.threshold_fn_name
        if name is None:
            return None
        return (
            self.num_query_segments,
            self.candidates_per_segment,
            self.threshold_fraction,
            name,
        )


def _stack(blocks: Sequence[np.ndarray]) -> np.ndarray:
    # A lone block is used as is: the arena write copies it anyway.
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)


class SegmentStore:
    """Segmented, append-only arena of every segment in the system.

    Keeps two parallel capacity-grown arrays: packed sketch words and the
    owning object id of each segment (the engine's signatures hold the
    feature vectors).  ``n_bits`` is the sketch length (default: every
    bit of the ``n_words`` words).
    Sketches are stored *word-major* — ``(n_words, capacity)``, a segment
    per column — because that is the order the Hamming kernel reads them
    in (:func:`~repro.core.bitvector.hamming_topk` streams one word of
    every row per pass).  The transpose is paid once, by the
    append that writes the columns; every accessor hands out the
    ``(n_rows, n_words)`` transposed *view*, so consumers index rows as
    if the array were row-major and scans run on it without a copy.
    Inserts seal an immutable chunk by writing columns past the logical
    end (``_n``) — amortized O(rows added), never a full-matrix copy — and
    deletes tombstone in place (owner -1).  An object's rows are
    contiguous (appended together, and both compactions keep row order),
    so the store keeps each live object's ``(start, end)`` span and a
    delete costs O(its rows), not a scan of the arena.  Scans read the
    arena in place (:meth:`snapshot`); there is no second copy to keep
    fresh, so a row is visible to the next scan as soon as its append
    returns.
    """

    def __init__(self, n_words: int, *, n_bits: Optional[int] = None) -> None:
        if n_bits is None:
            n_bits = 64 * n_words
        if not 0 < n_bits <= 64 * n_words:
            raise ValueError(f"n_bits must be in (0, {64 * n_words}], got {n_bits}")
        self.n_words = n_words
        self.n_bits = n_bits
        self._cap = 0
        self._n = 0
        self._sketches = np.empty((n_words, 0), dtype=np.uint64)
        self._owners = np.empty(0, dtype=np.int64)
        # Live object id -> its contiguous row span [start, end).
        self._spans: Dict[int, Tuple[int, int]] = {}
        self._dead = 0
        # Mutation epoch: bumped on every logical change (insert, remove,
        # compact).  Consumers that hold derived state — the query-result
        # cache — compare epochs to detect staleness instead of diffing
        # arrays.
        self._epoch = 0
        # Chunks since the last rewrite: the baseline plus one per sealed
        # append (``stat`` prints it as ``arena_chunks``).
        self._marks = 1
        self._compaction_epoch = 0
        self._compactor: Optional["ArenaCompactor"] = None
        # The engine runs as one concurrent program (section 3): server
        # threads scan while acquisition threads append, so row writes
        # and span updates are serialized here.
        self._lock = threading.RLock()

    def _grow(self, min_cap: int) -> None:
        # Doubling keeps appends amortized O(1) per row.  The old
        # allocations are left intact: snapshot views handed out earlier
        # keep reading the (immutable) rows they were cut from.
        new_cap = max(min_cap, max(64, self._cap * 2))
        sk = np.empty((self.n_words, new_cap), dtype=np.uint64)
        sk[:, : self._n] = self._sketches[:, : self._n]
        self._sketches = sk
        ow = np.full(new_cap, -1, dtype=np.int64)
        ow[: self._n] = self._owners[: self._n]
        self._owners = ow
        self._cap = new_cap

    def add_object(self, object_id: int, sketches: np.ndarray) -> None:
        """Append one object's rows (a single row may be given 1-D)."""
        self.add_many([object_id], [np.atleast_2d(sketches)])

    def add_many(
        self, ids: Sequence[int], sketch_blocks: Sequence[np.ndarray]
    ) -> None:
        """Append objects as one chunk: one grow, one epoch, one chunk.

        ``sketch_blocks[i]`` holds object ``ids[i]``'s ``(rows, n_words)``
        sketches.  All-or-nothing: the blocks are validated (``ValueError``), and the
        ids checked against the live ids and each other (``KeyError``),
        before any state changes.
        """
        ids = list(ids)
        counts = [len(block) for block in sketch_blocks]
        if len(counts) != len(ids):
            raise ValueError(f"{len(ids)} ids but {len(counts)} sketch blocks")
        if not ids:
            return
        if 0 in counts:
            # A zero-row matrix would register the object nowhere in the
            # scan arrays: present in the engine but invisible to every
            # filter pass.  Reject it instead of silently dropping it.
            raise ValueError(
                f"object {ids[counts.index(0)]} has no segment sketches; objects "
                "must have at least one segment to be searchable"
            )
        sketches = np.asarray(_stack(sketch_blocks), dtype=np.uint64)
        if sketches.ndim != 2 or sketches.shape[1] != self.n_words:
            raise ValueError(
                f"expected {self.n_words}-word sketches, got shape {sketches.shape}"
            )
        with self._lock:
            # A second live copy of an id would orphan the first: its span
            # is overwritten, so its rows could never be tombstoned.
            if not self._spans.keys().isdisjoint(ids) or len(set(ids)) != len(ids):
                taken = [oid for oid in ids if oid in self._spans]
                raise KeyError(
                    f"object ids already present or repeated: {taken or ids}"
                )
            start = self._n
            end = start + sketches.shape[0]
            if end > self._cap:
                self._grow(end)
            self._sketches[:, start:end] = sketches.T
            self._owners[start:end] = (
                ids[0] if len(ids) == 1 else np.repeat(ids, counts)
            )
            row = start
            for oid, count in zip(ids, counts):
                self._spans[oid] = (row, row + count)
                row += count
            self._n = end
            self._epoch += 1
            self._marks += 1
            _M_ARENA_APPENDS.inc()
            _M_ARENA_ROWS.set(float(end))
            _M_ARENA_CHUNKS.set(float(self._marks))

    def _sketch_rows(self) -> np.ndarray:
        # Caller holds the lock.  Row view of the word-major arena.
        return self._sketches[:, : self._n].T

    @property
    def sketches(self) -> np.ndarray:
        with self._lock:
            return self._sketch_rows()

    @property
    def owners(self) -> np.ndarray:
        with self._lock:
            return self._owners[: self._n]

    def snapshot(self) -> Tuple[np.ndarray, np.ndarray]:
        """Atomically consistent ``(owners, sketches)`` views.

        Reading the properties separately races with concurrent inserts
        (an append can grow one array between the two reads); scans must
        take both from one locked snapshot.  The views are zero-copy
        slices of the live arena: rows appended later fall outside the
        slice, and capacity growth reallocates, so a snapshot's content
        is frozen at cut time *except* for in-place tombstones, which
        remain visible — exactly the pre-arena semantics the epoch
        staleness checks are built on.
        """
        with self._lock:
            return self._owners[: self._n], self._sketch_rows()

    @property
    def epoch(self) -> int:
        """Monotonic mutation counter (insert/remove/compact each bump it)."""
        with self._lock:
            return self._epoch

    def remove_object(self, object_id: int) -> int:
        """Drop an object's segments; returns how many were removed.

        The object's span is tombstoned in place (owner set to -1), so
        removal costs O(the object's rows), with no scan and no rebuild.
        With no compactor attached the store compacts itself inline once
        a quarter of its rows are dead; with an attached
        :class:`ArenaCompactor` it wakes the background thread instead.
        Scans skip tombstoned rows via the owner check.
        """
        with self._lock:
            span = self._spans.pop(object_id, None)
            if span is None:
                return 0
            start, end = span
            self._owners[start:end] = -1
            removed = end - start
            self._dead += removed
            self._epoch += 1
            _M_ARENA_DEAD_ROWS.set(float(self._dead))
            if self._dead * 4 >= self._n:
                if self._compactor is not None:
                    self._compactor.wake()
                else:
                    self.compact()
            return removed

    def dead_fraction(self) -> float:
        """Tombstoned share of physical rows (compaction trigger input)."""
        with self._lock:
            return self._dead / self._n if self._n else 0.0

    def attach_compactor(self, compactor: Optional["ArenaCompactor"]) -> None:
        """Hand dead-row cleanup to a background compactor (``None`` to
        restore inline threshold compaction)."""
        with self._lock:
            self._compactor = compactor

    def _install_compacted(
        self, sketches: np.ndarray, owners: np.ndarray, dead: int
    ) -> None:
        # Caller holds the lock.  Installs a rewritten arena (``sketches``
        # word-major, a column per owner) as one chunk.
        n = int(owners.shape[0])
        self._sketches = np.ascontiguousarray(sketches, dtype=np.uint64)
        self._owners = np.ascontiguousarray(owners, dtype=np.int64)
        # Rewrites keep row order, so each live object is still one run
        # of equal owners: cut where the owner changes, skip the -1 runs.
        starts = np.flatnonzero(np.diff(self._owners, prepend=-2, append=-2))
        run_ids = self._owners[starts[:-1]]
        live = run_ids >= 0
        self._spans = dict(
            zip(
                run_ids[live].tolist(),
                zip(starts[:-1][live].tolist(), starts[1:][live].tolist()),
            )
        )
        self._cap = n
        self._n = n
        self._dead = dead
        self._epoch += 1
        self._compaction_epoch = self._epoch
        self._marks = 1
        _M_ARENA_COMPACTIONS.inc()
        _M_ARENA_ROWS.set(float(n))
        _M_ARENA_DEAD_ROWS.set(float(dead))
        _M_ARENA_CHUNKS.set(1.0)

    def compact(self) -> None:
        """Synchronously drop tombstoned rows (full rewrite under the lock).

        The background path (:meth:`maintenance_compact`) does the heavy
        row gather outside the lock; this inline variant serves explicit
        calls and stores without an attached compactor.
        """
        with self._lock:
            t0 = time.perf_counter()
            n = self._n
            alive = self._owners[:n] >= 0
            self._install_compacted(
                self._sketches[:, :n][:, alive],
                self._owners[:n][alive],
                dead=0,
            )
            _M_ARENA_COMPACT_SECONDS.observe(time.perf_counter() - t0)

    def maintenance_compact(self) -> bool:
        """Background compaction under a live/maintenance epoch split.

        Phase 1 (locked) marks the arena: epoch, row count, and an
        owners copy.  Phase 2 (unlocked) gathers the alive rows — the
        expensive part — reading the captured arrays' immutable prefix
        while inserts, removes, and scans proceed.  Phase 3 (locked)
        diffs the owners copy against the live owners to find the rows
        tombstoned since the mark, kills them at their compacted
        positions, appends rows that arrived during phase 2 verbatim,
        and installs the rewrite.  Returns ``True`` if a rewrite was
        installed, ``False`` if there was nothing to do or another
        compaction landed first.
        """
        with self._lock:
            if self._dead == 0:
                return False
            base_compaction = self._compaction_epoch
            n0 = self._n
            owners0 = self._owners[:n0].copy()
            sk_ref = self._sketches
        # Phase 2 — outside the lock.  Rows [0:n0] of the captured
        # arrays (columns, for the word-major sketches) are immutable
        # (appends write past n0 or into a freshly grown allocation;
        # tombstones touch only the owners array, which was copied), so
        # the gather reads a stable prefix.
        t0 = time.perf_counter()
        alive = owners0 >= 0
        pos_map = np.cumsum(alive, dtype=np.int64) - 1
        new_sk = sk_ref[:, :n0][:, alive]
        new_ow = owners0[alive]
        with self._lock:
            if self._compaction_epoch != base_compaction:
                return False  # another compaction landed first; abandon
            # Rows alive at the mark and dead now were removed during
            # the gather (a row never comes back to life, and a grow
            # copies the tombstones), so pos_map translates each to its
            # compacted position.
            hit = np.flatnonzero(alive & (self._owners[:n0] < 0))
            new_ow[pos_map[hit]] = -1
            dead_after = int(hit.size)
            if self._n > n0:
                tail = slice(n0, self._n)
                tail_ow = self._owners[tail].copy()
                dead_after += int((tail_ow < 0).sum())
                new_ow = np.concatenate([new_ow, tail_ow])
                new_sk = np.concatenate(
                    [new_sk, self._sketches[:, tail]], axis=1
                )
            self._install_compacted(new_sk, new_ow, dead=dead_after)
            _M_ARENA_COMPACT_SECONDS.observe(time.perf_counter() - t0)
            return True

    def arena_info(self) -> Dict[str, int]:
        """Structural counters for ``stat`` and the churn bench."""
        with self._lock:
            return {
                "rows": self._n,
                "alive_rows": self._n - self._dead,
                "dead_rows": self._dead,
                "capacity": self._cap,
                "chunks": self._marks,
                "epoch": self._epoch,
                "compaction_epoch": self._compaction_epoch,
            }

    def __len__(self) -> int:
        with self._lock:
            return self._n - self._dead

    @property
    def sketch_bytes(self) -> int:
        """Total bytes of packed sketch storage (the paper's metadata claim)."""
        with self._lock:
            return (self._n - self._dead) * self.n_words * 8


class ArenaCompactor:
    """Background thread that merges arena chunks and drops dead rows.

    Polls every ``interval`` seconds (and wakes immediately when the
    store crosses its dead-row threshold) and runs
    :meth:`SegmentStore.maintenance_compact` whenever the tombstoned
    fraction reaches ``dead_fraction``.  While attached, the store's
    inline threshold compaction is disabled — cleanup happens off the
    mutation path.
    """

    def __init__(
        self,
        store: SegmentStore,
        dead_fraction: float = 0.25,
        interval: float = 0.05,
    ) -> None:
        if not (0.0 < dead_fraction <= 1.0):
            raise ValueError("dead_fraction must be in (0, 1]")
        if interval <= 0.0:
            raise ValueError("interval must be positive")
        self._store = store
        self.dead_fraction = float(dead_fraction)
        self.interval = float(interval)
        self._wake = threading.Event()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> None:
        if self._thread is not None:
            return
        self._stop.clear()
        self._store.attach_compactor(self)
        self._thread = threading.Thread(
            target=self._run, name="arena-compactor", daemon=True
        )
        self._thread.start()

    def wake(self) -> None:
        """Request a compaction check without waiting for the next poll."""
        self._wake.set()

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._wake.set()
        self._thread.join(timeout=10.0)
        self._thread = None
        self._store.attach_compactor(None)

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def run_once(self) -> bool:
        """One compaction pass if the dead fraction warrants it."""
        if self._store.dead_fraction() >= self.dead_fraction:
            return self._store.maintenance_compact()
        return False

    def _run(self) -> None:
        while not self._stop.is_set():
            self._wake.wait(self.interval)
            self._wake.clear()
            if self._stop.is_set():
                break
            try:
                self.run_once()
            except Exception:
                _M_ARENA_COMPACT_ERRORS.inc()


def select_k_smallest(
    dists: np.ndarray, k: int, ids: Optional[np.ndarray] = None
) -> np.ndarray:
    """Per-row column indices of the ``k`` smallest entries, deterministic.

    Ties with the k-th smallest value are admitted in ascending ``ids``
    order (``ids`` defaults to the column index), so the *set* selected
    per row is fully determined by the data — unlike a bare
    ``argpartition``, whose introselect breaks boundary ties arbitrarily.
    The reference filter selects by this rule, and the compiled top-k
    pass (:func:`~repro.core.bitvector.hamming_topk`) keeps the same
    one, which is what keeps their candidate sets identical even when
    distances tie exactly at the k-NN cutoff.  The coordinator's merge
    passes ``ids`` (the object ids of its columns).

    Returns an ``(n_rows, min(k, n_cols))`` int64 array; the order of the
    returned columns is unspecified, only the per-row set is defined.
    ``k == 0`` selects nothing; a negative ``k`` is a ``ValueError``.
    """
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    dists = np.atleast_2d(dists)
    n_rows, total = dists.shape
    if k >= total:
        return np.broadcast_to(np.arange(total, dtype=np.int64), dists.shape)
    if k == 0:
        return np.empty((n_rows, 0), dtype=np.int64)
    # (total,) shared across rows, or (n_rows, total) per-row ids.
    id_mat = None if ids is None else np.atleast_2d(np.asarray(ids))
    out = np.empty((n_rows, k), dtype=np.int64)
    for r in range(n_rows):
        row = dists[r]
        # The k-th smallest value, then one pass for everything at or
        # below it; strict entries and ties split among those few.
        # argpartition rather than np.partition: on AVX-512 hosts the
        # latter's SIMD quickselect slows the Python that runs after it
        # (see docs/PERFORMANCE.md, "Per-solve budget").
        cutoff = row[np.argpartition(row, k - 1)[k - 1]]
        within = np.flatnonzero(row <= cutoff)
        below = row[within] < cutoff
        strict = within[below]
        ties = within[~below]
        need = k - strict.size
        if ties.size > need:
            if id_mat is not None:  # column order is already id order
                id_row = id_mat[0] if id_mat.shape[0] == 1 else id_mat[r]
                ties = ties[np.argsort(id_row[ties], kind="stable")]
            ties = ties[:need]
        out[r, : strict.size] = strict
        out[r, strict.size :] = ties
    return out


def sketch_filter(
    query: ObjectSignature,
    query_sketches: np.ndarray,
    store: SegmentStore,
    params: FilterParams,
    n_bits: int,
) -> Set[int]:
    """Run the filtering phase for one query; returns the candidate set.

    This is :func:`sketch_filter_many` with a batch of one.
    ``query_sketches`` is the packed ``(k, n_words)`` sketch matrix of the
    query's segments (same row order as ``query.features``).
    """
    return sketch_filter_many([query], [query_sketches], store, params, n_bits)[0]


def sketch_filter_reference(
    query: ObjectSignature,
    query_sketches: np.ndarray,
    store: SegmentStore,
    params: FilterParams,
    n_bits: int,
) -> Set[int]:
    """Pre-batch filtering: one full database scan per query segment.

    Kept as the ground-truth implementation: :func:`sketch_filter` and
    :func:`sketch_filter_many` must return an identical candidate set
    (the perf smoke tests and the filter state machine assert this), and
    ``bench_query_throughput.py`` uses it as the before-side of the
    batched-kernel speedup measurement.
    """
    owners, sketch_matrix = store.snapshot()
    total = owners.shape[0]
    if total == 0:
        return set()
    dead = owners < 0
    n_alive = total - int(dead.sum())
    if n_alive == 0:
        return set()
    any_dead = bool(dead.any())
    k = min(params.candidates_per_segment, n_alive)
    candidates: Set[int] = set()
    for seg_idx in query.top_segments(params.num_query_segments):
        weight = float(query.weights[seg_idx])
        dists = hamming_to_many(
            query_sketches[seg_idx], sketch_matrix
        ).astype(np.float64)
        if any_dead:
            dists[dead] = np.inf
        nearest = select_k_smallest(dists[None, :], k)[0]
        if params.threshold_fraction is not None:
            threshold = (
                params.threshold_fraction
                * float(n_bits)
                * params.threshold_factor(weight)
            )
            nearest = nearest[dists[nearest] <= threshold]
        hit_owners = owners[nearest]
        candidates.update(int(o) for o in np.unique(hit_owners) if o >= 0)
    return candidates


def sketch_filter_many(
    queries: Sequence[ObjectSignature],
    query_sketches_list: Sequence[np.ndarray],
    store: SegmentStore,
    params: FilterParams,
    n_bits: int,
) -> List[Set[int]]:
    """Filtering phase for a whole batch of queries in one fused pass.

    Every query's top-``r`` segment sketches are stacked into a single
    ``(sum_of_r, n_words)`` matrix, and one compiled top-k pass
    (:func:`~repro.core.bitvector.hamming_topk`) streams the whole arena
    for the batch; ``k`` is at most the live row count, and tombstoned
    rows (owner -1) never occupy candidate slots.  Each query's rows are
    then thresholded and their owners deduplicated.  Returns one candidate
    set per query, identical to :func:`sketch_filter_reference` on the
    same store snapshot.
    """
    queries = list(queries)
    if not queries:
        return []
    owners, sketch_matrix = store.snapshot()
    # One cheap pass decides whether the tombstone mask is needed at all.
    dead = owners < 0 if owners.size and owners.min() < 0 else None
    n_alive = owners.shape[0] - (0 if dead is None else np.count_nonzero(dead))
    if n_alive == 0:
        return [set() for _ in queries]
    tops = [q.top_segments(params.num_query_segments) for q in queries]
    nearest, near = hamming_topk(
        np.concatenate([qs[top] for qs, top in zip(query_sketches_list, tops)]),
        sketch_matrix,
        min(params.candidates_per_segment, n_alive),
        dead,
    )
    results: List[Set[int]] = []
    offset = 0
    for query, top in zip(queries, tops):
        rows = slice(offset, offset + len(top))
        offset += len(top)
        results.append(
            _candidate_owners(
                owners,
                nearest[rows],
                near[rows],
                _segment_thresholds(query, top, params, n_bits),
            )
        )
    return results


def _segment_thresholds(
    query: ObjectSignature,
    top: Sequence[int],
    params: FilterParams,
    n_bits: int,
) -> Optional[np.ndarray]:
    """Per-segment distance thresholds, or ``None`` when disabled."""
    if params.threshold_fraction is None:
        return None
    factors = np.asarray(
        [params.threshold_factor(float(query.weights[i])) for i in top]
    )
    return params.threshold_fraction * float(n_bits) * factors


def _candidate_owners(
    owners: np.ndarray,
    nearest: np.ndarray,
    near: np.ndarray,
    thresholds: Optional[np.ndarray],
) -> Set[int]:
    """Owners of the selected rows within their row's threshold."""
    if thresholds is not None:
        hits = nearest[near <= thresholds[:, None]]
    else:
        hits = nearest.ravel()
    hit_owners = owners[hits]
    return set(hit_owners[hit_owners >= 0].tolist())

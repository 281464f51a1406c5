"""Filtering unit — first phase of the two-step similarity search.

Section 4.1.1: given a query object ``Q``, select the ``r`` segments of
``Q`` with the highest weights.  A database segment ``T_j`` matches a
high-weight query segment ``Q_i`` if it is among the ``k`` nearest
segments to ``Q_i`` *and* its distance is within a threshold that is a
decreasing function of ``w(Q_i)``.  Objects owning at least one matching
segment form the candidate set handed to the ranking unit.

The scan compares sketches with Hamming distance.  The segment store
keeps an exact multi-index over 32-bit sketch substrings (see
``_build_index``); where it pays, :func:`sketch_filter_many` reads only
the rows that share a substring near a query row's, and falls back to
the full scan for the query rows the index cannot certify.  Either way
the candidate sets are the full scan's.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from ..observability import metrics as _metrics
from .bitvector import hamming_many_to_many, hamming_to_many
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
_M_INDEX_FALLBACK_ROWS = _metrics.counter("filter.index_fallback_rows")

# Multi-index on/off rule: the index is kept where a fixed sample of the
# store's own rows, queried through it, reads on average at most this
# share of the live arena per query row (a row the index cannot certify
# counts as a whole scan).  See docs/PERFORMANCE.md, "Multi-index filter".
_INDEX_MAX_READ = 0.25

# Full-scan split rule (see :func:`_scan_nearest`): arena rows x query
# rows from which the scan runs as two halves on two threads.  Below it
# the hand-off to the helper thread costs more than half a scan saves.
# ``benchmarks/probe_scan_split.py`` (seed 11, 100 queries, 6 rounds) on
# a 2-vCPU VM with numpy 2.4, median ms per scan:
#
#   corpus  rows     query rows  serial  split  split/serial
#   shape    25,000  1           0.76    1.33   1.75
#   shape    50,000  1           1.33    1.21   0.91  (1.12 in another run)
#   shape    75,000  1           1.95    1.54   0.79
#   shape   100,000  1           2.71    1.72   0.63
#   image    16,000  4           0.74    0.98   1.33
#   image    32,000  4           1.47    1.32   0.90
#   image    64,000  4           2.89    1.96   0.68
#   image   129,067  4           5.48    3.27   0.60
#
# The split needs two CPUs; the count is read once, at import.
_SPLIT_MIN_WORK = 70_000
_SPLIT_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
_SPLIT_EXECUTOR: Optional[ThreadPoolExecutor] = None
_SPLIT_LOCK = threading.Lock()


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
        with :func:`register_threshold_fn` (serializable — required for
        cross-process dispatch) or a bare callable (in-process only).
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

    def require_serializable(self, context: str = "cross-process dispatch") -> None:
        """Raise with a clear message when the params cannot leave the process."""
        if self.threshold_fn_name is None:
            raise ValueError(
                f"FilterParams.threshold_fn is an unregistered callable "
                f"({self.threshold_fn!r}) and cannot be serialized for "
                f"{context}; register it with "
                f"repro.core.filtering.register_threshold_fn(name, fn) and "
                f"pass the name instead"
            )

    def to_dict(self) -> Dict[str, object]:
        """Wire/JSON representation; requires a named threshold function."""
        self.require_serializable("to_dict()")
        return {
            "num_query_segments": self.num_query_segments,
            "candidates_per_segment": self.candidates_per_segment,
            "threshold_fraction": self.threshold_fraction,
            "threshold_fn": self.threshold_fn_name,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FilterParams":
        # A missing key means the field's default; only an explicit
        # ``None`` turns the threshold off.
        fraction = data.get("threshold_fraction", cls.threshold_fraction)
        return cls(
            num_query_segments=int(
                data.get("num_query_segments", cls.num_query_segments)
            ),
            candidates_per_segment=int(
                data.get("candidates_per_segment", cls.candidates_per_segment)
            ),
            threshold_fraction=None if fraction is None else float(fraction),
            threshold_fn=str(data.get("threshold_fn", cls.threshold_fn)),
        )

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
    bit of the ``n_words`` words); the multi-index covers only its full
    32-bit substrings, so zero padding never matches.
    Sketches are stored *word-major* — ``(n_words, capacity)``, a segment
    per column — because that is the order the Hamming kernel reads them
    in (:func:`~repro.core.bitvector.hamming_many_to_many` streams one
    word of every row per pass).  The transpose is paid once, by the
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

    The store also keeps the filter's sketch index (:meth:`refresh_index`),
    rebuilt lazily by the first scan that finds it due.
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
        # The last sketch-index build (None before the first scan), and
        # whether a build is under way outside the lock.
        self._index: Optional[_SketchIndex] = None
        self._index_building = False
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

    def _current_index(self) -> Optional["_SketchIndex"]:
        # Caller holds the lock.  The last build if it is on and no
        # compaction moved the rows since.
        index = self._index
        if (
            index is None
            or index.runs is None
            or index.compaction_epoch != self._compaction_epoch
        ):
            return None
        return index

    def refresh_index(self, k: int) -> bool:
        """Rebuild the sketch index if it is due; return whether it is on.

        Due means: never built, a compaction since the last build (row
        positions moved), or an unindexed tail longer than a quarter of
        the indexed rows.  ``k`` is the scan's per-row neighbour count,
        which the build's on/off check certifies against.  Like
        :meth:`maintenance_compact`'s gather, the build reads the arena's
        immutable prefix outside the lock; a build that a compaction
        overtook is dropped.  One build at a time: a caller that finds
        another build under way keeps the current index.
        """
        with self._lock:
            index = self._index
            due = (
                index is None
                or index.compaction_epoch != self._compaction_epoch
                or (self._n - index.rows) * 4 > index.rows
            )
            if not due or self._index_building:
                return self._current_index() is not None
            self._index_building = True
            base = self._compaction_epoch
            words = self._sketches[:, : self._n]
            owners = self._owners[: self._n].copy()
        try:
            built = _build_index(words, owners, self.n_bits, k, base)
        finally:
            with self._lock:
                self._index_building = False
        with self._lock:
            if self._compaction_epoch == base:
                self._index = built
            return self._current_index() is not None

    def index_snapshot(
        self, k: int
    ) -> Tuple[np.ndarray, np.ndarray, Optional["_SketchIndex"], int]:
        """:meth:`snapshot` plus the sketch index that matches it and the
        live row count.

        Refreshes the index first (:meth:`refresh_index`); the index is
        ``None`` when it is off or a compaction left it unbuilt.  Rows
        appended after the build are the views' unindexed tail.
        """
        self.refresh_index(k)
        with self._lock:
            return (
                self._owners[: self._n],
                self._sketch_rows(),
                self._current_index(),
                self._n - self._dead,
            )

    def arena_info(self) -> Dict[str, int]:
        """Structural counters for ``stat`` and the churn bench."""
        with self._lock:
            index = self._current_index()
            return {
                "index_on": int(index is not None),
                "index_rows": index.rows if index is not None else 0,
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
    Every filter path (serial, fused batch, split scan, index, reference)
    selects through this rule, which is what keeps their candidate sets
    identical even when distances tie exactly at the k-NN cutoff; the
    split scan additionally relies on it to merge its two halves' top-k
    lists without re-scanning (``ids`` carries the global row numbers
    there).

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
    # (total,) shared across rows, or (n_rows, total) per-row ids — the
    # split scan's merge passes per-row global row numbers.
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
    """Run the filtering phase as a full scan; returns the candidate set.

    ``query_sketches`` is the packed ``(k, n_words)`` sketch matrix of the
    query's segments (same row order as ``query.features``).

    All ``r`` top query segments are scanned in one batched pass
    (:func:`~repro.core.bitvector.hamming_many_to_many`) and the
    k-NN + threshold + owner-dedup selection runs vectorized across
    segments.  Tombstoned rows (owner -1) are masked to the dtype's
    maximum *before* the k-NN selection so dead segments never occupy
    candidate slots.  Hamming distances stay in the kernel's ``uint32``
    — argpartition's introselect is comparison-driven, so it picks the
    same indices as on a float64 copy while touching half the memory.
    :func:`sketch_filter_reference` is the per-segment implementation
    this must stay candidate-set-identical to.  It never reads the
    sketch index, so it is an oracle for :func:`sketch_filter_many`.
    """
    owners, sketch_matrix = store.snapshot()
    dead = owners < 0
    n_alive = owners.shape[0] - int(dead.sum())
    if n_alive == 0:
        return set()
    top = query.top_segments(params.num_query_segments)
    nearest, near = _scan_nearest(
        query_sketches[top],
        sketch_matrix,
        dead,
        min(params.candidates_per_segment, n_alive),
    )
    return _candidate_owners(
        owners, nearest, near, _segment_thresholds(query, top, params, n_bits)
    )


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
    (the perf smoke and sketch-index tests assert this), and
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


def _stack_query_rows(
    queries: Sequence[ObjectSignature],
    query_sketches_list: Sequence[np.ndarray],
    params: FilterParams,
    n_bits: int,
) -> Tuple[List[np.ndarray], np.ndarray, Optional[np.ndarray]]:
    """Stack a query batch into one scan-ready row matrix.

    Returns ``(tops, stacked, thresholds)``: each query's top-``r``
    segment indices, their sketch rows concatenated into a single
    ``(sum_of_r, n_words)`` matrix, and the per-row distance thresholds
    (``None`` when thresholding is disabled).
    """
    tops = [q.top_segments(params.num_query_segments) for q in queries]
    stacked = np.concatenate(
        [qs[top] for qs, top in zip(query_sketches_list, tops)], axis=0
    )
    if params.threshold_fraction is not None:
        thresholds = np.concatenate(
            [
                _segment_thresholds(q, top, params, n_bits)
                for q, top in zip(queries, tops)
            ]
        )
    else:
        thresholds = None
    return tops, stacked, thresholds


def sketch_filter_many(
    queries: Sequence[ObjectSignature],
    query_sketches_list: Sequence[np.ndarray],
    store: SegmentStore,
    params: FilterParams,
    n_bits: int,
) -> List[Set[int]]:
    """Filtering phase for a whole batch of queries in one fused pass.

    Every query's top-``r`` segment sketches are stacked into a single
    ``(sum_of_r, n_words)`` matrix.  Where the store's sketch index is on,
    the stacked rows go through it (:func:`_index_nearest`) and only the
    rows it cannot certify are scanned in full; elsewhere the segment
    store is streamed through
    :func:`~repro.core.bitvector.hamming_many_to_many` once for the
    entire batch.  The k-NN selection and thresholding run batched over
    all rows.  Returns one candidate set per query, identical to calling
    :func:`sketch_filter` per query on the same store snapshot.
    """
    queries = list(queries)
    if not queries:
        return []
    owners, sketch_matrix, index, n_alive = store.index_snapshot(
        params.candidates_per_segment
    )
    if n_alive == 0:
        return [set() for _ in queries]
    tops, stacked, thresholds = _stack_query_rows(
        queries, query_sketches_list, params, n_bits
    )
    k = min(params.candidates_per_segment, n_alive)
    if index is None:
        nearest, near = _scan_nearest(stacked, sketch_matrix, owners < 0, k)
    else:
        nearest, near, rest, _ = _index_nearest(
            index, sketch_matrix.T, owners, stacked, k
        )
        if rest.size:
            _M_INDEX_FALLBACK_ROWS.inc(int(rest.size))
            nearest[rest], near[rest] = _scan_nearest(
                stacked[rest], sketch_matrix, owners < 0, k
            )
    results: List[Set[int]] = []
    offset = 0
    for top in tops:
        rows = slice(offset, offset + len(top))
        offset += len(top)
        results.append(
            _candidate_owners(
                owners,
                nearest[rows],
                near[rows],
                None if thresholds is None else thresholds[rows],
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


def _dead_sentinel(dtype: np.dtype):
    """Masking value for tombstoned rows: above every real distance."""
    if np.issubdtype(dtype, np.floating):
        return np.inf
    return np.iinfo(dtype).max


def _split_executor() -> ThreadPoolExecutor:
    """The scan split's thread pool, created by the first split."""
    global _SPLIT_EXECUTOR
    with _SPLIT_LOCK:
        if _SPLIT_EXECUTOR is None:
            _SPLIT_EXECUTOR = ThreadPoolExecutor(2, thread_name_prefix="ferret-scan")
        return _SPLIT_EXECUTOR


def _scan_part(
    rows: np.ndarray, sketch_matrix: np.ndarray, dead: np.ndarray, k: int
) -> Tuple[np.ndarray, np.ndarray]:
    # One contiguous run of arena rows: its top-k (or all its rows, if
    # it has fewer) per query row, with run-local row numbers.
    dists = hamming_many_to_many(rows, sketch_matrix)
    if dead.any():
        dists[:, dead] = _dead_sentinel(dists.dtype)
    nearest = select_k_smallest(dists, min(k, dists.shape[1]))
    return nearest, np.take_along_axis(dists, nearest, axis=1)


def _scan_nearest(
    rows: np.ndarray, sketch_matrix: np.ndarray, dead: np.ndarray, k: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Full-scan k-NN: per query row, the selected arena rows and their
    distances.  Tombstoned rows are masked to the distance dtype's
    maximum, which sorts after every real distance and fails every
    threshold, so with ``k`` at most the live row count they are never
    selected.

    From :data:`_SPLIT_MIN_WORK` arena rows x query rows up, on a host
    with two or more CPUs, the arena is cut into two halves: the upper
    one is scanned on a helper thread while the calling thread scans the
    lower one (the kernel's popcount releases the GIL), each keeping its
    own top-k.  The global top-k is in the union of the two (the order
    (distance, row) restricted to a half is that half's order), and the
    merge selects by global row, so ties at the k-th distance still go
    to the smallest row, exactly as one whole scan picks them.
    """
    n = sketch_matrix.shape[0]
    if _SPLIT_CPUS < 2 or n * rows.shape[0] < _SPLIT_MIN_WORK:
        return _scan_part(rows, sketch_matrix, dead, k)
    mid = n // 2
    upper = _split_executor().submit(
        _scan_part, rows, sketch_matrix[mid:], dead[mid:], k
    )
    lo_rows, lo_dists = _scan_part(rows, sketch_matrix[:mid], dead[:mid], k)
    hi_rows, hi_dists = upper.result()
    cand = np.concatenate([lo_rows, hi_rows + mid], axis=1)
    dists = np.concatenate([lo_dists, hi_dists], axis=1)
    sel = select_k_smallest(dists, k, ids=cand)
    return np.take_along_axis(cand, sel, axis=1), np.take_along_axis(dists, sel, axis=1)


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


# ----------------------------------------------------------------------
# Multi-index over sketch substrings
# ----------------------------------------------------------------------
# Pigeonhole (multi-index hashing, Norouzi et al.): cut a sketch into m
# substrings; if two sketches differ in at most d bits, some substring
# differs in at most floor(d / m) bits.  Probing every substring's run
# for the keys within radius r of the query's therefore finds every row
# within m(r + 1) - 1 bits (proof in _index_nearest).
#
# All m runs live in one sorted uint64 array of entries
# ``j << 59 | key << 27 | row``: substring number, its 32-bit key, and
# the arena row.  So one sort per substring builds it, one search per
# radius probes every substring of every query row, and the index
# covers at most 32 substrings and 2**27 - 1 rows.
_SUB_BITS = 32
_MAX_SUBSTRINGS = 32
_KEY_SHIFT = np.uint64(27)
_SUB_SHIFT = np.uint64(59)
_ROW_MASK = np.uint64((1 << 27) - 1)
_ONE_BIT = np.uint64(1) << np.arange(_SUB_BITS, dtype=np.uint64)
# (radius, XOR masks on a substring key): radius <= 1 is the key and its
# 32 one-bit neighbours; radius 2 adds the 496 two-bit neighbours.
_PROBES = (
    (1, np.concatenate([np.zeros(1, dtype=np.uint64), _ONE_BIT])),
    (2, (_ONE_BIT[:, None] | _ONE_BIT[None, :])[np.triu_indices(_SUB_BITS, 1)]),
)


@dataclass(frozen=True)
class _SketchIndex:
    """One build of the multi-index (see :func:`_build_index`).

    ``runs`` holds the ``m`` substring runs of rows ``[0, rows)``, or is
    ``None`` when the build's on/off check turned the index off.  Valid
    while the store's compaction epoch is ``compaction_epoch``; rows
    appended later are its tail.
    """

    compaction_epoch: int
    rows: int
    m: int
    runs: Optional[np.ndarray]


def _substring_keys(rows: np.ndarray, m: int) -> np.ndarray:
    """``(n, m)`` keys of the first ``m`` substrings of ``(n, n_words)``
    sketch rows.  Substring ``j`` is bytes ``[4j, 4j + 4)`` of a row —
    sketch bits ``[32j, 32j + 32)``, as :func:`~repro.core.bitvector.pack_bits`
    lays bytes out in order."""
    return np.ascontiguousarray(rows).view(np.uint32)[:, :m].astype(np.uint64)


def _needles(keys: np.ndarray, flips: np.ndarray, first: int = 0) -> np.ndarray:
    """Sorted probe entries for substrings ``first, first + 1, ...`` of
    the ``(n, c)`` query ``keys``, each XORed with every flip.  Sorted,
    numpy's binary search starts each probe where the last one ended."""
    subs = np.arange(first, first + keys.shape[1], dtype=np.uint64) << _SUB_SHIFT
    probes = ((keys[:, :, None] ^ flips) << _KEY_SHIFT) | subs[None, :, None]
    return np.sort(probes.ravel())


def _probe(runs: np.ndarray, needles: np.ndarray) -> np.ndarray:
    """Arena rows of the run entries matching ``needles`` (repeats
    included).  One key's entries lie between ``needle`` and
    ``needle | _ROW_MASK``, and no row number reaches the mask, so left
    searches find both ends; only needles whose key is present need
    the second."""
    lo = np.searchsorted(runs, needles)
    hit = (runs[np.minimum(lo, runs.size - 1)] >> _KEY_SHIFT) == (
        needles >> _KEY_SHIFT
    )
    if not hit.any():
        return np.empty(0, dtype=np.int32)
    lo = lo[hit]
    counts = np.searchsorted(runs, needles[hit] | _ROW_MASK) - lo
    ends = np.cumsum(counts)
    pos = np.arange(int(ends[-1])) + np.repeat(lo - (ends - counts), counts)
    return (runs[pos] & _ROW_MASK).astype(np.int32)


def _unique_rows(rows: np.ndarray) -> np.ndarray:
    """Sorted distinct rows (faster than ``np.unique``, which is
    hash-based on numpy 2.4, and than a boolean row mask)."""
    rows = np.sort(rows)
    if rows.size < 2:
        return rows
    keep = np.empty(rows.size, dtype=bool)
    keep[0] = True
    np.not_equal(rows[1:], rows[:-1], out=keep[1:])
    return rows[keep]


def _columns(words: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Rows ``cols`` of the word-major arena, as the ``(n, n_words)``
    view of a word-major copy (one ``take`` per word is twice as fast
    as a 2-D fancy index)."""
    out = np.empty((words.shape[0], cols.size), dtype=np.uint64)
    for word, row in zip(words, out):
        np.take(word, cols, out=row)
    return out.T


def _index_nearest(
    index: _SketchIndex,
    words: np.ndarray,
    owners: np.ndarray,
    stacked: np.ndarray,
    k: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Exact top-``k`` arena rows of every query row the index certifies.

    ``words`` is the word-major ``(n_words, n)`` arena and ``owners`` its
    owner column.  At radius ``r`` the gathered rows are every row with
    some substring within ``r`` bits of the query row's, plus the
    unindexed tail, minus tombstones.  A live row left out differs in at
    least ``r + 1`` bits in each of the ``m`` substrings, so it is at
    least ``m(r + 1)`` bits away (bits past the last substring only add
    distance).  So when at least ``k`` gathered rows lie within
    ``m(r + 1) - 1`` bits, every row at or below the k-th distance was
    gathered, and :func:`select_k_smallest` over the gathered columns —
    in row order — picks exactly the full scan's top-``k``, ties
    included.  Rows uncertified at radius 1 go on to radius 2 (the union
    of everything gathered so far plus their two-bit probes).  Each
    radius makes one Hamming kernel call over the union of the gathered
    rows.

    Returns ``(nearest, dists, rest, reads)``: per query row the selected
    arena rows and their distances, the query rows no radius certified
    (their ``nearest``/``dists`` rows are garbage, for the full scan to
    fill), and how many run entries the probes read.
    """
    n_rows = stacked.shape[0]
    m = index.m
    keys = _substring_keys(stacked, m)
    nearest = np.empty((n_rows, k), dtype=np.int64)
    near = np.empty((n_rows, k), dtype=np.uint32)
    tail = np.arange(index.rows, owners.shape[0], dtype=np.int32)
    tail = tail[owners[tail] >= 0]
    gathered = np.empty(0, dtype=np.int32)
    reads = 0
    rest = np.arange(n_rows)
    for radius, flips in _PROBES:
        found = _probe(index.runs, _needles(keys[rest], flips))
        reads += found.size
        gathered = _unique_rows(np.concatenate([gathered, found]))
        cols = np.concatenate([gathered[owners[gathered] >= 0], tail])
        dists = hamming_many_to_many(stacked[rest], _columns(words, cols))
        certified = np.count_nonzero(dists <= m * (radius + 1) - 1, axis=1) >= k
        if certified.any():
            sel = select_k_smallest(dists[certified], k)
            nearest[rest[certified]] = cols[sel]
            near[rest[certified]] = np.take_along_axis(dists[certified], sel, axis=1)
            rest = rest[~certified]
            if not rest.size:
                break
    return nearest, near, rest, reads


def _build_index(
    words: np.ndarray,
    owners: np.ndarray,
    n_bits: int,
    k: int,
    compaction_epoch: int,
) -> _SketchIndex:
    """Build the multi-index over the word-major ``(n_words, n)`` arena.

    Each of the ``m = n_bits // 32`` full substrings (at most 32) gets
    one run, sorted by numpy's default (SIMD) sort — order within a key
    does not matter.  Padding past the last full substring is left out.

    The on/off check queries a fixed sample of live rows through the
    index with ``k`` neighbours, and turns it off when they read more
    than :data:`_INDEX_MAX_READ` of the live arena on average, a query
    row that no radius certifies counting as a whole scan.  The radius-1
    reads are tallied as the runs are built, and the build stops as soon
    as the runs so far, extrapolated to all ``m``, read over budget: on
    the shape corpus that is after the first run.
    """
    n = owners.shape[0]
    m = min(n_bits // _SUB_BITS, _MAX_SUBSTRINGS)
    off = _SketchIndex(compaction_epoch, n, m, None)
    live = np.flatnonzero(owners >= 0)
    if m == 0 or live.size == 0 or n > int(_ROW_MASK):
        return off
    sample = np.unique(live[np.linspace(0, live.size - 1, 8).astype(np.int64)])
    queries = words[:, sample].T
    keys = _substring_keys(queries, m)
    budget = _INDEX_MAX_READ * live.size * sample.size
    row_ids = np.arange(n, dtype=np.uint64)
    reads = 0
    # The first run is sorted on its own, so a store that turns the
    # index off after it never allocates the other m - 1: allocating and
    # freeing all 25 runs left the shape benchmark's peak RSS 19 MB up.
    runs = first = np.empty(n, dtype=np.uint64)
    for j in range(m):
        if j == 1:
            runs = np.empty(m * n, dtype=np.uint64)
            runs[:n] = first
        run = runs[j * n : (j + 1) * n]
        run[:] = words[j // 2].view(np.uint32)[j % 2 :: 2]
        run <<= _KEY_SHIFT
        run |= row_ids
        run |= np.uint64(j) << _SUB_SHIFT
        run.sort()
        reads += _probe(run, _needles(keys[:, j : j + 1], _PROBES[0][1], j)).size
        if reads * m > budget * (j + 1):
            return off
    index = _SketchIndex(compaction_epoch, n, m, runs)
    _, _, rest, reads = _index_nearest(
        index, words, owners, queries, min(k, live.size)
    )
    if reads + rest.size * live.size > budget:
        return off
    return index

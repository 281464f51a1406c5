"""Ranking unit — second phase of the two-step similarity search.

The ranking component "computes the (more accurate) object distance
between the query object and each object in the candidate set, thus
refining the final answers to the query" (section 4.1.1).

Two entry points share one contract:

* :func:`rank_candidates` — the exact serial path: one object-distance
  call per candidate, k-smallest selection.
* :func:`rank_candidates_many` — the batched cascade.  When the object
  distance is the (improved) EMD, it builds all cost matrices from one
  packed computation, orders candidates by cheap provable lower bounds,
  and runs the transportation simplex only for candidates whose bound
  still beats the running k-th distance.  Results are **bit-identical**
  to :func:`rank_candidates` — same distances, same ``(distance,
  object_id)`` ordering, same deterministic ties — because the bounds
  are conservative and the exact solves use the same cost values the
  per-candidate path would compute.  The bound, the visit, the solves
  and the running top k are one call of ``_emd.c``'s ``rank_topk``.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, replace
from typing import Callable, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from .distance import FirstSegmentL1, l1_to_many
from . import transport
from .emd import EMDDistance, packed_costs
from .transport import solve_transport
from .types import ObjectSignature

__all__ = [
    "SearchResult",
    "RankParams",
    "RankStats",
    "rank_candidates",
    "rank_candidates_many",
]


@dataclass(frozen=True, order=True)
class SearchResult:
    """One ranked answer: object id and its distance to the query.

    Ordering compares ``(distance, object_id)`` so sorted result lists
    are deterministic under distance ties.
    """

    distance: float
    object_id: int


@dataclass(frozen=True)
class RankParams:
    """Tuning knobs of the batched ranking cascade (the server's
    ``setparam rank_*`` switches; see :meth:`with_updates`).

    Parameters
    ----------
    cascade:
        Master switch.  Off means every candidate gets an exact
        object-distance call (the historical behaviour).
    rowcol_bound:
        Use the row/column lower bound on the thresholded costs: query
        rows at their cheapest cells, and each candidate column filled
        from its cheapest query rows with no row carrying more than its
        supply (valid for every EMD configuration; computed from the
        already-built cost matrix).
    """

    cascade: bool = True
    rowcol_bound: bool = True

    def __post_init__(self) -> None:
        for name in ("cascade", "rowcol_bound"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"RankParams.{name} must be a bool")

    def with_updates(self, **changes: bool) -> "RankParams":
        return replace(self, **changes)


@dataclass
class RankStats:
    """What one ranking pass did — feeds metrics and trace spans.

    ``considered`` counts candidates that survived self-exclusion and
    concurrent-removal checks; ``exact_evals + lower_bound_prunes ==
    considered`` always holds.  ``bound_seconds`` / ``solve_seconds``
    split the cascade's time: the packed cost matrices and the bounds
    (with the candidates' mass checks and the visit order), then the
    visit with its exact transportation solves and running top k.  The
    bounds and the visit are the nanoseconds ``rank_topk`` measures
    itself, and ``bound_seconds`` also holds the packing of its
    arguments; the two stay within the phase's wall
    time, which also holds the candidates' lookup and the results.
    """

    considered: int = 0
    exact_evals: int = 0
    lower_bound_prunes: int = 0
    bound_seconds: float = 0.0
    solve_seconds: float = 0.0

    def merge(self, other: "RankStats") -> None:
        self.considered += other.considered
        self.exact_evals += other.exact_evals
        self.lower_bound_prunes += other.lower_bound_prunes
        self.bound_seconds += other.bound_seconds
        self.solve_seconds += other.solve_seconds

    @property
    def prune_rate(self) -> float:
        if self.considered <= 0:
            return 0.0
        return self.lower_bound_prunes / self.considered


def rank_candidates(
    query: ObjectSignature,
    candidate_ids: Iterable[int],
    objects: Mapping[int, ObjectSignature],
    obj_distance: Callable[[ObjectSignature, ObjectSignature], float],
    top_k: Optional[int] = None,
    exclude_self: bool = False,
) -> List[SearchResult]:
    """Rank candidates by the object distance function, nearest first.

    ``objects`` maps object id to signature (the metadata store view).
    ``exclude_self`` drops a candidate whose id equals ``query.object_id``
    — the usual convention when benchmarking with a query drawn from the
    dataset itself.  Candidates that vanished from ``objects`` between
    filtering and ranking (a concurrent removal) are silently skipped.
    """
    results: List[SearchResult] = []
    for object_id in candidate_ids:
        if exclude_self and object_id == query.object_id:
            continue
        try:
            candidate = objects[object_id]
        except KeyError:
            continue
        results.append(
            SearchResult(float(obj_distance(query, candidate)), int(object_id))
        )
    if top_k is not None:
        # heapq.nsmallest == sorted(results)[:k] (documented equivalence),
        # so ties stay deterministic via SearchResult's (distance, id)
        # ordering — but the serial path stops paying O(n log n) for k≪n.
        return heapq.nsmallest(max(0, top_k), results)
    results.sort()
    return results


def _resolve_candidates(
    query: ObjectSignature,
    candidate_ids: Iterable[int],
    objects: Mapping[int, ObjectSignature],
    exclude_self: bool,
) -> Tuple[List[int], List[ObjectSignature]]:
    ids: List[int] = []
    sigs: List[ObjectSignature] = []
    for object_id in candidate_ids:
        if exclude_self and object_id == query.object_id:
            continue
        try:
            candidate = objects[object_id]
        except KeyError:
            continue
        ids.append(int(object_id))
        sigs.append(candidate)
    return ids, sigs


def _rank_first_segment_l1(
    query: ObjectSignature,
    ids: List[int],
    sigs: List[ObjectSignature],
    top_k: Optional[int],
) -> List[SearchResult]:
    if not ids or (top_k is not None and top_k <= 0):
        return []
    dists = l1_to_many(
        query.features[0], np.concatenate([c.features[:1] for c in sigs])
    )
    order = np.lexsort((ids, dists))[:top_k]
    return [SearchResult(float(dists[i]), ids[i]) for i in order.tolist()]


def rank_candidates_many(
    query: ObjectSignature,
    candidate_ids: Iterable[int],
    objects: Mapping[int, ObjectSignature],
    obj_distance: Callable[[ObjectSignature, ObjectSignature], float],
    top_k: Optional[int] = None,
    exclude_self: bool = False,
    params: Optional[RankParams] = None,
) -> Tuple[List[SearchResult], RankStats]:
    """Batched ranking cascade; results identical to :func:`rank_candidates`.

    When ``obj_distance`` is an :class:`~repro.core.emd.EMDDistance`, the
    cascade (a) builds all thresholded cost matrices from one packed
    ground-distance computation, (b) computes provable lower bounds per
    candidate, (c) visits candidates in ascending ``(bound, object_id)``
    order keeping a running top-k, and (d) calls the transportation
    simplex only while a candidate's bound can still beat the current
    k-th distance — pruning on a *strict* comparison so distance ties
    resolve exactly as the serial path resolves them.

    When it is a :class:`~repro.core.distance.FirstSegmentL1`, every
    candidate's distance comes from one stacked
    :func:`~repro.core.distance.l1_to_many` and one ``(distance,
    object_id)`` sort, the same floats and order as one call per pair.

    Falls back to :func:`rank_candidates` (stats still populated) when
    the cascade is disabled, the distance is neither, or ``top_k`` does
    not actually cut the candidate list.
    """
    params = params or RankParams()
    ids, sigs = _resolve_candidates(query, candidate_ids, objects, exclude_self)
    stats = RankStats(considered=len(ids))

    if isinstance(obj_distance, FirstSegmentL1):
        started = time.perf_counter()
        results = _rank_first_segment_l1(query, ids, sigs, top_k)
        stats.exact_evals = len(ids)
        stats.solve_seconds = time.perf_counter() - started
        return results, stats

    use_cascade = (
        params.cascade
        and isinstance(obj_distance, EMDDistance)
        and top_k is not None
        and 0 < top_k < len(ids)
    )
    if not use_cascade:
        started = time.perf_counter()
        results = rank_candidates(
            query, ids, dict(zip(ids, sigs)), obj_distance, top_k=top_k
        )
        stats.exact_evals = len(ids)
        stats.solve_seconds = time.perf_counter() - started
        return results, stats

    emd_params = obj_distance.params
    bound_started = time.perf_counter()
    costs, offsets = packed_costs(query, sigs, emd_params)
    supply = emd_params.effective_weights(query.weights)
    if emd_params.weight_transform is None:  # already float64 arrays
        demands = [c.weights for c in sigs]
    else:
        demands = [emd_params.effective_weights(c.weights) for c in sigs]

    stats.bound_seconds = time.perf_counter() - bound_started
    results = _rank_topk(
        costs, offsets, supply, demands, ids, top_k, params.rowcol_bound, stats
    )[0]
    stats.lower_bound_prunes = stats.considered - stats.exact_evals
    return results, stats


def _rank_topk(
    costs: np.ndarray,
    offsets: np.ndarray,
    supply: np.ndarray,
    demands: List[np.ndarray],
    ids: List[int],
    top_k: int,
    rowcol_bound: bool,
    stats: RankStats,
) -> Tuple[List[SearchResult], np.ndarray]:
    """The cascade of :func:`rank_candidates_many` in one call of
    ``_emd.c``'s ``rank_topk``: ``(results, bounds)``.  Adds the
    argument packing and the kernel's own bound time to
    ``stats.bound_seconds`` and its visit time to ``solve_seconds``, and
    sets ``exact_evals``.  ``bounds`` holds every candidate's row/column
    lower bound (all zero when ``rowcol_bound`` is off).

    A candidate that fails one of :func:`solve_transport`'s checks, or
    whose simplex fails, is handed to :func:`solve_transport`, which
    raises that candidate's error.  Every candidate is checked, not only
    the visited ones, as :func:`rank_candidates` checks them.
    """
    def refuse(pos: int, failure: str) -> None:
        solve_transport(
            supply, demands[pos], costs[:, offsets[pos]:offsets[pos + 1]]
        )
        raise RuntimeError(
            f"{failure} on candidate {ids[pos]}, which solve_transport accepts"
        )

    packing = time.perf_counter()
    m = costs.shape[0]
    demand = np.concatenate(demands)
    if len(supply) != m or len(demand) != offsets[-1]:
        # A weight transform that changed a length: the solver's shape
        # check raises it before the kernel reads past a mass.
        lengths = np.fromiter(map(len, demands), np.intp, len(demands))
        refuse(int(np.argmax(lengths != np.diff(offsets))), "shape check")
    costs = np.ascontiguousarray(costs, dtype=np.float64)
    supply = np.ascontiguousarray(supply, dtype=np.float64)
    demand = np.ascontiguousarray(demand, dtype=np.float64)
    offsets = np.ascontiguousarray(offsets, dtype=np.intp)
    id_array = np.array(ids, dtype=np.int64)
    bounds = np.empty(len(ids))
    top_dist = np.empty(top_k)
    top_ids = np.empty(top_k, dtype=np.int64)
    info = np.zeros(3, dtype=np.int64)
    stats.bound_seconds += time.perf_counter() - packing
    evals = transport._KERNEL.rank_topk(
        m, len(ids), costs.ctypes.data, offsets.ctypes.data,
        supply.ctypes.data, demand.ctypes.data, id_array.ctypes.data, top_k,
        rowcol_bound, transport._TOLERANCE, transport._MAX_PIVOTS_FACTOR,
        bounds.ctypes.data, top_dist.ctypes.data, top_ids.ctypes.data,
        info.ctypes.data,
    )
    if evals == transport._NO_MEMORY:
        raise MemoryError(f"no memory to rank {len(ids)} candidates")
    if evals < 0:
        refuse(int(info[0]), f"rank_topk failure {evals}")
    stats.exact_evals = evals
    stats.bound_seconds += int(info[1]) * 1e-9
    stats.solve_seconds += int(info[2]) * 1e-9
    kept = min(top_k, evals)
    return [
        SearchResult(d, i)
        for d, i in zip(top_dist[:kept].tolist(), top_ids[:kept].tolist())
    ], bounds

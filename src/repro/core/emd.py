"""Earth Mover's Distance — the toolkit's default object distance function.

Section 4.2.2: given objects ``X`` (m segments) and ``Y`` (n segments)
with normalized weights, ``EMD(X, Y) = min sum f_ij d(X_i, Y_j)`` subject
to the transportation constraints.  Because weights are normalized to sum
to one, the problem is balanced and the EMD equals the total flow cost.

The paper's image system uses an *improved* EMD from Lv/Charikar/Li
(CIKM'04): segment distances are thresholded before the EMD computation
(limiting the influence of outlier segments), and segment weights may be
transformed by a square-root function before normalization.  Both appear
here as :class:`EMDParams` knobs so downstream users can ablate them.

Beyond the pairwise :func:`emd`, this module carries the batched ranking
machinery: :func:`packed_costs` evaluates one query against many
candidates in a single packed cost computation, and
:func:`emd_lower_bounds_rowcol` gives a cheap provable lower bound on
the (improved) EMD, for all candidates in one pass, that the ranking
cascade uses to skip most transportation solves entirely (see
docs/PERFORMANCE.md, "Ranking cascade").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from . import transport
from .transport import solve_transport
from .types import ObjectSignature, normalize_weights

__all__ = [
    "EMDParams",
    "NonFiniteDistanceError",
    "emd",
    "emd_to_many",
    "emd_lower_bound_rowcol",
    "emd_lower_bounds_rowcol",
    "packed_costs",
    "pairwise_segment_distances",
    "EMDDistance",
]

GroundDistanceMatrix = Callable[[np.ndarray, np.ndarray], np.ndarray]

# Cap on the (m, block, D) broadcast temporary of the vectorized l1
# kernel; blocks of database rows keep it cache-friendly at packed
# many-candidate shapes without changing any per-cell value.
_L1_BLOCK_BYTES = 8 << 20

# Relative safety margin folded into the lower bounds.  The bounds are
# exact mathematics over exact reals; in float64 the bound and the
# simplex accumulate rounding independently, so a freshly computed bound
# could exceed the true EMD by a few ulps in degenerate cases (e.g. a
# single-segment pair, where bound and distance are the same sum taken
# in two different orders).  Shaving 1e-9 relative (plus an absolute
# epsilon for exact zeros) keeps the bounds provably conservative at
# float precision while costing essentially no pruning power.
_BOUND_SAFETY_REL = 1e-9
_BOUND_SAFETY_ABS = 1e-12


class NonFiniteDistanceError(ValueError):
    """Segment ground distances evaluated to NaN or infinity.

    Raised by :func:`pairwise_segment_distances` (and everything built on
    it) instead of letting the transportation simplex pivot on garbage
    costs.  ``object_id`` carries the offending candidate's id when the
    caller knew it — the engine surfaces it so a poisoned insert can be
    found and removed.
    """

    def __init__(self, message: str, object_id: Optional[int] = None) -> None:
        super().__init__(message)
        self.object_id = object_id


def _require_finite_costs(
    costs: np.ndarray, object_id: Optional[int] = None
) -> None:
    """Reject NaN/inf ground distances before they reach the simplex."""
    if np.isfinite(costs).all():
        return
    bad = int((~np.isfinite(costs)).sum())
    who = f" (candidate object {object_id})" if object_id is not None else ""
    raise NonFiniteDistanceError(
        f"{bad} of {costs.size} segment ground distances are NaN/inf{who}; "
        "feature vectors must be finite",
        object_id=object_id,
    )


def _l1_cost_matrix(
    a: np.ndarray, b: np.ndarray, weights: Optional[np.ndarray] = None
) -> np.ndarray:
    """``(m, n)`` (weighted) l1 distances via one broadcast kernel,
    blocked over ``b``.

    Each cell is its own reduction over the feature axis — multiply by
    the per-dimension ``weights``, then sum — so a cell's value does not
    depend on which other rows share the call: packing many candidates
    into ``b`` gives bit-for-bit the matrices a per-candidate call gives.
    (A BLAS ``diff.dot(weights)`` does not have that property.)

    Each cell is summed in numpy's pairwise order over the feature axis
    whatever the layout of ``a`` and ``b``: the numpy path reads C-ordered
    copies of foreign layouts, since numpy sums a broadcast whose feature
    axis is not innermost one term after another.  Where ``_emd.c`` is
    loaded (:func:`repro.core.transport.rank_kernel`) its ``l1_costs``
    forms each cell with the same operations in the same order, reading
    ``a`` and ``b`` in place; shapes that only broadcast (a feature or
    weight axis of length 1) stay on numpy.
    """
    m, d = a.shape
    n = b.shape[0]
    kernel = transport._KERNEL
    if (
        kernel is not None
        and b.shape[1] == d
        and (weights is None or weights.shape == (d,))
    ):
        a, b = transport._elements(a), transport._elements(b)
        if weights is not None:
            weights = transport._elements(weights)
        out = np.empty((m, n), dtype=np.float64)
        kernel.l1_costs(
            a.ctypes.data, a.strides[0] // 8, a.strides[1] // 8, m,
            b.ctypes.data, b.strides[0] // 8, b.strides[1] // 8, n, d,
            None if weights is None else weights.ctypes.data,
            0 if weights is None else weights.strides[0] // 8,
            out.ctypes.data,
        )
        return out
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    block = max(1, _L1_BLOCK_BYTES // max(1, m * d * 8))
    out = np.empty((m, n), dtype=np.float64)
    for start in range(0, n, block):
        diff = a[:, None, :] - b[None, start:start + block, :]
        np.abs(diff, out=diff)
        if weights is not None:
            diff *= weights
        out[:, start:start + block] = diff.sum(axis=2)
    return out


def pairwise_segment_distances(
    features_a: np.ndarray,
    features_b: np.ndarray,
    ground: Optional[GroundDistanceMatrix] = None,
    object_id: Optional[int] = None,
    dim_weights: Optional[np.ndarray] = None,
) -> np.ndarray:
    """``(m, n)`` matrix of ground distances between two segment sets.

    ``ground`` maps ``(query_matrix, db_matrix) -> distance matrix``; the
    default is l1 — weighted per dimension by ``dim_weights`` when given
    — matching the paper's image and audio systems, computed by one
    vectorized broadcast kernel.  Non-finite distances (NaN/inf
    feature rows, or a ground function returning them) raise
    :class:`NonFiniteDistanceError` — the transportation simplex must
    never pivot on garbage costs.  ``object_id`` tags the error with the
    candidate the ``features_b`` rows belong to.
    """
    a = np.atleast_2d(np.asarray(features_a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(features_b, dtype=np.float64))
    if ground is not None:
        out = np.asarray(ground(a, b), dtype=np.float64)
        if out.shape != (a.shape[0], b.shape[0]):
            raise ValueError(
                f"ground distance returned {out.shape}, expected "
                f"{(a.shape[0], b.shape[0])}"
            )
        _require_finite_costs(out, object_id)
        return out
    out = _l1_cost_matrix(a, b, dim_weights)
    _require_finite_costs(out, object_id)
    return out


@dataclass(frozen=True)
class EMDParams:
    """Configuration of the (improved) EMD object distance.

    Parameters
    ----------
    threshold:
        If set, segment distances are clipped at this value before the
        flow computation ("thresholded EMD", section 5.1).  ``None``
        disables thresholding (plain EMD).
    weight_transform:
        Optional transform applied to raw segment weights before
        re-normalization; the CIKM'04 improvement uses ``sqrt``.
    ground:
        Ground (segment) distance as a matrix function; default l1.
    dim_weights:
        Non-negative per-dimension weights of the built-in l1 ground
        (``sum_d w_d |x_d - y_d|``).  Unlike a ``ground`` callable this
        keeps the packed kernel available, so it is the way to express a
        weighted-l1 segment distance.
    """

    threshold: Optional[float] = None
    weight_transform: Optional[Callable[[np.ndarray], np.ndarray]] = None
    ground: Optional[GroundDistanceMatrix] = None
    dim_weights: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.dim_weights is None:
            return
        if self.ground is not None:
            raise ValueError(
                "dim_weights weight the built-in l1 ground; "
                "they cannot be combined with a custom ground"
            )
        w = np.array(self.dim_weights, dtype=np.float64)
        if w.ndim != 1 or not np.isfinite(w).all() or np.any(w < 0):
            raise ValueError(
                "dim_weights must be a 1-D array of finite non-negative weights"
            )
        w.setflags(write=False)
        object.__setattr__(self, "dim_weights", w)

    def effective_weights(self, weights: np.ndarray) -> np.ndarray:
        if self.weight_transform is None:
            return np.asarray(weights, dtype=np.float64)
        return normalize_weights(self.weight_transform(np.asarray(weights)))

    def apply_threshold(self, costs: np.ndarray) -> np.ndarray:
        """Clip a cost matrix at the threshold (validating it), or pass
        it through unchanged when thresholding is disabled."""
        if self.threshold is None:
            return costs
        if self.threshold <= 0:
            raise ValueError("EMD threshold must be positive")
        return np.minimum(costs, self.threshold)

    def segment_costs(
        self,
        features_a: np.ndarray,
        features_b: np.ndarray,
        object_id: Optional[int] = None,
    ) -> np.ndarray:
        """The thresholded ``(m, n)`` cost matrix the EMD is solved over."""
        return self.apply_threshold(
            pairwise_segment_distances(
                features_a, features_b, self.ground,
                object_id=object_id, dim_weights=self.dim_weights,
            )
        )


def emd(
    obj_a: ObjectSignature,
    obj_b: ObjectSignature,
    params: Optional[EMDParams] = None,
) -> float:
    """Earth Mover's Distance between two objects.

    Returns 0.0 when either object carries no mass.  The result is exact
    (transportation simplex), not an approximation.
    """
    params = params or EMDParams()
    costs = params.segment_costs(
        obj_a.features, obj_b.features, object_id=obj_b.object_id
    )
    supply = params.effective_weights(obj_a.weights)
    demand = params.effective_weights(obj_b.weights)
    result = solve_transport(supply, demand, costs)
    return result.cost


def packed_costs(
    query: ObjectSignature,
    candidates: Sequence[ObjectSignature],
    params: EMDParams,
) -> Tuple[np.ndarray, np.ndarray]:
    """Thresholded costs of one query against many candidates, packed.

    Returns the ``(m, sum n_i)`` cost array and the ``(len + 1,)`` column
    offsets: candidate ``i`` owns columns ``offsets[i]:offsets[i + 1]``,
    bit-identical to the matrix :func:`emd` builds for that pair.
    ``candidates`` must not be empty.

    For the built-in (weighted) l1 ground, every candidate's segments go
    through one broadcast kernel.  A custom ``ground`` is called once per
    candidate with exactly the candidate's own feature matrix — an
    arbitrary callable is only guaranteed bit-stable on the inputs the
    exact path gives it.
    """
    offsets = np.zeros(len(candidates) + 1, dtype=np.intp)
    np.cumsum([c.num_segments for c in candidates], out=offsets[1:])
    if params.ground is not None:
        costs = np.concatenate(
            [
                params.segment_costs(query.features, c.features, c.object_id)
                for c in candidates
            ],
            axis=1,
        )
        return costs, offsets
    q = np.atleast_2d(np.asarray(query.features, dtype=np.float64))
    packed = np.concatenate([c.features for c in candidates], axis=0)
    costs = _l1_cost_matrix(q, packed, params.dim_weights)
    finite_cols = np.isfinite(costs).all(axis=0)
    if not finite_cols.all():
        # Name the first poisoned candidate, as the per-pair path would.
        pos = int(np.searchsorted(offsets, finite_cols.argmin(), side="right")) - 1
        _require_finite_costs(
            costs[:, offsets[pos]:offsets[pos + 1]], candidates[pos].object_id
        )
    return params.apply_threshold(costs), offsets


def packed_cost_matrices(
    query: ObjectSignature,
    candidates: Sequence[ObjectSignature],
    params: Optional[EMDParams] = None,
) -> List[np.ndarray]:
    """Thresholded ``(m, n_i)`` cost matrices for one query against many
    candidates — :func:`packed_costs` split per candidate (views)."""
    if not candidates:
        return []
    costs, offsets = packed_costs(query, candidates, params or EMDParams())
    return [
        costs[:, offsets[i]:offsets[i + 1]] for i in range(len(candidates))
    ]


def emd_to_many(
    query: ObjectSignature,
    candidates: Sequence[ObjectSignature],
    params: Optional[EMDParams] = None,
) -> np.ndarray:
    """Exact EMD from ``query`` to every candidate, batched.

    Equivalent to ``[emd(query, c, params) for c in candidates]`` —
    same costs, same solver, bit-identical distances — but all ground
    distances come from one packed computation per batch
    (:func:`packed_costs`) instead of one small kernel dispatch per
    candidate.
    """
    params = params or EMDParams()
    matrices = packed_cost_matrices(query, candidates, params)
    supply = params.effective_weights(query.weights)
    return np.array(
        [
            solve_transport(
                supply, params.effective_weights(cand.weights), costs
            ).cost
            for cand, costs in zip(candidates, matrices)
        ],
        dtype=np.float64,
    )


def _shave(bounds: np.ndarray) -> np.ndarray:
    """Apply the float-safety margin; bounds never go negative."""
    return np.maximum(
        0.0, bounds * (1.0 - _BOUND_SAFETY_REL) - _BOUND_SAFETY_ABS
    )


def _balanced_demands(
    supply: np.ndarray,
    demands: Sequence[np.ndarray],
    starts: np.ndarray,
    widths: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Concatenated candidate masses rescaled to the query's total — the
    balancing :func:`solve_transport` applies — plus the mask of
    candidates that carry mass at all (the others get the zero bound)."""
    demand = np.concatenate(demands)
    totals = np.add.reduceat(demand, starts)
    has_mass = totals > 0.0
    scale = float(supply.sum()) / np.where(has_mass, totals, 1.0)
    return demand * np.repeat(scale, widths), has_mass


def emd_lower_bounds_rowcol(
    costs: np.ndarray,
    offsets: np.ndarray,
    supply: np.ndarray,
    demands: Sequence[np.ndarray],
) -> np.ndarray:
    """Row/column lower bounds for every candidate of a packed cost
    array (:func:`packed_costs`), in one pass.

    Row side: every feasible flow ships ``supply_i`` out of row ``i`` at
    per-unit cost at least ``min_j costs[i, j]``.  Column side, the
    independent-minimisation bound of Assent et al. (ICDE 2008): drop
    the row sums except that no row carries more than its supply, and
    each column's cheapest way to receive its demand is to fill it from
    its cheapest rows first.  Both are relaxations of the transportation
    problem, so the larger lower-bounds the optimal cost of *that*
    matrix; the column side is never below ``demand @ col_mins``.
    Because it is computed on the final (thresholded) costs, it is valid
    for every :class:`EMDParams` configuration, including custom
    grounds.
    """
    bounds = np.zeros(len(demands), dtype=np.float64)
    # reduceat needs non-empty segments; a candidate without segments
    # owns no columns, so dropping its start leaves the others' intact.
    live = np.flatnonzero(offsets[1:] > offsets[:-1])
    if float(supply.sum()) <= 0.0 or live.size == 0:
        return bounds
    starts = offsets[:-1][live]
    demand, has_mass = _balanced_demands(
        supply, [demands[i] for i in live], starts, np.diff(offsets)[live]
    )
    row_bounds = supply @ np.minimum.reduceat(costs, starts, axis=1)
    # A column whose cheapest row can carry its whole demand costs
    # d * colmin.  Only the others are sorted, to take their rows
    # cheapest first: what each can carry, and what the column still
    # lacks when it reaches that row.
    cheapest = costs.argmin(axis=0)
    col_costs = demand * costs.min(axis=0)
    short = np.flatnonzero(demand > supply[cheapest])
    short_costs = costs[:, short]
    by_cost = short_costs.argsort(axis=0)
    room = supply[by_cost]
    owed = demand[short] - (np.cumsum(room, axis=0) - room)
    col_costs[short] = (
        np.clip(owed, 0.0, room)
        * np.take_along_axis(short_costs, by_cost, axis=0)
    ).sum(axis=0)
    col_bounds = np.add.reduceat(col_costs, starts)
    bounds[live] = np.where(
        has_mass, _shave(np.maximum(row_bounds, col_bounds)), 0.0
    )
    return bounds


def emd_lower_bound_rowcol(
    query: ObjectSignature,
    candidate: ObjectSignature,
    params: Optional[EMDParams] = None,
    costs: Optional[np.ndarray] = None,
) -> float:
    """:func:`emd_lower_bounds_rowcol` for a single candidate.

    ``costs`` may carry a precomputed thresholded cost matrix; otherwise
    the matrix is computed here exactly as :func:`emd` would.
    """
    params = params or EMDParams()
    if costs is None:
        costs = params.segment_costs(
            query.features, candidate.features, object_id=candidate.object_id
        )
    return float(
        emd_lower_bounds_rowcol(
            costs,
            np.array([0, costs.shape[1]]),
            params.effective_weights(query.weights),
            [params.effective_weights(candidate.weights)],
        )[0]
    )


class EMDDistance:
    """Callable object distance ``(ObjectSignature, ObjectSignature) -> float``.

    This is the shape the ranking unit expects for ``obj_distance`` and
    the default the engine installs when the plug-in supplies none.  The
    batched ranking cascade recognizes this type and replaces the
    per-candidate calls with one packed cost computation
    (:func:`packed_costs`) plus lower-bound pruning, producing identical
    results.
    """

    def __init__(self, params: Optional[EMDParams] = None) -> None:
        self.params = params or EMDParams()

    def __call__(self, obj_a: ObjectSignature, obj_b: ObjectSignature) -> float:
        return emd(obj_a, obj_b, self.params)

    def __repr__(self) -> str:
        return (
            f"EMDDistance(threshold={self.params.threshold}, "
            f"sqrt_weights={self.params.weight_transform is not None})"
        )

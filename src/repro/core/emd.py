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

Beyond the pairwise :func:`emd`, :func:`packed_costs` evaluates one
query against many candidates in a single packed cost computation, which
the ranking cascade (:mod:`repro.core.ranking`) bounds and solves in one
call of ``_emd.c``'s ``rank_topk`` (see docs/PERFORMANCE.md, "Ranking
cascade").
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
    "packed_costs",
    "pairwise_segment_distances",
    "EMDDistance",
]

GroundDistanceMatrix = Callable[[np.ndarray, np.ndarray], np.ndarray]

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
    """``(m, n)`` (weighted) l1 distances in one call of ``_emd.c``'s
    ``l1_costs``.

    Each cell is its own reduction over the feature axis — multiply by
    the per-dimension ``weights``, then sum in numpy's pairwise order —
    so a cell's value does not depend on which other rows share the
    call: packing many candidates into ``b`` gives bit-for-bit the
    matrices a per-candidate call gives.  (A BLAS ``diff.dot(weights)``
    does not have that property.)  ``a``, ``b`` and ``weights`` are read
    in place through their strides; a feature or weight axis of length 1
    broadcasts against the others as a stride-0 view.
    """
    (m, d), n = a.shape, b.shape[0]
    a, b = transport._elements(a), transport._elements(b)
    if weights is not None:
        weights = transport._elements(weights)
    # Only a length-1 axis needs numpy's broadcast helpers, which cost
    # more than a small block's kernel call.
    if b.shape[1] != d or (weights is not None and weights.shape != (d,)):
        shapes = [a.shape[1:], b.shape[1:]]
        if weights is not None:
            shapes.append(weights.shape)
        (d,) = np.broadcast_shapes(*shapes)
        a, b = np.broadcast_to(a, (m, d)), np.broadcast_to(b, (n, d))
        if weights is not None:
            weights = np.broadcast_to(weights, (d,))
    out = np.empty((m, n), dtype=np.float64)
    transport._KERNEL.l1_costs(
        a.ctypes.data, a.strides[0] // 8, a.strides[1] // 8, m,
        b.ctypes.data, b.strides[0] // 8, b.strides[1] // 8, n, d,
        None if weights is None else weights.ctypes.data,
        0 if weights is None else weights.strides[0] // 8,
        out.ctypes.data,
    )
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
    compiled kernel call.  Non-finite distances (NaN/inf
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
    through one kernel call.  A custom ``ground`` is called once per
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

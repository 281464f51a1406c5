"""Transportation-problem solver used by the Earth Mover's Distance.

EMD between two weighted sets of feature vectors (section 4.2.2) is the
classical balanced transportation problem: move supply ``w(X_i)`` to
demand ``w(Y_j)`` at unit cost ``d(X_i, Y_j)`` minimizing total work.

Objects in Ferret have few segments (1-11 in the paper's datasets), so a
dense transportation simplex is the right tool: Vogel's approximation
builds a good initial basic feasible solution, and the MODI (u-v) method
pivots to optimality.  Degeneracy is handled by keeping exactly
``m + n - 1`` basic cells (zero-flow cells stay basic).

The simplex is C (``_emd.c``'s ``transport_solve``, compiled and loaded
at import by :mod:`repro.core.native`); at ~11 x 11 a solve is per-call
overhead, and almost every one ends at Vogel's start.  The checks, the
demand rescale and the objective ``(flow * costs).sum()`` stay in numpy.
``tests/core/test_transport.py`` keeps an all-numpy solver as the
reference whose flow bits, basis, pivots and cost it must reproduce.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import native

__all__ = [
    "TransportResult",
    "TransportPivotLimitError",
    "solve_transport",
]

_MAX_PIVOTS_FACTOR = 50  # pivot cap: factor * (m + n), guards non-termination
_TOLERANCE = 1e-12  # least optimality gap of an entering cell


class TransportPivotLimitError(RuntimeError):
    """The simplex hit its pivot cap with an improving cell still open.

    The flow at that point is feasible but not proven optimal, so its
    cost must not be handed out as an exact distance.
    """

    def __init__(self, m: int, n: int, pivots: int) -> None:
        super().__init__(
            f"transportation simplex not optimal after {pivots} pivots "
            f"on a {m}x{n} problem"
        )
        self.m = m
        self.n = n
        self.pivots = pivots


@dataclass(frozen=True)
class TransportResult:
    """Optimal flow and cost of a balanced transportation problem."""

    flow: np.ndarray  # (m, n) non-negative flow matrix
    cost: float  # sum(flow * costs)
    iterations: int  # MODI pivots performed


def solve_transport(
    supply: np.ndarray,
    demand: np.ndarray,
    costs: np.ndarray,
    tolerance: float = _TOLERANCE,
) -> TransportResult:
    """Solve ``min sum f_ij c_ij`` s.t. row sums = supply, col sums = demand.

    ``supply`` and ``demand`` must be non-negative and have equal totals
    (within a small relative tolerance; they are rescaled to match
    exactly).  Zero-weight rows/columns are allowed and receive no flow.
    NaN or infinite masses or costs raise ``ValueError``.  Raises
    :class:`TransportPivotLimitError` rather than return a flow that the
    pivot cap stopped short of optimality.
    """
    supply = np.asarray(supply, dtype=np.float64)
    demand = np.asarray(demand, dtype=np.float64)
    costs = np.asarray(costs, dtype=np.float64)
    m, n = supply.shape[0], demand.shape[0]
    if costs.shape != (m, n):
        raise ValueError(f"costs must be ({m}, {n}), got {costs.shape}")
    if not np.isfinite(costs).all():
        raise ValueError("costs must be finite")
    # One buffer: copies of the masses, then the flow the simplex fills
    # in place.
    work = np.zeros(m + n + m * n)
    masses = work[: m + n]
    masses[:m] = supply
    masses[m:] = demand
    supply, demand = masses[:m], masses[m:]
    if (masses < 0).any():
        raise ValueError("supply and demand must be non-negative")
    total_s, total_d = float(supply.sum()), float(demand.sum())
    if not (math.isfinite(total_s) and math.isfinite(total_d)):
        raise ValueError("supply and demand must be finite")
    if total_s <= 0.0 or total_d <= 0.0:
        return TransportResult(np.zeros((m, n)), 0.0, 0)
    if abs(total_s - total_d) > 1e-6 * max(total_s, total_d):
        raise ValueError(
            f"unbalanced problem: supply={total_s} demand={total_d}"
        )
    demand *= total_s / total_d  # exact balance for the simplex

    flow, iterations = _simplex(work, costs, tolerance)
    return TransportResult(flow, float((flow * costs).sum()), iterations)


# ----------------------------------------------------------------------
# Compiled kernels: built at import, cached per user
# ----------------------------------------------------------------------
_P, _N, _D, _I = ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_double, ctypes.c_int
_SIGNATURES = {  # symbol: (restype, argtypes)
    "l1_costs": (None, (_P, _N, _N, _N, _P, _N, _N, _N, _N, _P, _N, _P)),
    "transport_solve": (_N, (_N, _N, _P, _P, _N, _N, _D, _N, _P)),
    "rank_topk": (
        _N, (_N, _N, _P, _P, _P, _P, _P, _N, _I, _D, _N, _P, _P, _P, _P)
    ),
}
# transport_solve's failures; it returns the pivot count otherwise.
# rank_topk returns its evaluations, one of these, or -4 where a
# candidate fails solve_transport's checks.
_PIVOT_LIMIT, _NOT_SPANNING, _NO_MEMORY = -1, -2, -3


class _Kernel(NamedTuple):
    """The entry points of one loaded ``_emd.c``."""

    l1_costs: Callable
    solve: Callable
    rank_topk: Callable


def _load_kernel(
    compiler: Optional[Sequence[str]] = None, cache_dir: Optional[Path] = None
) -> _Kernel:
    """The C ``l1_costs``, ``transport_solve`` and ``rank_topk`` (see
    :func:`repro.core.native.load`, which raises ``ImportError`` where
    they cannot be built or loaded)."""
    return _Kernel(*native.load("_emd.c", _SIGNATURES, compiler, cache_dir))


_KERNEL = _load_kernel()


def _elements(array: np.ndarray) -> np.ndarray:
    """``array`` as float64 whose strides are whole elements (a copy only
    for an unaligned buffer), for a kernel that reads it in place."""
    array = np.asarray(array, dtype=np.float64)
    return array if array.flags.aligned else np.ascontiguousarray(array)


def _simplex(
    work: np.ndarray,
    costs: np.ndarray,
    tolerance: float,
    basis: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, int]:
    """Vogel's start and MODI pivots on a balanced problem with positive
    totals, in C: ``(flow, pivots)``.  ``work`` is a zeroed float64
    buffer of ``m + n + m * n`` that holds the balanced supply and
    demand; the flow is written after them.  ``costs`` is read in place.
    A zeroed ``(m, n)`` uint8 ``basis`` receives the final basis.
    """
    m, n = costs.shape
    costs = _elements(costs)
    pivots = _KERNEL.solve(
        m, n, work.ctypes.data,
        costs.ctypes.data, costs.strides[0] // 8, costs.strides[1] // 8,
        tolerance, _MAX_PIVOTS_FACTOR * (m + n),
        None if basis is None else basis.ctypes.data,
    )
    if pivots < 0:
        if pivots == _PIVOT_LIMIT:
            raise TransportPivotLimitError(m, n, _MAX_PIVOTS_FACTOR * (m + n))
        if pivots == _NOT_SPANNING:
            raise RuntimeError("basis is not spanning; cannot close pivot cycle")
        raise MemoryError(f"no memory for a {m}x{n} transportation problem")
    return work[m + n:].reshape(m, n), pivots

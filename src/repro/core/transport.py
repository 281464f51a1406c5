"""Transportation-problem solver used by the Earth Mover's Distance.

EMD between two weighted sets of feature vectors (section 4.2.2) is the
classical balanced transportation problem: move supply ``w(X_i)`` to
demand ``w(Y_j)`` at unit cost ``d(X_i, Y_j)`` minimizing total work.

Objects in Ferret have few segments (1-11 in the paper's datasets), so a
dense transportation simplex is the right tool: Vogel's approximation
builds a good initial basic feasible solution, and the MODI (u-v) method
pivots to optimality.  Degeneracy is handled by keeping exactly
``m + n - 1`` basic cells (zero-flow cells stay basic).

At ~11 x 11 a solve is per-call overhead, not arithmetic, and almost
every one ends at Vogel's start (about 1 solve in 2,000 pivots), so the
fast path keeps scalar work in Python lists — Vogel's steps over rows
and columns sorted once up front, the potentials' tree walk — and numpy
for whole-matrix steps only.  Python floats are the same IEEE doubles,
so every flow, cost and pivot count is bit-identical to the all-numpy
solver kept as the reference in ``tests/core/test_transport.py``.

Where a C compiler is present, the same start and pivots run compiled
(``_emd.c``'s ``transport_solve``, loaded at import by
:mod:`repro.core.native`), step for step as the Python below, so the
answers are the same bits either way; :func:`rank_kernel` says which one
this process runs.  The checks, the demand rescale and the objective
``(flow * costs).sum()`` stay in numpy on both paths.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, NamedTuple, Optional, Sequence, Set, Tuple

import numpy as np

from . import native

__all__ = [
    "TransportResult",
    "TransportPivotLimitError",
    "rank_kernel",
    "solve_transport",
]

_MAX_PIVOTS_FACTOR = 50  # pivot cap: factor * (m + n), guards non-termination
_TOLERANCE = 1e-12  # least optimality gap (see _find_entering)


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
    # One buffer: copies of the masses, then the flow the compiled
    # simplex fills in place.
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

    kernel = _KERNEL
    if kernel is None:
        flow, _basis, iterations = _simplex(supply, demand, costs, tolerance)
    else:
        flow, iterations = _compiled_simplex(kernel, work, costs, tolerance)
    return TransportResult(flow, float((flow * costs).sum()), iterations)


def _simplex(
    supply: np.ndarray, demand: np.ndarray, costs: np.ndarray, tolerance: float
) -> Tuple[np.ndarray, Set[Tuple[int, int]], int]:
    """Vogel's start and MODI pivots on a balanced problem with positive
    totals: ``(flow, basis, pivots)``."""
    m, n = costs.shape
    flow, basis = _vogel_initial_solution(supply, demand, costs)
    if len(basis) < m + n - 1:  # a full-size Vogel basis is already a tree
        _ensure_spanning_basis(basis, flow, m, n)

    iterations = 0
    max_pivots = _MAX_PIVOTS_FACTOR * (m + n)
    while True:
        u, v = _compute_potentials(basis, costs, m, n)
        entering = _find_entering(costs, u, v, basis, tolerance)
        if entering is None:
            break
        if iterations >= max_pivots:
            raise TransportPivotLimitError(m, n, iterations)
        cycle = _find_cycle(basis, entering, m, n)
        _pivot(flow, basis, cycle)
        iterations += 1
    return flow, basis, iterations


# ----------------------------------------------------------------------
# Compiled kernels: built at import, cached per user, Python otherwise
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
) -> Optional[_Kernel]:
    """The C ``l1_costs``, ``transport_solve`` and ``rank_topk`` (see
    :func:`repro.core.native.load`), or ``None`` where they cannot be
    built or loaded."""
    functions = native.load("_emd.c", _SIGNATURES, compiler, cache_dir)
    return None if functions is None else _Kernel(*functions)


_KERNEL = _load_kernel()


def rank_kernel() -> str:
    """Which EMD kernels this process runs (the transportation simplex
    here, the l1 cost block in :mod:`repro.core.emd` and the ranking
    cascade in :mod:`repro.core.ranking`): ``compiled`` or ``python``
    (no compiler, or the build or load failed)."""
    return "python" if _KERNEL is None else "compiled"


def _elements(array: np.ndarray) -> np.ndarray:
    """``array`` as float64 whose strides are whole elements (a copy only
    for an unaligned buffer), for a kernel that reads it in place."""
    array = np.asarray(array, dtype=np.float64)
    return array if array.flags.aligned else np.ascontiguousarray(array)


def _compiled_simplex(
    kernel: _Kernel,
    work: np.ndarray,
    costs: np.ndarray,
    tolerance: float,
    basis: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, int]:
    """:func:`_simplex` in C: ``(flow, pivots)``.  ``work`` is a zeroed
    float64 buffer of ``m + n + m * n`` that holds the balanced supply
    and demand; the flow is written after them.  ``costs`` is read in
    place.  A zeroed ``(m, n)`` uint8 ``basis`` receives the final basis.
    """
    m, n = costs.shape
    costs = _elements(costs)
    pivots = kernel.solve(
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


def _vogel_initial_solution(
    supply: np.ndarray, demand: np.ndarray, costs: np.ndarray
) -> Tuple[np.ndarray, Set[Tuple[int, int]]]:
    """Vogel's approximation: repeatedly satisfy the row/column with the
    largest penalty (difference between its two cheapest open cells).

    Every row and every column is sorted once, stably, into a list of
    its open crossing lines; closing a line deletes it from the lists of
    the lines it crosses, so a line's two cheapest open cells are the
    head of its list and equal costs keep index order.  Rows are lines
    ``0..m-1`` and columns lines ``m..m+n-1`` of one penalty list, so
    ties resolve to the first row, then the first column, then the first
    cheapest cell in that line — the step sequence of the per-line loop
    kept as the reference in ``tests/core/test_transport.py``.
    """
    m, n = costs.shape
    # Remaining masses, sorted lines and penalties as Python lists: the
    # per-step bookkeeping is scalar, and float arithmetic is the same
    # IEEE double arithmetic without numpy's per-scalar dispatch.
    s = supply.tolist()
    d = demand.tolist()
    # Per line: the crossing lines (as line numbers) cheapest first, and
    # their costs.
    order = (costs.argsort(axis=1, kind="stable") + m).tolist()
    order += costs.argsort(axis=0, kind="stable").T.tolist()
    vals = np.sort(costs, axis=1).tolist() + np.sort(costs, axis=0).T.tolist()
    # Zero rows/columns start closed and leave every list: they never
    # receive flow but still need basis coverage, which
    # _ensure_spanning_basis attaches afterwards.
    is_open = [x > 0 for x in s] + [x > 0 for x in d]
    rows_left, cols_left = sum(is_open[:m]), sum(is_open[m:])
    if rows_left < m or cols_left < n:
        for line, line_order in enumerate(order):
            keep = [p for p, k in enumerate(line_order) if is_open[k]]
            order[line] = [line_order[p] for p in keep]
            vals[line] = [vals[line][p] for p in keep]

    def penalty(line_vals: List[float]) -> float:
        if len(line_vals) > 1:
            return line_vals[1] - line_vals[0]
        return line_vals[0] if line_vals else -math.inf

    # Closed lines stay at -inf, so max() never picks them.
    pen = [penalty(v) if o else -math.inf for v, o in zip(vals, is_open)]
    flow = np.zeros((m, n), dtype=np.float64)
    basis: Set[Tuple[int, int]] = set()
    while rows_left and cols_left:
        line = pen.index(max(pen))
        cross = order[line][0]
        i, j = (line, cross - m) if line < m else (cross, line - m)
        si, dj = s[i], d[j]
        amount = min(si, dj)
        flow[i, j] = amount
        basis.add((i, j))
        s[i] = si = si - amount
        d[j] = dj = dj - amount
        # Close exactly one side on ties to preserve m+n-1 basic cells:
        # the row, unless it is the last open one and the column is
        # spent as well (one of the two always is).
        if si <= 1e-15 and (rows_left > 1 or dj > 1e-15):
            closed, crossing = i, range(m, m + n)
            rows_left -= 1
        else:
            closed, crossing = m + j, range(m)
            cols_left -= 1
        is_open[closed] = False
        pen[closed] = -math.inf
        for line in crossing:
            if is_open[line]:
                at = order[line].index(closed)
                del order[line][at], vals[line][at]
                if at < 2:  # one of the two cheapest: the penalty moves
                    pen[line] = penalty(vals[line])
    return flow, basis


def _ensure_spanning_basis(
    basis: Set[Tuple[int, int]], flow: np.ndarray, m: int, n: int
) -> None:
    """Grow ``basis`` to a spanning tree of the bipartite node graph.

    Degenerate Vogel runs (and zero-weight rows/columns) can leave the
    basis graph disconnected or short of ``m + n - 1`` arcs; we connect
    components through zero-flow basic cells, which is the standard
    epsilon-perturbation treatment.
    """
    parent = list(range(m + n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> bool:
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        parent[ra] = rb
        return True

    for (i, j) in basis:
        union(i, m + j)
    for i in range(m):
        for j in range(n):
            if len(basis) >= m + n - 1:
                return
            if (i, j) not in basis and union(i, m + j):
                basis.add((i, j))  # zero-flow basic cell


def _compute_potentials(
    basis: Set[Tuple[int, int]], costs: np.ndarray, m: int, n: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Solve ``u_i + v_j = c_ij`` over basic cells by tree traversal.

    Each potential is one subtraction from its tree parent's, so the
    walk runs on Python floats (the same doubles) and its order does not
    affect the values.
    """
    c = costs.tolist()
    u: List[Optional[float]] = [None] * m
    v: List[Optional[float]] = [None] * n
    by_row: List[List[int]] = [[] for _ in range(m)]
    by_col: List[List[int]] = [[] for _ in range(n)]
    for (i, j) in basis:
        by_row[i].append(j)
        by_col[j].append(i)
    u[0] = 0.0
    stack = [0]  # node ids: row i is i, column j is m + j
    while stack:
        node = stack.pop()
        if node < m:
            ui, ci = u[node], c[node]
            for j in by_row[node]:
                if v[j] is None:
                    v[j] = ci[j] - ui
                    stack.append(m + j)
        else:
            j = node - m
            vj = v[j]
            for i in by_col[j]:
                if u[i] is None:
                    u[i] = c[i][j] - vj
                    stack.append(i)
    # A spanning basis reaches every node; guard against numerical gaps.
    return (
        np.array([0.0 if x is None else x for x in u]),
        np.array([0.0 if x is None else x for x in v]),
    )


def _find_entering(
    costs: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    basis: Set[Tuple[int, int]],
    tolerance: float,
) -> Optional[Tuple[int, int]]:
    """Most negative reduced-cost non-basic cell, or None at optimality."""
    reduced = costs - u[:, None] - v[None, :]
    n = reduced.shape[1]
    reduced.put([i * n + j for (i, j) in basis], 0.0)  # flat indices
    i, j = np.unravel_index(np.argmin(reduced), reduced.shape)
    if reduced[i, j] >= -max(tolerance, 1e-10 * (1.0 + abs(costs).max())):
        return None
    return int(i), int(j)


def _find_cycle(
    basis: Set[Tuple[int, int]], entering: Tuple[int, int], m: int, n: int
) -> List[Tuple[int, int]]:
    """Unique alternating cycle created by adding ``entering`` to the basis tree.

    Returns cells in cycle order starting at ``entering``; even positions
    gain flow, odd positions lose flow.
    """
    # Adjacency over the basis tree (bipartite: rows 0..m-1, cols m..m+n-1)
    adj: List[List[Tuple[int, Tuple[int, int]]]] = [[] for _ in range(m + n)]
    for (i, j) in basis:
        adj[i].append((m + j, (i, j)))
        adj[m + j].append((i, (i, j)))
    start, goal = entering[0], m + entering[1]
    # DFS path from entering-row to entering-column through the tree.
    prev: dict = {start: None}
    stack = [start]
    while stack:
        node = stack.pop()
        if node == goal:
            break
        for nxt, cell in adj[node]:
            if nxt not in prev:
                prev[nxt] = (node, cell)
                stack.append(nxt)
    if goal not in prev:
        raise RuntimeError("basis is not spanning; cannot close pivot cycle")
    path_cells: List[Tuple[int, int]] = []
    node = goal
    while prev[node] is not None:
        parent, cell = prev[node]
        path_cells.append(cell)
        node = parent
    path_cells.reverse()
    return [entering] + path_cells[::-1]


def _pivot(
    flow: np.ndarray, basis: Set[Tuple[int, int]], cycle: List[Tuple[int, int]]
) -> None:
    """Shift flow around the cycle; entering cell gains, leaving cell exits."""
    losing = cycle[1::2]
    theta = min(flow[i, j] for (i, j) in losing)
    leave_idx = min(
        range(len(losing)), key=lambda k: (flow[losing[k]], losing[k])
    )
    for pos, (i, j) in enumerate(cycle):
        if pos % 2 == 0:
            flow[i, j] += theta
        else:
            flow[i, j] -= theta
            if flow[i, j] < 0.0:  # numerical dust
                flow[i, j] = 0.0
    basis.add(cycle[0])
    basis.discard(losing[leave_idx])

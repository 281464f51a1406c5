"""Tests for the transportation simplex, cross-checked against scipy's LP.

The bit-identity tests run the compiled simplex (``_emd.c``) against the
all-numpy reference solver kept below, which shares no code with it:
Vogel's start, then flow bits, basis, pivots and cost.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from repro.core import transport
from repro.core.transport import TransportPivotLimitError, solve_transport


def scipy_transport_cost(supply, demand, costs):
    """Reference optimum via scipy's HiGHS LP solver."""
    m, n = costs.shape
    a_eq = []
    for i in range(m):
        row = np.zeros((m, n))
        row[i, :] = 1
        a_eq.append(row.ravel())
    for j in range(n):
        row = np.zeros((m, n))
        row[:, j] = 1
        a_eq.append(row.ravel())
    res = linprog(
        costs.ravel(),
        A_eq=np.asarray(a_eq),
        b_eq=np.concatenate([supply, demand]),
        bounds=(0, None),
        method="highs",
    )
    assert res.status == 0, res.message
    return res.fun


class TestBasics:
    def test_trivial_1x1(self):
        result = solve_transport(np.array([1.0]), np.array([1.0]), np.array([[3.0]]))
        assert result.cost == pytest.approx(3.0)
        assert result.flow[0, 0] == pytest.approx(1.0)

    def test_identity_matching(self):
        # zero-cost diagonal must route all flow diagonally
        costs = np.ones((3, 3)) - np.eye(3)
        supply = demand = np.full(3, 1 / 3)
        result = solve_transport(supply, demand, costs)
        assert result.cost == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(result.flow, np.eye(3) / 3)

    def test_flow_conservation(self):
        rng = np.random.default_rng(0)
        supply = rng.random(4)
        demand = rng.random(5)
        demand *= supply.sum() / demand.sum()
        costs = rng.random((4, 5))
        result = solve_transport(supply, demand, costs)
        assert np.allclose(result.flow.sum(axis=1), supply)
        assert np.allclose(result.flow.sum(axis=0), demand)
        assert np.all(result.flow >= 0)

    def test_zero_mass(self):
        result = solve_transport(np.zeros(2), np.zeros(3), np.ones((2, 3)))
        assert result.cost == 0.0

    def test_zero_weight_rows_allowed(self):
        supply = np.array([0.0, 1.0])
        demand = np.array([0.5, 0.5, 0.0])
        costs = np.arange(6, dtype=float).reshape(2, 3)
        result = solve_transport(supply, demand, costs)
        assert result.flow[0].sum() == pytest.approx(0.0)
        assert result.cost == pytest.approx(0.5 * 3 + 0.5 * 4)

    def test_unbalanced_rejected(self):
        with pytest.raises(ValueError):
            solve_transport(np.array([1.0]), np.array([2.0]), np.array([[1.0]]))

    def test_negative_supply_rejected(self):
        with pytest.raises(ValueError):
            solve_transport(np.array([-1.0, 2.0]), np.array([1.0]), np.ones((2, 1)))

    def test_cost_shape_mismatch(self):
        with pytest.raises(ValueError):
            solve_transport(np.ones(2), np.ones(2), np.ones((3, 2)))

    def test_nan_supply_rejected(self):
        # Used to return cost 0.0: NaN passes the sign check and the
        # NaN total passes the zero-mass check.
        with pytest.raises(ValueError, match="finite"):
            solve_transport(
                np.array([np.nan, 0.5]), np.array([0.5, 0.5]), np.ones((2, 2))
            )

    def test_inf_supply_rejected(self):
        # Used to return cost NaN from an inf - inf in the balancing.
        with pytest.raises(ValueError, match="finite"):
            solve_transport(
                np.array([np.inf, 0.5]), np.array([0.5, 0.5]), np.ones((2, 2))
            )

    def test_nan_cost_rejected(self):
        # Used to pivot until the cap raised TransportPivotLimitError.
        costs = np.ones((3, 3))
        costs[1, 2] = np.nan
        with pytest.raises(ValueError, match="finite") as excinfo:
            solve_transport(np.full(3, 1 / 3), np.full(3, 1 / 3), costs)
        assert not isinstance(excinfo.value, TransportPivotLimitError)


class TestOptimality:
    @pytest.mark.parametrize("m,n,seed", [
        (2, 2, 1), (3, 4, 2), (5, 5, 3), (7, 3, 4), (10, 10, 5), (1, 8, 6), (8, 1, 7),
    ])
    def test_matches_scipy(self, m, n, seed):
        rng = np.random.default_rng(seed)
        supply = rng.random(m) + 0.01
        demand = rng.random(n) + 0.01
        demand *= supply.sum() / demand.sum()
        costs = rng.random((m, n)) * 10
        result = solve_transport(supply, demand, costs)
        expected = scipy_transport_cost(supply, demand, costs)
        assert result.cost == pytest.approx(expected, rel=1e-8, abs=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 6),
        st.integers(1, 6),
        st.integers(0, 10_000),
    )
    def test_property_matches_scipy(self, m, n, seed):
        rng = np.random.default_rng(seed)
        supply = rng.random(m) + 1e-3
        demand = rng.random(n) + 1e-3
        demand *= supply.sum() / demand.sum()
        costs = rng.random((m, n))
        result = solve_transport(supply, demand, costs)
        expected = scipy_transport_cost(supply, demand, costs)
        assert result.cost == pytest.approx(expected, rel=1e-7, abs=1e-9)

    def test_degenerate_equal_weights(self):
        # Many ties — classic degeneracy stress for the simplex.
        m = n = 6
        supply = demand = np.full(m, 1.0 / m)
        rng = np.random.default_rng(42)
        costs = rng.integers(1, 5, size=(m, n)).astype(float)
        result = solve_transport(supply, demand, costs)
        expected = scipy_transport_cost(supply, demand, costs)
        assert result.cost == pytest.approx(expected, rel=1e-8)

    def test_integer_costs_classic_example(self):
        # Known textbook instance.
        supply = np.array([20.0, 30.0, 25.0])
        demand = np.array([10.0, 28.0, 27.0, 10.0])
        costs = np.array(
            [[4.0, 5.0, 6.0, 8.0], [6.0, 4.0, 3.0, 5.0], [5.0, 2.0, 2.0, 8.0]]
        )
        result = solve_transport(supply, demand, costs)
        expected = scipy_transport_cost(supply, demand, costs)
        assert result.cost == pytest.approx(expected)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.booleans())
    def test_corpus_shaped_matches_scipy(self, seed, thresholded):
        # The image workload's shape: ~11 x 11 weighted-l1 costs between
        # clustered 14-dim segments, clipped at the EMD threshold (which
        # makes most cells tie), gamma-distributed masses.
        rng = np.random.default_rng(seed)
        m, n = np.maximum(1, rng.poisson(10.8, size=2))
        prototypes = rng.random((8, 14))
        a = prototypes[rng.integers(0, 8, m)] + rng.normal(0, 0.08, (m, 14))
        b = prototypes[rng.integers(0, 8, n)] + rng.normal(0, 0.08, (n, 14))
        costs = np.abs(a[:, None, :] - b[None, :, :]).sum(axis=2)
        if thresholded:
            costs = np.minimum(costs, 1.2)
        supply = rng.gamma(2.0, 1.0, m)
        demand = rng.gamma(2.0, 1.0, n)
        supply /= supply.sum()
        demand /= demand.sum()
        result = solve_transport(supply, demand, costs)
        expected = scipy_transport_cost(supply, demand, costs)
        assert result.cost == pytest.approx(expected, rel=1e-9, abs=1e-9)
        assert np.allclose(result.flow.sum(axis=1), supply)


# Vogel's start is not optimal here: the simplex needs a pivot.
PIVOTING = (
    np.array([0.4, 0.3, 0.2, 0.1]),
    np.array([0.2, 0.3, 0.1, 0.1, 0.3]),
    np.array([
        [0.5, 0.5, 0.5, 0.3, 0.9],
        [0.7, 0.0, 0.7, 0.9, 0.9],
        [0.7, 0.4, 0.1, 0.0, 0.5],
        [0.1, 0.9, 0.2, 0.1, 0.3],
    ]),
)


class TestPivotCap:
    def test_raises_instead_of_returning_a_non_optimal_flow(self, monkeypatch):
        # A cap of zero pivots must raise, not hand back Vogel's cost.
        assert solve_transport(*PIVOTING).iterations >= 1
        monkeypatch.setattr(transport, "_MAX_PIVOTS_FACTOR", 0)
        with pytest.raises(TransportPivotLimitError) as excinfo:
            solve_transport(*PIVOTING)
        assert isinstance(excinfo.value, RuntimeError)
        assert (excinfo.value.m, excinfo.value.n) == (4, 5)
        assert excinfo.value.pivots == 0

    def test_cap_not_hit_when_start_is_optimal(self, monkeypatch):
        monkeypatch.setattr(transport, "_MAX_PIVOTS_FACTOR", 0)
        result = solve_transport(np.ones(2), np.ones(2), np.ones((2, 2)) - np.eye(2))
        assert result.cost == 0.0 and result.iterations == 0

    def test_cap_reached_mid_run_on_both_paths(self, monkeypatch):
        # A cap one pivot short of what a problem needs raises with the
        # cap as the pivot count, after that many pivots; at the pivots
        # it needs it solves.
        rng = np.random.default_rng(12)
        costs = rng.random((9, 9))
        supply = demand = np.full(9, 1 / 9)
        needed = solve_transport(supply, demand, costs).iterations
        assert needed >= 2
        monkeypatch.setattr(transport, "_MAX_PIVOTS_FACTOR", _PivotCap(needed - 1))
        with pytest.raises(TransportPivotLimitError) as excinfo:
            solve_transport(supply, demand, costs)
        assert excinfo.value.pivots == needed - 1
        monkeypatch.setattr(transport, "_MAX_PIVOTS_FACTOR", _PivotCap(needed))
        assert solve_transport(supply, demand, costs).iterations == needed


class _PivotCap:
    """A stand-in pivot factor: its product with ``m + n`` is ``cap``."""

    def __init__(self, cap):
        self.cap = cap

    def __mul__(self, lines):
        return self.cap


# --- Vogel's start: the per-line loop, the reference the compiled start
# --- must reproduce step for step.

def _reference_vogel(supply, demand, costs):
    m, n = costs.shape
    s = supply.copy()
    d = demand.copy()
    flow = np.zeros((m, n), dtype=np.float64)
    basis = set()
    row_open = s > 0
    col_open = d > 0
    work = costs.copy()

    while row_open.any() and col_open.any():
        best_cell = None
        best_penalty = -1.0
        open_cols = np.where(col_open)[0]
        open_rows = np.where(row_open)[0]
        for i in open_rows:
            row = work[i, open_cols]
            penalty, j_local = _reference_penalty_and_argmin(row)
            if penalty > best_penalty:
                best_penalty = penalty
                best_cell = (int(i), int(open_cols[j_local]))
        for j in open_cols:
            col = work[open_rows, j]
            penalty, i_local = _reference_penalty_and_argmin(col)
            if penalty > best_penalty:
                best_penalty = penalty
                best_cell = (int(open_rows[i_local]), int(j))
        assert best_cell is not None
        i, j = best_cell
        amount = min(s[i], d[j])
        flow[i, j] = amount
        basis.add((i, j))
        s[i] -= amount
        d[j] -= amount
        # Close exactly one side on ties to preserve m+n-1 basic cells.
        if s[i] <= 1e-15 and row_open.sum() > 1:
            row_open[i] = False
            s[i] = 0.0
        elif d[j] <= 1e-15:
            col_open[j] = False
            d[j] = 0.0
        else:
            row_open[i] = s[i] > 1e-15
    return flow, basis


def _reference_penalty_and_argmin(values):
    """Vogel penalty (2nd-smallest minus smallest) and argmin of ``values``."""
    j = int(np.argmin(values))
    if values.shape[0] == 1:
        return float(values[0]), j
    smallest = values[j]
    rest = np.delete(values, j)
    return float(rest.min() - smallest), j


# --- The whole solver in numpy (on top of the reference Vogel): the
# --- reference the compiled simplex must reproduce bit for bit.

def _reference_solve(supply, demand, costs, tolerance=1e-12):
    """``(TransportResult, final basis)``."""
    supply = np.asarray(supply, dtype=np.float64).copy()
    demand = np.asarray(demand, dtype=np.float64).copy()
    costs = np.asarray(costs, dtype=np.float64)
    m, n = supply.shape[0], demand.shape[0]
    if costs.shape != (m, n):
        raise ValueError(f"costs must be ({m}, {n}), got {costs.shape}")
    if np.any(supply < 0) or np.any(demand < 0):
        raise ValueError("supply and demand must be non-negative")
    total_s, total_d = float(supply.sum()), float(demand.sum())
    if total_s <= 0.0 or total_d <= 0.0:
        return transport.TransportResult(np.zeros((m, n)), 0.0, 0), set()
    if abs(total_s - total_d) > 1e-6 * max(total_s, total_d):
        raise ValueError(
            f"unbalanced problem: supply={total_s} demand={total_d}"
        )
    demand *= total_s / total_d  # exact balance for the simplex

    flow, basis = _reference_vogel(supply, demand, costs)
    _reference_ensure_spanning_basis(basis, flow, m, n)

    iterations = 0
    max_pivots = transport._MAX_PIVOTS_FACTOR * (m + n)
    while True:
        u, v = _reference_potentials(basis, costs, m, n)
        entering = _reference_find_entering(costs, u, v, basis, tolerance)
        if entering is None:
            break
        if iterations >= max_pivots:
            raise TransportPivotLimitError(m, n, iterations)
        cycle = _reference_find_cycle(basis, entering, m, n)
        _reference_pivot(flow, basis, cycle)
        iterations += 1

    return transport.TransportResult(
        flow, float((flow * costs).sum()), iterations
    ), basis


def _reference_ensure_spanning_basis(basis, flow, m, n):
    parent = list(range(m + n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
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


def _reference_potentials(basis, costs, m, n):
    u = np.full(m, np.nan)
    v = np.full(n, np.nan)
    by_row = [[] for _ in range(m)]
    by_col = [[] for _ in range(n)]
    for (i, j) in basis:
        by_row[i].append(j)
        by_col[j].append(i)
    u[0] = 0.0
    stack = [("row", 0)]
    while stack:
        kind, idx = stack.pop()
        if kind == "row":
            for j in by_row[idx]:
                if np.isnan(v[j]):
                    v[j] = costs[idx, j] - u[idx]
                    stack.append(("col", j))
        else:
            for i in by_col[idx]:
                if np.isnan(u[i]):
                    u[i] = costs[i, idx] - v[idx]
                    stack.append(("row", i))
    # A spanning basis reaches every node; guard against numerical gaps.
    u = np.nan_to_num(u, nan=0.0)
    v = np.nan_to_num(v, nan=0.0)
    return u, v


def _reference_find_entering(costs, u, v, basis, tolerance):
    reduced = costs - u[:, None] - v[None, :]
    for (i, j) in basis:
        reduced[i, j] = 0.0
    i, j = np.unravel_index(np.argmin(reduced), reduced.shape)
    if reduced[i, j] >= -max(tolerance, 1e-10 * (1.0 + abs(costs).max())):
        return None
    return int(i), int(j)


def _reference_find_cycle(basis, entering, m, n):
    """Unique alternating cycle created by adding ``entering`` to the
    basis tree, in cycle order from ``entering``; even positions gain
    flow, odd positions lose flow."""
    # Adjacency over the basis tree (bipartite: rows 0..m-1, cols m..m+n-1)
    adj = [[] for _ in range(m + n)]
    for (i, j) in basis:
        adj[i].append((m + j, (i, j)))
        adj[m + j].append((i, (i, j)))
    start, goal = entering[0], m + entering[1]
    # DFS path from entering-row to entering-column through the tree.
    prev = {start: None}
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
    path_cells = []
    node = goal
    while prev[node] is not None:
        parent, cell = prev[node]
        path_cells.append(cell)
        node = parent
    return [entering] + path_cells


def _reference_pivot(flow, basis, cycle):
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


def _cells(mask):
    return {(int(i), int(j)) for i, j in zip(*np.nonzero(mask))}


def _compiled_start(supply, demand, costs):
    """``(flow, basis)`` of ``_emd.c``'s Vogel start and spanning step on
    the given masses: the simplex run with a cap of zero pivots."""
    m, n = costs.shape
    work = np.zeros(m + n + m * n)
    work[:m], work[m : m + n] = supply, demand
    basis = np.zeros((m, n), dtype=np.uint8)
    transport._KERNEL.solve(
        m, n, work.ctypes.data, costs.ctypes.data, n, 1, 1e-12, 0, basis.ctypes.data
    )
    return work[m + n :].reshape(m, n), _cells(basis)


def _assert_same_start(supply, demand, costs):
    costs = np.ascontiguousarray(costs, dtype=np.float64)
    flow, basis = _compiled_start(supply, demand, costs)
    ref_flow, ref_basis = _reference_vogel(supply, demand, costs)
    assert np.array_equal(flow.view(np.uint64), ref_flow.view(np.uint64))
    _reference_ensure_spanning_basis(ref_basis, ref_flow, *costs.shape)
    assert basis == ref_basis


@st.composite
def vogel_problems(draw):
    # Up to the corpus's shapes: image objects carry Poisson(10.8)
    # segments, so 24 covers all but a sliver of the solves.
    m = draw(st.integers(1, 24))
    n = draw(st.integers(1, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cost_kind = draw(st.sampled_from(["float", "few_levels", "clipped", "flat"]))
    if cost_kind == "float":
        costs = rng.random((m, n))
    elif cost_kind == "few_levels":  # ties within and across lines
        costs = rng.integers(0, 3, size=(m, n)).astype(np.float64)
    elif cost_kind == "clipped":  # thresholded EMD: most cells at the cap
        costs = np.minimum(rng.random((m, n)) * 3.0, 1.2)
    else:
        costs = np.zeros((m, n))
    mass_kind = draw(st.sampled_from(["float", "uniform", "paired"]))
    if mass_kind == "float":
        supply, demand = rng.random(m) + 0.01, rng.random(n) + 0.01
    elif mass_kind == "uniform":  # every step closes a row and a column
        supply, demand = np.ones(m), np.ones(n)
    else:  # equal supply/demand pairs: both sides empty at once
        supply, demand = rng.random(m) + 0.01, rng.random(n) + 0.01
        k = min(m, n)
        demand[:k] = supply[:k]
    if draw(st.booleans()) and m > 1:  # zero-weight rows ...
        supply[rng.integers(m)] = 0.0
    if draw(st.booleans()) and n > 1:  # ... and columns
        demand[rng.integers(n)] = 0.0
    supply = supply / supply.sum()
    demand = demand / demand.sum()
    return supply, demand, costs


class TestVogelStart:
    """``_emd.c``'s start: Vogel's flow and basis, then the zero-flow
    cells that make the basis a spanning tree."""

    @settings(max_examples=300, deadline=None)
    @given(vogel_problems())
    def test_identical_flow_and_basis(self, problem):
        _assert_same_start(*problem)

    @pytest.mark.parametrize("m,n", [(1, 1), (1, 6), (6, 1), (2, 2)])
    def test_thin_problems(self, m, n):
        rng = np.random.default_rng(m * 10 + n)
        supply = rng.random(m) + 0.1
        demand = rng.random(n) + 0.1
        demand *= supply.sum() / demand.sum()
        _assert_same_start(supply, demand, rng.random((m, n)))

    def test_single_open_cell(self):
        # All mass in one row and one column: the only open cell's
        # penalty is its own cost.
        supply = np.array([0.0, 1.0, 0.0])
        demand = np.array([0.0, 0.0, 1.0, 0.0])
        costs = np.arange(12, dtype=np.float64).reshape(3, 4)
        _assert_same_start(supply, demand, costs)
        flow, basis = _compiled_start(supply, demand, costs)
        assert (1, 2) in basis and len(basis) == 3 + 4 - 1
        assert flow[1, 2] == 1.0 and flow.sum() == 1.0


@st.composite
def corpus_problems(draw):
    """The image workload's solves, as in ``test_corpus_shaped_matches_scipy``:
    ~11 x 11 weighted-l1 costs between clustered 14-dim segments,
    optionally clipped at the EMD threshold, gamma-distributed masses."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m, n = np.maximum(1, rng.poisson(10.8, size=2))
    prototypes = rng.random((8, 14))
    a = prototypes[rng.integers(0, 8, m)] + rng.normal(0, 0.08, (m, 14))
    b = prototypes[rng.integers(0, 8, n)] + rng.normal(0, 0.08, (n, 14))
    costs = np.abs(a[:, None, :] - b[None, :, :]).sum(axis=2)
    if draw(st.booleans()):
        costs = np.minimum(costs, 1.2)
    supply = rng.gamma(2.0, 1.0, m)
    demand = rng.gamma(2.0, 1.0, n)
    return supply / supply.sum(), demand / demand.sum(), costs


def _balanced(supply, demand):
    """The masses the simplex runs on: copies, demand rescaled to the
    supply's total exactly as ``solve_transport`` rescales it."""
    supply = np.array(supply, dtype=np.float64)
    demand = np.array(demand, dtype=np.float64)
    demand *= float(supply.sum()) / float(demand.sum())
    return supply, demand


def _compiled_solve(supply, demand, costs):
    """``(flow, basis, pivots)`` of ``_emd.c``'s simplex on balanced
    masses, with the basis it ends on."""
    m, n = costs.shape
    work = np.zeros(m + n + m * n)
    work[:m], work[m : m + n] = supply, demand
    basis = np.zeros((m, n), dtype=np.uint8)
    flow, pivots = transport._simplex(work, costs, 1e-12, basis)
    return flow, _cells(basis), pivots


def _assert_same_solve(supply, demand, costs):
    """The compiled solver gives the reference's flow bits, cost and
    pivots, and ends on its basis."""
    ref, ref_basis = _reference_solve(supply, demand, costs)
    got = solve_transport(supply, demand, costs)
    assert np.array_equal(got.flow.view(np.uint64), ref.flow.view(np.uint64))
    assert got.cost == ref.cost
    assert got.iterations == ref.iterations
    if ref_basis:
        _flow, basis, _pivots = _compiled_solve(*_balanced(supply, demand), costs)
        assert basis == ref_basis
    return ref


class TestSolveMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(problem=st.one_of(vogel_problems(), corpus_problems()))
    def test_identical_flow_cost_and_pivots(self, problem):
        _assert_same_solve(*problem)

    def test_pivoting_problem(self):
        assert _assert_same_solve(*PIVOTING).iterations >= 1

    @pytest.mark.parametrize("seed", range(8))
    def test_many_pivots(self, seed):
        # Uniform masses and float costs at 24 x 24: a long pivot run,
        # with ties in the leaving flow at every degenerate step.
        rng = np.random.default_rng(seed)
        costs = rng.random((24, 24))
        masses = np.full(24, 1 / 24)
        assert _assert_same_solve(masses, masses, costs).iterations >= 5

    def test_zero_weight_row_needs_the_spanning_step(self):
        # Row 1 carries no mass, so Vogel's basis is one cell short and
        # only the spanning step connects row 1 — whose potential then
        # exposes an improving cell the simplex must pivot on.
        supply = np.array([1.0, 0.0])
        demand = np.array([0.5, 0.5])
        costs = np.array([[1.0, 2.0], [3.0, 1.0]])
        _flow, basis = _reference_vogel(supply, demand, costs)
        assert len(basis) < 2 + 2 - 1
        result = _assert_same_solve(supply, demand, costs)
        assert result.iterations >= 1

    def test_single_row(self):
        rng = np.random.default_rng(11)
        demand = rng.random(7) + 0.1
        result = _assert_same_solve(np.ones(1), demand / demand.sum(), rng.random((1, 7)))
        assert result.iterations == 0

    def test_degenerate_and_zero_weight_cases(self):
        # Flat costs, one cell of mass, all-but-one zero rows and
        # columns, and equal masses that empty a row and a column at once.
        rng = np.random.default_rng(13)
        cases = [
            (np.full(5, 0.2), np.full(5, 0.2), np.zeros((5, 5))),
            (np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0, 0.0]),
             np.arange(12, dtype=np.float64).reshape(3, 4)),
            (np.array([0.0, 0.0, 1.0]), np.array([0.5, 0.0, 0.5]), rng.random((3, 3))),
            (np.array([0.5, 0.5]), np.array([0.5, 0.5]), np.array([[1.0, 1.0], [1.0, 1.0]])),
            (np.ones(6), np.ones(6), rng.integers(0, 2, (6, 6)).astype(np.float64)),
        ]
        for supply, demand, costs in cases:
            _assert_same_solve(supply, demand, costs)

    def test_strided_cost_slice_is_read_in_place(self):
        # The cascade hands the solver a column slice of its packed
        # costs; a reversed and a Fortran-ordered view solve alike.
        rng = np.random.default_rng(14)
        packed = rng.random((7, 30))
        supply, demand = rng.random(7) + 0.1, rng.random(9) + 0.1
        demand *= supply.sum() / demand.sum()
        want = _assert_same_solve(supply, demand, packed[:, 10:19].copy())
        for costs in (packed[:, 10:19], np.asfortranarray(packed[:, 10:19]),
                      packed[::-1, 10:19][::-1]):
            got = solve_transport(supply, demand, costs)
            assert np.array_equal(got.flow, want.flow) and got.cost == want.cost


def _record_rank_solves(monkeypatch, engine, object_ids):
    """The transport problems the exact ranking path solves for
    ``object_ids`` as queries: one ``solve_transport`` per filter
    candidate (about 100 a query here), of which the cascade solves the
    few its bounds do not prune."""
    import importlib

    from repro.core import RankParams

    emd_module = importlib.import_module("repro.core.emd")  # not the emd() export

    solved = []

    def recording_solve(supply, demand, costs):
        solved.append((supply, demand, costs))
        return solve_transport(supply, demand, costs)

    monkeypatch.setattr(emd_module, "solve_transport", recording_solve)
    engine.rank_params = RankParams(cascade=False)
    for object_id in object_ids:
        engine.query(engine.get_object(object_id), top_k=10, exclude_self=True)
    monkeypatch.undo()
    return solved


class TestCascadeSolvesMatchReference:
    def test_clustered_image_queries(self, monkeypatch):
        # Record the transport problems the ranking really solves on a
        # seeded clustered image corpus; each must come out of the
        # compiled solver exactly as the reference solves it.
        from repro.core import FilterParams, SimilaritySearchEngine, SketchParams
        from repro.datatypes.bulk import bulk_image_dataset
        from repro.datatypes.image import make_image_plugin

        plugin = make_image_plugin()
        engine = SimilaritySearchEngine(
            plugin,
            SketchParams(256, plugin.meta, seed=0),
            FilterParams(num_query_segments=4, candidates_per_segment=32),
        )
        engine.insert_many(list(bulk_image_dataset(400, seed=5)))
        solved = _record_rank_solves(monkeypatch, engine, [300])
        assert len(solved) >= 80
        for supply, demand, costs in solved:
            _assert_same_solve(supply, demand, costs)

    def test_clustered_audio_queries(self, monkeypatch):
        # Audio: 192-dim segments, 8.6 a sentence, plain EMD — the
        # solves that pivot most (Table 2's slowest row).
        from repro.core import FilterParams, SimilaritySearchEngine, SketchParams
        from repro.core.types import meta_from_dataset
        from repro.datatypes.audio import make_audio_plugin
        from repro.datatypes.bulk import bulk_audio_dataset

        dataset = bulk_audio_dataset(300, seed=2)
        plugin = make_audio_plugin(meta_from_dataset(dataset))
        engine = SimilaritySearchEngine(
            plugin,
            SketchParams(600, plugin.meta, seed=0),
            FilterParams(candidates_per_segment=32),
        )
        engine.insert_many(list(dataset))
        solved = _record_rank_solves(monkeypatch, engine, [0])
        assert len(solved) >= 80
        for supply, demand, costs in solved:
            _assert_same_solve(supply, demand, costs)

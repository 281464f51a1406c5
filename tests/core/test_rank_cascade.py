"""Tests for the batched EMD ranking cascade.

Two families of guarantees:

1. The lower bound ``rank_topk`` computes is *provable*: across
   thresholded / sqrt-weighted / custom-ground configurations, it never
   exceeds the exact EMD (hypothesis property tests).
2. The cascade is *invisible*: ``rank_candidates_many`` returns exactly
   ``rank_candidates``'s results — distances, ordering, deterministic
   ties — on randomized workloads including self-exclusion and
   concurrently-removed candidates; the engine produces identical ranked
   answers with the cascade on and off.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import (
    EMDDistance,
    EMDParams,
    FilterParams,
    NonFiniteDistanceError,
    ObjectSignature,
    RankParams,
    SearchMethod,
    SimilaritySearchEngine,
    SketchParams,
    emd,
    emd_to_many,
    rank_candidates,
    rank_candidates_many,
)
from repro.core import transport
from repro.core.distance import weighted_l1_to_many
from repro.core.emd import packed_cost_matrices, packed_costs
from repro.core.ranking import RankStats, _rank_topk
from repro.core.transport import TransportPivotLimitError, solve_transport
from repro.observability import metrics as obs_metrics

# One ulp-scale tolerance: the bounds carry their own float-safety
# margin, so bound <= exact must hold up to representation noise only.
TOL = 1e-9


def _sig(rng, object_id, num_segments, dim=5, zero_mass=0):
    """A random signature whose first ``zero_mass`` segments weigh 0."""
    features = rng.normal(size=(num_segments, dim))
    weights = rng.random(num_segments) + 0.05
    weights[:zero_mass] = 0.0
    return ObjectSignature(features, weights / weights.sum(), object_id=object_id)


def _custom_ground_params(dim=5, threshold=1.0):
    dim_weights = np.linspace(0.5, 1.5, dim)

    def ground(queries, database):
        return np.stack(
            [weighted_l1_to_many(q, database, dim_weights) for q in queries]
        )

    return EMDParams(threshold=threshold, ground=ground)


def _param_configs(dim=5):
    return [
        EMDParams(),
        EMDParams(threshold=1.2),
        EMDParams(weight_transform=np.sqrt),
        EMDParams(threshold=0.8, weight_transform=np.sqrt),
        _custom_ground_params(dim=dim),
        EMDParams(dim_weights=np.linspace(0.5, 1.5, dim)),
        EMDParams(threshold=1.0, dim_weights=np.linspace(0.0, 2.0, dim)),
    ]


NUM_CONFIGS = len(_param_configs())


def _packed_bounds(costs, offsets, supply, demands):
    """The row/column bound ``rank_topk`` computes for every candidate of
    a packed cost array (a top 0 visits none of them)."""
    ids = list(range(len(demands)))
    return _rank_topk(costs, offsets, supply, demands, ids, 0, True, RankStats())[1]


def _bounds(query, candidates, params, demands=None):
    costs, offsets = packed_costs(query, candidates, params)
    if demands is None:
        demands = [params.effective_weights(c.weights) for c in candidates]
    return _packed_bounds(
        costs, offsets, params.effective_weights(query.weights), demands
    )


class TestLowerBounds:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        config=st.integers(0, NUM_CONFIGS - 1),
        m=st.integers(1, 6),
        n=st.integers(1, 6),
    )
    def test_bounds_never_exceed_exact_emd(self, seed, config, m, n):
        rng = np.random.default_rng(seed)
        params = _param_configs()[config]
        query = _sig(rng, 1, m)
        candidate = _sig(rng, 2, n)
        exact = emd(query, candidate, params)
        rowcol = _bounds(query, [candidate], params)[0]
        assert 0.0 <= rowcol <= exact + TOL

    def test_bounds_tight_on_identical_objects(self):
        rng = np.random.default_rng(3)
        q = _sig(rng, 1, 4)
        dup = ObjectSignature(
            q.features.copy(), q.weights.copy(), object_id=2
        )
        for params in _param_configs():
            exact = emd(q, dup, params)
            assert _bounds(q, [dup], params)[0] <= exact + TOL


class TestBatchedBounds:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), config=st.integers(0, NUM_CONFIGS - 1))
    def test_one_pass_equals_per_candidate_and_stays_below_exact(
        self, seed, config
    ):
        rng = np.random.default_rng(seed)
        params = _param_configs()[config]
        query = _sig(rng, 99, int(rng.integers(1, 7)))
        candidates = [_sig(rng, i, int(rng.integers(1, 7))) for i in range(12)]
        # A candidate without mass gets the trivial bound, not a NaN.
        candidates.append(
            ObjectSignature(
                rng.normal(size=(2, 5)), np.zeros(2), object_id=12,
                normalize=False,
            )
        )
        demands = [
            params.effective_weights(c.weights) for c in candidates[:-1]
        ] + [np.zeros(2)]
        rowcol = _bounds(query, candidates, params, demands)
        assert rowcol[-1] == 0.0
        for pos, cand in enumerate(candidates[:-1]):
            exact = emd(query, cand, params)
            assert 0.0 <= rowcol[pos] <= exact + TOL
            assert rowcol[pos] == pytest.approx(
                _bounds(query, [cand], params)[0], rel=1e-12
            )


def _colmin_bounds(costs, offsets, supply, demands):
    """The row/column bound as it stood before the capped column side:
    ``max(supply @ row_mins, demand @ col_mins)`` with the demand
    balanced to the supply, less the float-safety margin."""
    bounds = []
    for pos, demand in enumerate(demands):
        block = costs[:, offsets[pos]:offsets[pos + 1]]
        demand = demand * (supply.sum() / demand.sum())
        side = max(supply @ block.min(axis=1), demand @ block.min(axis=0))
        bounds.append(max(0.0, side * (1.0 - 1e-9) - 1e-12))
    return np.array(bounds)


class TestCappedColumnBound:
    """The column side ships each candidate column's demand over the
    query rows cheapest first, no row carrying more than its supply."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        config=st.integers(0, NUM_CONFIGS - 1),
        m=st.integers(1, 8),
        zero_rows=st.integers(0, 2),
        zero_cols=st.integers(0, 2),
    )
    def test_between_colmin_bound_and_exact(
        self, seed, config, m, zero_rows, zero_cols
    ):
        rng = np.random.default_rng(seed)
        params = _param_configs()[config]
        query = _sig(rng, 99, m, zero_mass=min(zero_rows, m - 1))
        candidates = []
        for i in range(10):
            n = int(rng.integers(1, 9))
            candidates.append(
                _sig(rng, i, n, zero_mass=min(zero_cols, n - 1))
            )
        costs, offsets = packed_costs(query, candidates, params)
        supply = params.effective_weights(query.weights)
        demands = [params.effective_weights(c.weights) for c in candidates]
        capped = _packed_bounds(costs, offsets, supply, demands)
        colmin = _colmin_bounds(costs, offsets, supply, demands)
        for pos, cand in enumerate(candidates):
            assert 0.0 <= capped[pos] <= emd(query, cand, params) + TOL
            assert capped[pos] >= colmin[pos] - TOL

    def test_tighter_than_colmin_where_supply_caps(self):
        # Every row and every column has a free cell, so row and column
        # minima bound the EMD (0.8) at 0.  But columns 0 and 1 each
        # need 0.45 and their free row holds 0.1: each ships 0.35 at 1.
        costs = np.array([[0.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        supply = np.array([0.1, 0.9])
        demands = [np.array([0.45, 0.45, 0.1])]
        offsets = np.array([0, 3])
        capped = _packed_bounds(costs, offsets, supply, demands)
        assert _colmin_bounds(costs, offsets, supply, demands)[0] == 0.0
        assert capped[0] == pytest.approx(0.7, rel=1e-8)


class TestSolveCountPin:
    def test_mean_exact_solves_at_top_10(self):
        # A seeded ~2k-object clustered image corpus behind the e2e
        # image workload's filter (256-bit sketches, r=4, k=32): the
        # capped column bound leaves ~10.4 solves a query for 10
        # answers, where column minima left ~14.9.
        from repro.datatypes.bulk import bulk_image_dataset
        from repro.datatypes.image import make_image_plugin

        plugin = make_image_plugin()
        engine = SimilaritySearchEngine(
            plugin,
            SketchParams(256, plugin.meta, seed=0),
            FilterParams(num_query_segments=4, candidates_per_segment=32),
        )
        engine.insert_many(list(bulk_image_dataset(2000, seed=7)))
        engine.tracer.set_enabled(True)
        solves = []
        for object_id in range(0, 2000, 25):
            engine.query(engine.get_object(object_id), top_k=10, exclude_self=True)
            solves.append(engine.tracer.last.counts["distance_evals"])
        assert min(solves) >= 10
        assert np.mean(solves) <= 11.0


class TestEMDParamsDimWeights:
    def test_rejects_ground_and_dim_weights_together(self):
        with pytest.raises(ValueError, match="custom ground"):
            EMDParams(ground=lambda a, b: np.zeros((len(a), len(b))),
                      dim_weights=np.ones(3))

    @pytest.mark.parametrize(
        "weights", [[-1.0, 1.0], [np.nan, 1.0], [[1.0, 2.0]]]
    )
    def test_rejects_invalid_weights(self, weights):
        with pytest.raises(ValueError, match="dim_weights"):
            EMDParams(dim_weights=weights)

    def test_weights_are_copied_and_frozen(self):
        raw = np.ones(3)
        params = EMDParams(dim_weights=raw)
        raw[0] = 5.0
        assert params.dim_weights[0] == 1.0
        with pytest.raises(ValueError):
            params.dim_weights[0] = 2.0

    def test_weighted_l1_matches_the_definition(self):
        rng = np.random.default_rng(5)
        w = np.linspace(0.5, 1.5, 5)
        a, b = _sig(rng, 1, 1), _sig(rng, 2, 1)
        expected = float((np.abs(a.features[0] - b.features[0]) * w).sum())
        assert emd(a, b, EMDParams(dim_weights=w)) == pytest.approx(expected)


class TestEmdToMany:
    @pytest.mark.parametrize("config", range(NUM_CONFIGS))
    def test_bitwise_identical_to_sequential(self, config):
        rng = np.random.default_rng(config)
        params = _param_configs()[config]
        query = _sig(rng, 99, 4)
        candidates = [
            _sig(rng, i, int(rng.integers(1, 7))) for i in range(40)
        ]
        batched = emd_to_many(query, candidates, params)
        sequential = np.array([emd(query, c, params) for c in candidates])
        assert (batched == sequential).all()

    def test_dedup_shared_segments_identical(self):
        rng = np.random.default_rng(7)
        base = [_sig(rng, i, 3) for i in range(4)]
        # Candidates share bitwise-equal segment rows across objects.
        candidates = [
            ObjectSignature(
                base[i % 4].features.copy(),
                base[i % 4].weights.copy(),
                object_id=i,
            )
            for i in range(24)
        ]
        params = EMDParams(threshold=1.2)
        query = _sig(rng, 99, 5)
        batched = emd_to_many(query, candidates, params)
        sequential = np.array([emd(query, c, params) for c in candidates])
        assert (batched == sequential).all()

    def test_empty_candidates(self):
        rng = np.random.default_rng(8)
        assert emd_to_many(_sig(rng, 1, 3), [], EMDParams()).size == 0


class TestCascadeEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        config=st.integers(0, NUM_CONFIGS - 1),
        top_k=st.integers(1, 30),
        exclude_self=st.booleans(),
    )
    def test_matches_rank_candidates(self, seed, config, top_k, exclude_self):
        rng = np.random.default_rng(seed)
        params = _param_configs()[config]
        objects = {
            i: _sig(rng, i, int(rng.integers(1, 6))) for i in range(25)
        }
        query = objects[0] if exclude_self else _sig(rng, 999, 3)
        dist = EMDDistance(params)
        # Candidate list includes ids removed between filter and rank.
        candidate_ids = list(objects) + [1000, 1001]
        expected = rank_candidates(
            query, candidate_ids, objects, dist,
            top_k=top_k, exclude_self=exclude_self,
        )
        got, stats = rank_candidates_many(
            query, candidate_ids, objects, dist,
            top_k=top_k, exclude_self=exclude_self,
        )
        assert got == expected
        assert stats.exact_evals + stats.lower_bound_prunes == stats.considered

    def test_matches_without_top_k(self):
        rng = np.random.default_rng(11)
        objects = {i: _sig(rng, i, 2) for i in range(15)}
        dist = EMDDistance(EMDParams())
        query = _sig(rng, 99, 2)
        expected = rank_candidates(query, list(objects), objects, dist)
        got, _stats = rank_candidates_many(query, list(objects), objects, dist)
        assert got == expected

    def test_deterministic_under_ties(self):
        rng = np.random.default_rng(12)
        base = _sig(rng, 0, 3)
        # Every candidate is the same signature => every distance ties;
        # the cascade must keep the smallest object ids, like the exact
        # path's (distance, object_id) ordering does.
        objects = {
            i: ObjectSignature(
                base.features.copy(), base.weights.copy(), object_id=i
            )
            for i in range(20)
        }
        dist = EMDDistance(EMDParams())
        query = _sig(rng, 99, 3)
        expected = rank_candidates(query, list(objects), objects, dist, top_k=5)
        got, _stats = rank_candidates_many(
            query, list(objects), objects, dist, top_k=5
        )
        assert got == expected
        assert [r.object_id for r in got] == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize("params", [EMDParams(), EMDParams(threshold=1.0)])
    def test_zero_segment_candidates(self, params):
        # A candidate without segments owns no column of the packed cost
        # array (the last one not even a start offset); its distance is
        # 0.0 on both paths and its bounds must be the trivial ones.
        rng = np.random.default_rng(15)
        objects = {i: _sig(rng, i, 3) for i in range(10)}
        for empty in (4, 9):
            objects[empty] = ObjectSignature(
                np.zeros((0, 5)), np.zeros(0), object_id=empty, normalize=False
            )
        dist = EMDDistance(params)
        query = _sig(rng, 99, 4)
        expected = rank_candidates(query, list(objects), objects, dist, top_k=3)
        got, _stats = rank_candidates_many(
            query, list(objects), objects, dist, top_k=3
        )
        assert got == expected
        assert [r.object_id for r in got[:2]] == [4, 9]

    def test_cascade_off_falls_back(self):
        rng = np.random.default_rng(13)
        objects = {i: _sig(rng, i, 3) for i in range(12)}
        dist = EMDDistance(EMDParams())
        query = _sig(rng, 99, 3)
        off, stats = rank_candidates_many(
            query, list(objects), objects, dist, top_k=4,
            params=RankParams(cascade=False),
        )
        assert stats.exact_evals == len(objects)
        assert stats.lower_bound_prunes == 0
        on, _ = rank_candidates_many(
            query, list(objects), objects, dist, top_k=4
        )
        assert off == on

    def test_non_emd_distance_falls_back(self):
        rng = np.random.default_rng(14)
        objects = {i: _sig(rng, i, 1) for i in range(10)}
        dist = lambda a, b: float(abs(a.features[0, 0] - b.features[0, 0]))
        query = _sig(rng, 99, 1)
        expected = rank_candidates(query, list(objects), objects, dist, top_k=3)
        got, stats = rank_candidates_many(
            query, list(objects), objects, dist, top_k=3
        )
        assert got == expected
        assert stats.lower_bound_prunes == 0


# ----------------------------------------------------------------------
# The compiled cascade (``_emd.c``'s ``rank_topk``) against exact
# ``rank_candidates``
# ----------------------------------------------------------------------

def _hex(results):
    return [(r.distance.hex(), r.object_id) for r in results]


def _mixed_objects(rng, count, dim, max_segments, duplicates, zero_mass,
                   zero_segments):
    """Random objects, the first ``duplicates`` of them copied under
    fresh ids (so distances tie and ids decide), plus candidates without
    mass and without segments."""
    objects = {
        i: _sig(rng, i, int(rng.integers(1, max_segments + 1)), dim=dim)
        for i in range(count)
    }
    for source in range(duplicates):
        copy = count + source
        objects[copy] = ObjectSignature(
            objects[source].features.copy(), objects[source].weights.copy(),
            object_id=copy,
        )
    start = len(objects)
    for i in range(start, start + zero_mass):
        objects[i] = ObjectSignature(
            rng.normal(size=(2, dim)), np.zeros(2), object_id=i,
            normalize=False,
        )
    start = len(objects)
    for i in range(start, start + zero_segments):
        objects[i] = ObjectSignature(
            np.zeros((0, dim)), np.zeros(0), object_id=i, normalize=False
        )
    return objects


class TestCompiledCascade:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        config=st.integers(0, NUM_CONFIGS - 1),
        top_k=st.integers(1, 12),
        max_segments=st.sampled_from([3, 6, 14]),
        duplicates=st.integers(0, 4),
        zero_mass=st.integers(0, 2),
        zero_segments=st.integers(0, 2),
        exclude_self=st.booleans(),
        rowcol_bound=st.booleans(),
    )
    # Pinned: the custom ground (config 4), and objects of up to 14
    # segments, whose flat products exceed 128 terms, so that a plain
    # left-to-right objective would differ in bits.
    @example(seed=42, config=4, top_k=6, max_segments=6, duplicates=0,
             zero_mass=0, zero_segments=0, exclude_self=False,
             rowcol_bound=True)
    @example(seed=40, config=1, top_k=8, max_segments=14, duplicates=2,
             zero_mass=1, zero_segments=1, exclude_self=True,
             rowcol_bound=False)
    # Pinned: two zero-segment candidates at distance 0 and bound 0, so a
    # prune on ">=" instead of ">" skips the second one.
    @example(seed=0, config=0, top_k=1, max_segments=3, duplicates=0,
             zero_mass=0, zero_segments=2, exclude_self=False,
             rowcol_bound=False)
    def test_bit_equal_to_rank_candidates(
        self, seed, config, top_k, max_segments, duplicates,
        zero_mass, zero_segments, exclude_self, rowcol_bound,
    ):
        rng = np.random.default_rng(seed)
        params = _param_configs()[config]
        if params.weight_transform is not None:  # it refuses zero weights
            zero_mass = zero_segments = 0
        objects = _mixed_objects(
            rng, 16, 5, max_segments, duplicates, zero_mass, zero_segments
        )
        query = (
            objects[int(rng.integers(0, 4))] if exclude_self
            else _sig(rng, 999, int(rng.integers(1, max_segments + 1)))
        )
        candidate_ids = list(objects) + [7, 5000]  # a repeat, a removed id
        rng.shuffle(candidate_ids)
        dist = EMDDistance(params)
        want = rank_candidates(
            query, candidate_ids, objects, dist, top_k=top_k,
            exclude_self=exclude_self,
        )
        got, stats = rank_candidates_many(
            query, candidate_ids, objects, dist, top_k=top_k,
            exclude_self=exclude_self,
            params=RankParams(rowcol_bound=rowcol_bound),
        )
        assert _hex(got) == _hex(want)
        assert stats.exact_evals + stats.lower_bound_prunes == stats.considered
        if not rowcol_bound:
            assert stats.lower_bound_prunes == 0

    def test_ties_at_the_kth_distance_keep_the_smallest_ids(self):
        rng = np.random.default_rng(41)
        base = [_sig(rng, i, 4) for i in range(3)]
        objects = {
            i: ObjectSignature(
                base[i % 3].features.copy(), base[i % 3].weights.copy(),
                object_id=i,
            )
            for i in range(30)
        }
        query = _sig(rng, 999, 3)
        dist = EMDDistance(EMDParams(threshold=1.5))
        for top_k in (1, 4, 10, 11, 25):
            want = rank_candidates(
                query, list(objects)[::-1], objects, dist, top_k=top_k
            )
            got, _ = rank_candidates_many(
                query, list(objects)[::-1], objects, dist, top_k=top_k
            )
            assert _hex(got) == _hex(want), top_k

    def test_nan_feature_names_the_candidate(self):
        rng = np.random.default_rng(43)
        objects = {i: _sig(rng, i, 3) for i in range(12)}
        features = objects[8].features.copy()
        features[1, 2] = np.nan
        objects[8] = ObjectSignature(features, objects[8].weights, object_id=8)
        dist = EMDDistance(EMDParams(threshold=1.0))
        with pytest.raises(NonFiniteDistanceError) as want:
            rank_candidates(_sig(rng, 99, 3), list(objects), objects, dist)
        with pytest.raises(NonFiniteDistanceError) as got:
            rank_candidates_many(
                _sig(rng, 99, 3), list(objects), objects, dist, top_k=3
            )
        assert got.value.object_id == want.value.object_id == 8

    def test_pivot_cap_raises(self, monkeypatch):
        # Every candidate gets a cost matrix whose Vogel start needs a
        # pivot; at a cap of zero pivots the first solve must raise.
        supply = np.array([0.4, 0.3, 0.2, 0.1])
        demand = np.array([0.2, 0.3, 0.1, 0.1, 0.3])
        costs = np.array([
            [0.5, 0.5, 0.5, 0.3, 0.9],
            [0.7, 0.0, 0.7, 0.9, 0.9],
            [0.7, 0.4, 0.1, 0.0, 0.5],
            [0.1, 0.9, 0.2, 0.1, 0.3],
        ])
        assert solve_transport(supply, demand, costs).iterations >= 1
        params = EMDParams(ground=lambda a, b: costs.copy())
        query = ObjectSignature(np.zeros((4, 2)), supply, object_id=99)
        objects = {
            i: ObjectSignature(np.zeros((5, 2)), demand, object_id=i)
            for i in range(6)
        }
        monkeypatch.setattr(transport, "_MAX_PIVOTS_FACTOR", 0)
        with pytest.raises(TransportPivotLimitError) as excinfo:
            rank_candidates_many(
                query, list(objects), objects, EMDDistance(params), top_k=2
            )
        assert (excinfo.value.m, excinfo.value.n, excinfo.value.pivots) == (4, 5, 0)

    @pytest.mark.parametrize(
        "weights", [[1.0, 1.0], [1.5, -0.5]], ids=["unbalanced", "negative"]
    )
    def test_bad_masses_raise_the_solvers_error(self, weights):
        # The bad candidate copies the query's features, so its bound is
        # 0 and the cascade visits it first.
        rng = np.random.default_rng(44)
        objects = {i: _sig(rng, i, 2) for i in range(10)}
        query = _sig(rng, 99, 2)
        objects[6] = ObjectSignature(
            query.features.copy(), weights, object_id=6, normalize=False
        )
        with pytest.raises(ValueError) as want:
            solve_transport(
                query.weights, objects[6].weights,
                EMDParams().segment_costs(query.features, query.features),
            )
        with pytest.raises(ValueError) as got:
            rank_candidates_many(
                query, list(objects), objects, EMDDistance(), top_k=3
            )
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)

    def test_non_finite_costs_raise_the_solvers_error(self):
        # A NaN threshold clips every cost to NaN after the feature
        # check: the solver's own cost check has to refuse them.
        rng = np.random.default_rng(46)
        objects = {i: _sig(rng, i, 2) for i in range(8)}
        dist = EMDDistance(EMDParams(threshold=float("nan")))
        with pytest.raises(ValueError, match="costs must be finite"):
            rank_candidates(_sig(rng, 99, 2), list(objects), objects, dist)
        with pytest.raises(ValueError, match="costs must be finite"):
            rank_candidates_many(
                _sig(rng, 99, 2), list(objects), objects, dist, top_k=3
            )

    @pytest.mark.parametrize(
        "weights, error",
        [([1.0, 1.0], "unbalanced"), ([np.inf, 0.5], "must be finite")],
    )
    def test_compiled_cascade_checks_pruned_candidates_too(self, weights, error):
        # A far candidate with bad masses is refused although its bound
        # prunes it: every candidate passes the solver's checks, as in
        # exact rank_candidates.
        rng = np.random.default_rng(45)
        objects = {i: _sig(rng, i, 2) for i in range(10)}
        objects[9] = ObjectSignature(
            objects[9].features + 100.0, weights, object_id=9, normalize=False
        )
        query = _sig(rng, 99, 2)
        dist = EMDDistance()
        with pytest.raises(ValueError, match=error):
            rank_candidates(query, list(objects), objects, dist, top_k=2)
        with pytest.raises(ValueError, match=error):
            rank_candidates_many(query, list(objects), objects, dist, top_k=2)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), config=st.integers(0, NUM_CONFIGS - 1))
    def test_bound_never_exceeds_the_exact_emd(self, seed, config):
        rng = np.random.default_rng(seed)
        params = _param_configs()[config]
        empty = int(params.weight_transform is None)
        objects = _mixed_objects(rng, 14, 5, 8, 2, empty, empty)
        query = _sig(rng, 999, int(rng.integers(1, 9)))
        sigs = list(objects.values())
        ids = list(objects)
        costs, offsets = packed_costs(query, sigs, params)
        supply = params.effective_weights(query.weights)
        demands = [params.effective_weights(c.weights) for c in sigs]
        results, bounds = _rank_topk(
            costs, offsets, supply, demands, ids, len(ids) - 1, True, RankStats()
        )
        for pos, cand in enumerate(sigs):
            assert 0.0 <= bounds[pos] <= emd(query, cand, params), pos
        assert results == rank_candidates(
            query, ids, objects, EMDDistance(params), top_k=len(ids) - 1
        )


class TestRankParams:
    def test_non_bool_rejected(self):
        with pytest.raises(ValueError, match="must be a bool"):
            RankParams(cascade="yes")

    def test_with_updates(self):
        assert RankParams().with_updates(cascade=False).cascade is False


class TestNonFiniteValidation:
    def test_error_carries_candidate_id(self):
        rng = np.random.default_rng(20)
        query = _sig(rng, 1, 3)
        bad = ObjectSignature(
            np.array([[np.nan, 0.0, 0.0, 0.0, 0.0]]),
            np.array([1.0]),
            object_id=42,
        )
        with pytest.raises(NonFiniteDistanceError) as excinfo:
            emd(query, bad)
        assert excinfo.value.object_id == 42
        assert "42" in str(excinfo.value)

    def test_error_is_a_value_error(self):
        assert issubclass(NonFiniteDistanceError, ValueError)

    def test_engine_surfaces_offender(self):
        rng = np.random.default_rng(21)
        plugin_objects = {
            i: _sig(rng, i, 2, dim=4) for i in range(6)
        }
        from repro.core.plugin import DataTypePlugin
        from repro.core.types import FeatureMeta

        plugin = DataTypePlugin(
            name="raw-nonfinite-test",
            meta=FeatureMeta(
                dim=4,
                min_values=np.full(4, -5.0),
                max_values=np.full(4, 5.0),
            ),
            emd_params=EMDParams(),
        )
        engine = SimilaritySearchEngine(
            plugin, SketchParams(32, plugin.meta, seed=0)
        )
        for sig in plugin_objects.values():
            engine.insert(sig)
        poisoned = ObjectSignature(
            np.array([[np.inf, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]]),
            np.array([0.5, 0.5]),
            object_id=None,
        )
        poisoned_id = engine.insert(poisoned)
        query = _sig(rng, 999, 2, dim=4)
        with pytest.raises(NonFiniteDistanceError) as excinfo:
            engine.query(
                query, top_k=3, method=SearchMethod.BRUTE_FORCE_ORIGINAL
            )
        assert excinfo.value.object_id == poisoned_id


class TestImagePluginPackedKernel:
    """The image plug-in's weighted-l1 ground runs through the packed
    kernel; every cell must be the value the per-pair path computes."""

    @pytest.fixture(scope="class")
    def image(self):
        from repro.datatypes.bulk import bulk_image_dataset
        from repro.datatypes.image import make_image_plugin

        plugin = make_image_plugin()
        objects = {o.object_id: o for o in bulk_image_dataset(80, seed=3)}
        return plugin, objects

    def test_plugin_uses_the_packed_branch(self, image):
        plugin, _ = image
        assert plugin.emd_params.ground is None
        assert plugin.emd_params.dim_weights is not None

    @pytest.mark.parametrize("count", [1, 2, 7, 33, 79])
    def test_packed_matrices_bit_identical_to_per_pair(self, image, count):
        # Regression: packing a BLAS ``diff.dot(weights)`` ground changed
        # ~3% of cells versus the per-candidate call, because dot's
        # summation order depends on how many rows share the call.
        plugin, objects = image
        params = plugin.emd_params
        rng = np.random.default_rng(count)
        query = objects[0]
        for _ in range(3):
            picked = [
                objects[int(i)]
                for i in rng.choice(np.arange(1, 80), size=count, replace=False)
            ]
            matrices = packed_cost_matrices(query, picked, params)
            assert len(matrices) == count
            for cand, packed in zip(picked, matrices):
                per_pair = params.segment_costs(
                    query.features, cand.features, cand.object_id
                )
                assert packed.shape == per_pair.shape
                assert (packed == per_pair).all()

    def test_emd_to_many_bit_identical_in_any_order(self, image):
        plugin, objects = image
        params = plugin.emd_params
        query = objects[5]
        cands = [objects[i] for i in range(6, 40)]
        sequential = {c.object_id: emd(query, c, params) for c in cands}
        for order in (cands, cands[::-1], cands[::3]):
            batched = emd_to_many(query, order, params)
            assert batched.tolist() == [sequential[c.object_id] for c in order]

    @pytest.mark.parametrize("exclude_self", [False, True])
    @pytest.mark.parametrize("top_k", [1, 10, 40])
    def test_rank_many_equals_rank_candidates(self, image, exclude_self, top_k):
        plugin, objects = image
        query = objects[2]
        # Missing ids (removed between filter and rank) and an object
        # listed twice both have to come out exactly as the serial
        # path ranks them.
        candidate_ids = list(range(60)) + [7, 7, 31, 5000, 5001]
        expected = rank_candidates(
            query, candidate_ids, objects, plugin.obj_distance,
            top_k=top_k, exclude_self=exclude_self,
        )
        got, stats = rank_candidates_many(
            query, candidate_ids, objects, plugin.obj_distance,
            top_k=top_k, exclude_self=exclude_self,
        )
        assert got == expected
        assert stats.considered == 63 - exclude_self
        assert stats.exact_evals + stats.lower_bound_prunes == stats.considered


class TestEngineIntegration:
    def _engine(self, num_objects=120, seed=0, **kwargs):
        from repro.datatypes.bulk import bulk_image_dataset
        from repro.datatypes.image import make_image_plugin

        plugin = make_image_plugin()
        engine = SimilaritySearchEngine(
            plugin,
            SketchParams(64, plugin.meta, seed=seed),
            FilterParams(num_query_segments=3, candidates_per_segment=24),
            **kwargs,
        )
        engine.insert_many(list(bulk_image_dataset(num_objects, seed=seed)))
        return engine

    def test_cascade_on_off_identical_results(self):
        engine = self._engine()
        queries = [engine.get_object(i) for i in range(6)]
        engine.rank_params = RankParams(cascade=False)
        exact = [
            engine.query(q, top_k=5, exclude_self=True) for q in queries
        ]
        engine.rank_params = RankParams()
        engine._filter_cache.clear()
        cascade = [
            engine.query(q, top_k=5, exclude_self=True) for q in queries
        ]
        batched = engine.query_many(queries, top_k=5, exclude_self=True)
        assert cascade == exact
        assert batched == exact

    def test_metrics_and_trace_visibility(self):
        registry = obs_metrics.get_registry()
        registry.reset()
        engine = self._engine()
        engine.tracer.set_enabled(True)
        engine.query(engine.get_object(0), top_k=3, exclude_self=True)
        evals = registry.get("rank.exact_evals")
        prunes = registry.get("rank.lower_bound_prunes")
        rate = registry.get("rank.prune_rate")
        assert evals is not None and evals.value >= 1
        assert prunes is not None and prunes.value >= 0
        assert rate is not None and 0.0 <= rate.value <= 1.0
        trace = engine.tracer.last
        assert trace is not None
        assert "rank" in trace.stages
        assert trace.counts["rank_considered"] >= trace.counts["distance_evals"]
        assert "lower_bound_prunes" in trace.counts
        rank_spans = [s for s in trace.spans if s["name"] == "rank"]
        assert len(rank_spans) == 1
        assert rank_spans[0]["bound"] >= 0.0
        assert rank_spans[0]["solve"] >= 0.0
        rendered = "\n".join(trace.lines())
        assert "span.rank.bound_seconds" in rendered

    def test_prometheus_exposition_includes_rank_series(self):
        registry = obs_metrics.get_registry()
        registry.reset()
        engine = self._engine()
        engine.query(engine.get_object(0), top_k=3, exclude_self=True)
        text = "\n".join(registry.render_prometheus())
        assert "ferret_rank_exact_evals" in text
        assert "ferret_rank_lower_bound_prunes" in text
        assert "ferret_rank_prune_rate" in text

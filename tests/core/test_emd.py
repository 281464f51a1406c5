"""Tests for the Earth Mover's Distance object distance."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import EMDDistance, EMDParams, ObjectSignature, emd
from repro.core.emd import (
    NonFiniteDistanceError,
    _l1_cost_matrix,
    pairwise_segment_distances,
)


def _obj(rng, k, dim=5):
    return ObjectSignature(rng.random((k, dim)), rng.random(k) + 0.1)


class TestPairwiseDistances:
    def test_default_is_l1(self):
        a = np.array([[0.0, 0.0], [1.0, 1.0]])
        b = np.array([[1.0, 0.0]])
        costs = pairwise_segment_distances(a, b)
        assert np.allclose(costs, [[1.0], [1.0]])

    def test_custom_ground(self):
        def ground(qs, db):
            return np.zeros((qs.shape[0], db.shape[0]))

        costs = pairwise_segment_distances(np.ones((2, 3)), np.ones((4, 3)), ground)
        assert costs.shape == (2, 4)
        assert np.all(costs == 0)

    def test_bad_ground_shape_rejected(self):
        with pytest.raises(ValueError):
            pairwise_segment_distances(
                np.ones((2, 3)), np.ones((4, 3)), lambda q, d: np.zeros((1, 1))
            )

    def test_broadcast_kernel_matches_per_row_loop(self):
        # The cost kernel must be bit-identical to the historical per-row
        # l1 loop.
        from repro.core.distance import l1_to_many

        rng = np.random.default_rng(10)
        a = rng.normal(size=(7, 5))
        b = rng.normal(size=(300, 5))
        looped = np.stack([l1_to_many(row, b) for row in a])
        assert (_l1_cost_matrix(a, b) == looped).all()
        assert (pairwise_segment_distances(a, b) == looped).all()

    def test_nan_features_raise_typed_error(self):
        a = np.array([[0.0, np.nan]])
        b = np.ones((2, 2))
        with pytest.raises(NonFiniteDistanceError):
            pairwise_segment_distances(a, b)

    def test_inf_from_custom_ground_raises(self):
        def ground(qs, db):
            out = np.zeros((qs.shape[0], db.shape[0]))
            out[0, 0] = np.inf
            return out

        with pytest.raises(NonFiniteDistanceError) as excinfo:
            pairwise_segment_distances(
                np.ones((2, 3)), np.ones((4, 3)), ground, object_id=9
            )
        assert excinfo.value.object_id == 9


def _bits(costs):
    return np.ascontiguousarray(costs).view(np.uint64)


def _numpy_l1(a, b, weights=None):
    """The numpy broadcast every cost cell must equal bit for bit:
    ``|a_i - b_j|`` (times the weights) over a C-ordered feature axis,
    which ``np.sum`` adds pairwise."""
    diff = np.abs(
        np.ascontiguousarray(a)[:, None, :] - np.ascontiguousarray(b)[None, :, :]
    )
    if weights is not None:
        diff *= weights
    return diff.sum(axis=2)


class TestCompiledCostKernel:
    """``_emd.c``'s ``l1_costs`` against a numpy broadcast, bit for bit:
    numpy sums each cell pairwise (8 accumulators up to 128 terms,
    halves above), and the C kernel must take the same order."""

    @pytest.mark.parametrize(
        "dim", [1, 3, 7, 8, 9, 14, 16, 100, 128, 129, 192, 300, 544]
    )
    def test_matches_numpy_kernel(self, dim):
        rng = np.random.default_rng(dim)
        # Magnitudes 1e-3 to 1e3 in one row: a changed order rounds apart.
        a = rng.normal(size=(5, dim)) * rng.choice([1e-3, 1.0, 1e3], size=(5, dim))
        wide = rng.normal(size=(40, 2 * dim))
        b = wide[3:37, ::2]  # strided rows and columns
        for weights in (None, rng.random(dim) * 3.0):
            want = _numpy_l1(a, b, weights)
            for left, right in (
                (a, b),
                (np.asfortranarray(a), np.ascontiguousarray(b)),
                (a[::-1][::-1], b[::-1][::-1]),
            ):
                got = _l1_cost_matrix(left, right, weights)
                assert np.array_equal(_bits(got), _bits(want))
            reversed_rows = _l1_cost_matrix(a[::-1], b[::-1], weights)
            assert np.array_equal(_bits(reversed_rows), _bits(want[::-1, ::-1]))

    def test_packed_costs_match_per_candidate(self):
        from repro.core.emd import packed_cost_matrices

        rng = np.random.default_rng(3)
        query = _obj(rng, 6, dim=14)
        cands = [_obj(rng, k, dim=14) for k in (1, 4, 11, 2, 9)]
        params = EMDParams(threshold=1.5, dim_weights=rng.random(14))
        want = [
            np.minimum(_numpy_l1(query.features, c.features, params.dim_weights), 1.5)
            for c in cands
        ]
        per_pair = [params.segment_costs(query.features, c.features) for c in cands]
        got = packed_cost_matrices(query, cands, params)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        assert all(np.array_equal(g, w) for g, w in zip(per_pair, want))

    @pytest.mark.parametrize("poison", [np.nan, np.inf, -np.inf])
    def test_nonfinite_names_the_same_candidate(self, poison):
        from repro.core.emd import packed_costs

        rng = np.random.default_rng(4)
        query = _obj(rng, 3, dim=14)
        cands = [
            ObjectSignature(rng.random((k, 14)), rng.random(k) + 0.1, object_id=10 + i)
            for i, k in enumerate((2, 5, 3, 4))
        ]
        for bad in (1, 3):
            cands[bad].features[-1, 7] = poison
        with pytest.raises(NonFiniteDistanceError) as excinfo:
            packed_costs(query, cands, EMDParams())
        assert excinfo.value.object_id == 11
        with pytest.raises(NonFiniteDistanceError):
            pairwise_segment_distances(query.features, cands[3].features)

    def test_query_layout_does_not_change_the_distance(self):
        # numpy sums a broadcast whose feature axis is not innermost one
        # term after another; a Fortran-ordered query used to round
        # some distances apart from the same query in C order.
        rng = np.random.default_rng(6)
        rows = rng.random((6, 14)) * 100
        weights = rng.random(6) + 0.1
        c_query = ObjectSignature(rows.copy(), weights)
        f_query = ObjectSignature(np.asfortranarray(rows), c_query.weights, normalize=False)
        cands = [_obj(rng, 7, dim=14) for _ in range(40)]
        want = [emd(c_query, c) for c in cands]
        assert [emd(f_query, c) for c in cands] == want

    @pytest.mark.parametrize("dim", [6, 9, 200])
    def test_broadcast_shapes_are_stride_0_views(self, dim):
        # A feature or weight axis of length 1 broadcasts against the
        # others, as in numpy: the kernel reads it through a zero stride.
        rng = np.random.default_rng(dim)
        a, b = rng.random((3, 1)) * 10, rng.random((4, dim))
        weights = rng.random(dim) + 0.5
        for left, right, w in (
            (a, b, None), (b, a, None), (a, b, weights), (b, a, weights),
            (b, b, np.array([2.5])), (a, a[::-1], np.array([0.5])),
        ):
            want = _numpy_l1(left, right, w)
            got = _l1_cost_matrix(left, right, w)
            assert np.array_equal(_bits(got), _bits(want))


class TestEMD:
    def test_self_distance_zero(self):
        rng = np.random.default_rng(0)
        obj = _obj(rng, 4)
        assert emd(obj, obj) == pytest.approx(0.0, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        a, b = _obj(rng, 3), _obj(rng, 5)
        assert emd(a, b) == pytest.approx(emd(b, a), rel=1e-9)

    def test_single_segment_reduces_to_ground_distance(self):
        a = ObjectSignature(np.array([[0.0, 0.0]]), [1.0])
        b = ObjectSignature(np.array([[3.0, 4.0]]), [1.0])
        assert emd(a, b) == pytest.approx(7.0)  # l1

    def test_order_invariance(self):
        """Same segments in a different order => distance 0 (the audio
        use case: same words spoken in a different order)."""
        rng = np.random.default_rng(2)
        feats = rng.random((4, 6))
        weights = np.array([0.1, 0.2, 0.3, 0.4])
        a = ObjectSignature(feats, weights, normalize=False)
        perm = [2, 0, 3, 1]
        b = ObjectSignature(feats[perm], weights[perm], normalize=False)
        assert emd(a, b) == pytest.approx(0.0, abs=1e-12)

    def test_translation_scales_distance(self):
        rng = np.random.default_rng(3)
        feats = rng.random((3, 4))
        a = ObjectSignature(feats, np.ones(3))
        b = ObjectSignature(feats + 1.0, np.ones(3))  # shift by 1 in 4 dims
        assert emd(a, b) == pytest.approx(4.0, rel=1e-9)

    def test_triangle_inequality(self):
        # EMD with a metric ground distance is a metric on distributions.
        rng = np.random.default_rng(4)
        a, b, c = _obj(rng, 3), _obj(rng, 4), _obj(rng, 2)
        assert emd(a, b) <= emd(a, c) + emd(c, b) + 1e-9

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_property_nonnegative_symmetric(self, seed):
        rng = np.random.default_rng(seed)
        a = _obj(rng, int(rng.integers(1, 6)))
        b = _obj(rng, int(rng.integers(1, 6)))
        d = emd(a, b)
        assert d >= 0.0
        assert d == pytest.approx(emd(b, a), rel=1e-7, abs=1e-9)


class TestThresholdedEMD:
    def test_threshold_caps_cost(self):
        a = ObjectSignature(np.array([[0.0]]), [1.0])
        b = ObjectSignature(np.array([[100.0]]), [1.0])
        assert emd(a, b) == pytest.approx(100.0)
        assert emd(a, b, EMDParams(threshold=2.5)) == pytest.approx(2.5)

    def test_threshold_never_increases(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            a, b = _obj(rng, 3), _obj(rng, 4)
            plain = emd(a, b)
            capped = emd(a, b, EMDParams(threshold=0.5))
            assert capped <= plain + 1e-12

    def test_invalid_threshold(self):
        rng = np.random.default_rng(6)
        with pytest.raises(ValueError):
            emd(_obj(rng, 2), _obj(rng, 2), EMDParams(threshold=0.0))

    def test_sqrt_weighting_changes_mass(self):
        feats = np.array([[0.0], [10.0]])
        a = ObjectSignature(feats, [0.9, 0.1], normalize=False)
        target = ObjectSignature(np.array([[0.0]]), [1.0])
        plain = emd(a, target)
        sqrt = emd(a, target, EMDParams(weight_transform=np.sqrt))
        # sqrt weighting boosts the small far-away segment's share.
        assert sqrt > plain


class TestEMDDistance:
    def test_callable_interface(self):
        rng = np.random.default_rng(7)
        a, b = _obj(rng, 2), _obj(rng, 3)
        dist = EMDDistance()
        assert dist(a, b) == pytest.approx(emd(a, b))

    def test_repr_mentions_threshold(self):
        assert "threshold=1.5" in repr(EMDDistance(EMDParams(threshold=1.5)))

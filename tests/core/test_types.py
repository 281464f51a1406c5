"""Unit tests for core data types."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core import (
    Dataset,
    FeatureMeta,
    ObjectSignature,
    meta_from_dataset,
    normalize_weights,
)


class TestNormalizeWeights:
    def test_sums_to_one(self):
        w = normalize_weights([1.0, 2.0, 3.0])
        assert w.sum() == pytest.approx(1.0)
        assert np.allclose(w, [1 / 6, 2 / 6, 3 / 6])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            normalize_weights([])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            normalize_weights([0.5, -0.1])

    def test_rejects_all_zero(self):
        with pytest.raises(ValueError):
            normalize_weights([0.0, 0.0])

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            normalize_weights(np.ones((2, 2)))

    @given(
        st.lists(st.floats(min_value=0.01, max_value=1e6), min_size=1, max_size=30)
    )
    def test_property_sums_to_one(self, weights):
        assert normalize_weights(weights).sum() == pytest.approx(1.0)

    @given(
        st.lists(st.floats(min_value=0.01, max_value=1e6), min_size=2, max_size=30)
    )
    def test_property_preserves_order(self, weights):
        """Normalization preserves ordering up to floating-point rounding
        (dividing by the sum can collapse last-ulp differences)."""
        normalized = normalize_weights(weights)
        order_before = np.argsort(weights, kind="stable")
        arranged = normalized[order_before]
        assert np.all(np.diff(arranged) >= -1e-12 * np.abs(arranged[:-1]))


class TestFeatureMeta:
    def test_ranges(self):
        meta = FeatureMeta(3, np.array([0.0, -1.0, 2.0]), np.array([1.0, 1.0, 4.0]))
        assert np.allclose(meta.ranges, [1.0, 2.0, 2.0])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            FeatureMeta(3, np.zeros(2), np.ones(3))

    def test_rejects_max_below_min(self):
        with pytest.raises(ValueError):
            FeatureMeta(2, np.array([0.0, 1.0]), np.array([1.0, 0.0]))

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            FeatureMeta(2, np.zeros(2), np.ones(2), weights=np.array([1.0, -1.0]))

    def test_from_samples(self):
        samples = np.array([[0.0, 5.0], [2.0, 3.0], [1.0, 4.0]])
        meta = FeatureMeta.from_samples(samples)
        assert np.allclose(meta.min_values, [0.0, 3.0])
        assert np.allclose(meta.max_values, [2.0, 5.0])


class TestObjectSignature:
    def test_basic_construction(self):
        obj = ObjectSignature(np.ones((3, 4)), [1, 1, 2])
        assert obj.num_segments == 3
        assert obj.dim == 4
        assert obj.weights.sum() == pytest.approx(1.0)

    def test_single_vector_promoted_to_2d(self):
        obj = ObjectSignature(np.ones(4), [1.0])
        assert obj.features.shape == (1, 4)

    def test_weight_count_mismatch(self):
        with pytest.raises(ValueError):
            ObjectSignature(np.ones((3, 4)), [1.0, 1.0])

    def test_no_normalize_keeps_weights(self):
        obj = ObjectSignature(np.ones((2, 2)), [0.7, 0.3], normalize=False)
        assert np.allclose(obj.weights, [0.7, 0.3])

    def test_top_segments_order(self):
        obj = ObjectSignature(np.ones((4, 2)), [0.1, 0.4, 0.2, 0.3])
        assert obj.top_segments(2) == [1, 3]
        assert obj.top_segments(10) == [1, 3, 2, 0]

    def test_top_segments_stable_on_ties(self):
        obj = ObjectSignature(np.ones((3, 2)), [0.3, 0.3, 0.4])
        assert obj.top_segments(3) == [2, 0, 1]

    def test_segment_accessor(self):
        feats = np.arange(6, dtype=float).reshape(2, 3)
        obj = ObjectSignature(feats, [1.0, 3.0])
        vec, weight = obj.segment(1)
        assert np.allclose(vec, [3, 4, 5])
        assert weight == pytest.approx(0.75)

    def test_equality(self):
        a = ObjectSignature(np.ones((2, 2)), [1, 1], object_id=5)
        b = ObjectSignature(np.ones((2, 2)), [1, 1], object_id=5)
        c = ObjectSignature(np.zeros((2, 2)), [1, 1], object_id=5)
        assert a == b
        assert a != c


class TestDataset:
    def test_add_assigns_ids(self):
        ds = Dataset()
        ids = [ds.add(ObjectSignature(np.ones((1, 2)), [1.0])) for _ in range(3)]
        assert ids == [0, 1, 2]
        assert len(ds) == 3

    def test_duplicate_id_rejected(self):
        ds = Dataset()
        ds.add(ObjectSignature(np.ones((1, 2)), [1.0], object_id=7))
        with pytest.raises(KeyError):
            ds.add(ObjectSignature(np.ones((1, 2)), [1.0], object_id=7))

    def test_auto_ids_continue_past_explicit_ids(self):
        ds = Dataset()
        sig = lambda oid=None: ObjectSignature(np.ones((1, 2)), [1.0], object_id=oid)
        assert ds.add(sig()) == 0
        assert ds.add(sig(10)) == 10
        assert ds.add(sig()) == 11
        assert ds.add(sig(4)) == 4  # below the high-water mark: no effect
        assert ds.add(sig()) == 12
        preloaded = Dataset({3: sig(3), 8: sig(8)})
        assert preloaded.add(sig()) == 9

    def test_many_adds_do_not_rescan_the_dict(self):
        # add() used to take max() over every stored id: 50k adds were
        # 1.25e9 comparisons (~50 s); with a running next id they are
        # well under a second, so a generous bound still catches O(n^2).
        import time

        ds = Dataset()
        features, weights = np.ones((1, 2)), np.ones(1)
        started = time.perf_counter()
        for _ in range(50_000):
            ds.add(ObjectSignature(features, weights, normalize=False))
        elapsed = time.perf_counter() - started
        assert list(ds.objects) == list(range(50_000))
        assert elapsed < 10.0

    def test_avg_segments(self):
        ds = Dataset()
        ds.add(ObjectSignature(np.ones((2, 2)), [1, 1]))
        ds.add(ObjectSignature(np.ones((4, 2)), [1, 1, 1, 1]))
        assert ds.avg_segments == pytest.approx(3.0)
        assert ds.total_segments == 6

    def test_contains_and_getitem(self):
        ds = Dataset()
        oid = ds.add(ObjectSignature(np.ones((1, 2)), [1.0]))
        assert oid in ds
        assert ds[oid].dim == 2
        assert 999 not in ds


class TestMetaFromDataset:
    def test_bounds_cover_data(self):
        ds = Dataset()
        rng = np.random.default_rng(0)
        for _ in range(10):
            ds.add(ObjectSignature(rng.normal(size=(3, 5)), np.ones(3)))
        meta = meta_from_dataset(ds)
        stacked = np.concatenate([o.features for o in ds])
        assert np.all(meta.min_values <= stacked.min(axis=0))
        assert np.all(meta.max_values >= stacked.max(axis=0))

    def test_constant_dimension_gets_range(self):
        ds = Dataset()
        feats = np.zeros((2, 3))
        feats[:, 1] = 5.0  # constant dims 0,1,2
        ds.add(ObjectSignature(feats, [1, 1]))
        meta = meta_from_dataset(ds)
        assert np.all(meta.ranges > 0)

"""Tests for metadata binary codecs."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ObjectSignature
from repro.metadata import (
    decode_attributes,
    decode_object,
    decode_sketches,
    encode_attributes,
    encode_object,
    encode_sketches,
    object_key,
    parse_object_key,
)


class TestObjectKey:
    def test_roundtrip(self):
        for oid in (0, 1, 2**40, 2**63 - 1):
            assert parse_object_key(object_key(oid)) == oid

    def test_order_preserving(self):
        keys = [object_key(i) for i in (0, 5, 100, 2**32, 2**40)]
        assert keys == sorted(keys)


class TestObjectCodec:
    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        obj = ObjectSignature(rng.random((4, 7)), rng.random(4) + 0.1)
        decoded = decode_object(encode_object(obj), object_id=9)
        assert decoded.object_id == 9
        assert decoded.features.shape == (4, 7)
        # float32 storage: relative precision ~1e-7
        assert np.allclose(decoded.features, obj.features, atol=1e-6)
        assert np.allclose(decoded.weights, obj.weights)

    def test_single_segment(self):
        obj = ObjectSignature(np.ones((1, 3)), [1.0])
        decoded = decode_object(encode_object(obj))
        assert decoded.num_segments == 1

    def test_weights_exact(self):
        """Weights are float64 — exact roundtrip."""
        weights = np.array([0.123456789012345, 0.876543210987655])
        obj = ObjectSignature(np.zeros((2, 2)), weights, normalize=False)
        decoded = decode_object(encode_object(obj))
        assert np.array_equal(decoded.weights, weights)

    def test_lossless_roundtrip_is_exact(self):
        """Version 2 (the getsig wire form) keeps float64 features; the
        stored default stays version 1."""
        rng = np.random.default_rng(3)
        obj = ObjectSignature(rng.random((3, 5)), rng.random(3) + 0.1)
        raw = encode_object(obj, lossless=True)
        assert raw[0] == 2 and encode_object(obj)[0] == 1
        decoded = decode_object(raw, object_id=4)
        assert decoded.object_id == 4
        assert np.array_equal(decoded.features, obj.features)
        assert np.array_equal(decoded.weights, obj.weights)

    @settings(max_examples=30)
    @given(st.integers(1, 8), st.integers(1, 50), st.integers(0, 10_000))
    def test_property_roundtrip(self, k, dim, seed):
        rng = np.random.default_rng(seed)
        obj = ObjectSignature(rng.normal(size=(k, dim)) * 100, rng.random(k) + 0.01)
        decoded = decode_object(encode_object(obj))
        assert decoded.features.shape == (k, dim)
        assert np.allclose(decoded.features, obj.features, rtol=1e-5, atol=1e-3)


class TestSketchCodec:
    def test_roundtrip(self):
        rng = np.random.default_rng(1)
        sketches = rng.integers(0, 2**63, size=(5, 3), dtype=np.uint64)
        decoded = decode_sketches(encode_sketches(sketches))
        assert np.array_equal(decoded, sketches)
        assert decoded.dtype == np.uint64

    def test_single_row(self):
        sketches = np.array([1, 2, 3], dtype=np.uint64)
        decoded = decode_sketches(encode_sketches(sketches))
        assert decoded.shape == (1, 3)


class TestAttributesCodec:
    def test_roundtrip(self):
        attrs = {"name": "dog.jpg", "collection": "corel", "note": "a b c"}
        assert decode_attributes(encode_attributes(attrs)) == attrs

    def test_empty(self):
        assert decode_attributes(encode_attributes({})) == {}

    def test_unicode(self):
        attrs = {"tytuł": "zdjęcie – łąka", "emoji": "🐕"}
        assert decode_attributes(encode_attributes(attrs)) == attrs

    @settings(max_examples=30)
    @given(st.dictionaries(st.text(min_size=1, max_size=20), st.text(max_size=100), max_size=10))
    def test_property_roundtrip(self, attrs):
        assert decode_attributes(encode_attributes(attrs)) == attrs

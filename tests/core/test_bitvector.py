"""Unit + property tests for packed bit vectors and Hamming distance."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.bitvector import (
    hamming_distance,
    hamming_many_to_many,
    hamming_to_many,
    pack_bits,
    popcount64,
    unpack_bits,
)


class TestPopcount:
    def test_known_values(self):
        words = np.array([0, 1, 3, 0xFF, 2**64 - 1], dtype=np.uint64)
        assert popcount64(words).tolist() == [0, 1, 2, 8, 64]

    def test_matches_python_bin(self):
        rng = np.random.default_rng(0)
        words = rng.integers(0, 2**63, size=200, dtype=np.uint64)
        expected = [bin(int(w)).count("1") for w in words]
        assert popcount64(words).tolist() == expected

    def test_2d_shape_preserved(self):
        words = np.zeros((3, 4), dtype=np.uint64)
        assert popcount64(words).shape == (3, 4)


class TestPackUnpack:
    def test_roundtrip_1d(self):
        bits = np.array([1, 0, 1, 1, 0, 0, 1, 0, 1])
        packed = pack_bits(bits)
        assert np.array_equal(unpack_bits(packed, 9), bits)

    def test_roundtrip_2d(self):
        rng = np.random.default_rng(1)
        bits = rng.integers(0, 2, size=(5, 100)).astype(np.uint8)
        packed = pack_bits(bits)
        assert packed.shape == (5, 2)
        assert np.array_equal(unpack_bits(packed, 100), bits)

    def test_word_boundary_sizes(self):
        for n in (1, 63, 64, 65, 128, 129):
            bits = np.ones(n, dtype=np.uint8)
            packed = pack_bits(bits)
            assert packed.shape == ((n + 63) // 64,)
            assert np.array_equal(unpack_bits(packed, n), bits)

    def test_rejects_3d(self):
        with pytest.raises(ValueError):
            pack_bits(np.zeros((2, 2, 2)))

    @settings(max_examples=50)
    @given(st.lists(st.integers(0, 1), min_size=1, max_size=300))
    def test_property_roundtrip(self, bits):
        arr = np.asarray(bits, dtype=np.uint8)
        assert np.array_equal(unpack_bits(pack_bits(arr), len(bits)), arr)


class TestHamming:
    def test_identical_is_zero(self):
        a = pack_bits(np.ones(70, dtype=np.uint8))
        assert hamming_distance(a, a) == 0

    def test_complement(self):
        bits = np.zeros(100, dtype=np.uint8)
        a = pack_bits(bits)
        b = pack_bits(1 - bits)
        assert hamming_distance(a, b) == 100

    def test_matches_naive(self):
        rng = np.random.default_rng(2)
        x = rng.integers(0, 2, size=150).astype(np.uint8)
        y = rng.integers(0, 2, size=150).astype(np.uint8)
        assert hamming_distance(pack_bits(x), pack_bits(y)) == int((x != y).sum())

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            hamming_distance(np.zeros(2, np.uint64), np.zeros(3, np.uint64))

    @settings(max_examples=40)
    @given(
        st.integers(1, 200),
        st.integers(0, 2**32),
    )
    def test_property_symmetry_and_triangle(self, n_bits, seed):
        rng = np.random.default_rng(seed)
        x, y, z = (rng.integers(0, 2, n_bits).astype(np.uint8) for _ in range(3))
        px, py, pz = pack_bits(x), pack_bits(y), pack_bits(z)
        dxy = hamming_distance(px, py)
        assert dxy == hamming_distance(py, px)
        assert dxy <= hamming_distance(px, pz) + hamming_distance(pz, py)


class TestHammingToMany:
    def test_matches_pairwise(self):
        rng = np.random.default_rng(3)
        bits = rng.integers(0, 2, size=(20, 130)).astype(np.uint8)
        packed = pack_bits(bits)
        query = packed[0]
        scan = hamming_to_many(query, packed)
        expected = [hamming_distance(query, row) for row in packed]
        assert scan.tolist() == expected

    def test_word_mismatch_rejected(self):
        with pytest.raises(ValueError):
            hamming_to_many(np.zeros(1, np.uint64), np.zeros((3, 2), np.uint64))

    def test_single_row(self):
        row = pack_bits(np.ones(64, dtype=np.uint8))
        assert hamming_to_many(row, row[None, :]).tolist() == [0]


class TestPopcountOracle:
    """``popcount64`` against an independent per-word reference."""

    EDGE_WORDS = [0, 1, 2**63, 2**64 - 1, 0x5555555555555555]

    @staticmethod
    def _bin_counts(words):
        return [bin(int(w)).count("1") for w in np.ravel(words)]

    @settings(max_examples=30)
    @given(st.integers(0, 2**32), st.sampled_from([(64,), (7, 9), (1, 1)]))
    def test_matches_bin_count_per_word(self, seed, shape):
        rng = np.random.default_rng(seed)
        size = int(np.prod(shape))
        words = rng.integers(0, 2**64, size=size, dtype=np.uint64, endpoint=False)
        # Edge words replace the first draws: zero, one, the high bit alone,
        # all ones, alternating bits.
        edges = np.array(self.EDGE_WORDS[:size], dtype=np.uint64)
        words[: edges.size] = edges
        words = words.reshape(shape)
        counts = popcount64(words)
        assert counts.shape == shape
        assert counts.ravel().tolist() == self._bin_counts(words)


class TestHammingManyToMany:
    def _naive(self, queries_bits, database_bits):
        return np.array(
            [[int((q != d).sum()) for d in database_bits] for q in queries_bits]
        )

    def test_matches_rowwise_and_naive(self):
        rng = np.random.default_rng(5)
        q_bits = rng.integers(0, 2, size=(4, 130)).astype(np.uint8)
        d_bits = rng.integers(0, 2, size=(25, 130)).astype(np.uint8)
        queries, database = pack_bits(q_bits), pack_bits(d_bits)
        rowwise = np.stack([hamming_to_many(q, database) for q in queries])
        batched = hamming_many_to_many(queries, database)
        assert np.array_equal(batched, rowwise)
        assert np.array_equal(batched, self._naive(q_bits, d_bits))

    def test_blocked_scan_equals_unblocked(self):
        rng = np.random.default_rng(6)
        queries = pack_bits(rng.integers(0, 2, size=(3, 200)).astype(np.uint8))
        database = pack_bits(rng.integers(0, 2, size=(50, 200)).astype(np.uint8))
        full = np.stack([hamming_to_many(q, database) for q in queries])
        for block_rows in (None, 1, 7, 49, 50, 1000):
            assert np.array_equal(
                hamming_many_to_many(queries, database, block_rows=block_rows),
                full,
            ), block_rows

    def test_single_query_matches_to_many(self):
        rng = np.random.default_rng(7)
        database = pack_bits(rng.integers(0, 2, size=(10, 64)).astype(np.uint8))
        query = database[3]
        out = hamming_many_to_many(query, database)
        assert out.shape == (1, 10)
        assert np.array_equal(out[0], hamming_to_many(query, database))
        assert out[0, 3] == 0

    def test_word_mismatch_rejected(self):
        with pytest.raises(ValueError):
            hamming_many_to_many(
                np.zeros((2, 1), np.uint64), np.zeros((3, 2), np.uint64)
            )

    def test_bad_block_rows_rejected(self):
        with pytest.raises(ValueError):
            hamming_many_to_many(
                np.zeros((1, 1), np.uint64), np.zeros((2, 1), np.uint64),
                block_rows=0,
            )

    @settings(max_examples=30)
    @given(
        st.integers(0, 2**32),
        st.integers(1, 6),
        st.integers(1, 30),
        st.integers(1, 150),
    )
    def test_property_equals_rowwise_and_naive(self, seed, n_q, n_db, n_bits):
        """Batched == row-wise hamming_to_many == naive unpacked-bit count."""
        rng = np.random.default_rng(seed)
        q_bits = rng.integers(0, 2, size=(n_q, n_bits)).astype(np.uint8)
        d_bits = rng.integers(0, 2, size=(n_db, n_bits)).astype(np.uint8)
        queries, database = pack_bits(q_bits), pack_bits(d_bits)
        block_rows = int(rng.integers(1, n_db + 2))
        batched = hamming_many_to_many(queries, database, block_rows=block_rows)
        rowwise = np.stack([hamming_to_many(q, database) for q in queries])
        assert np.array_equal(batched, rowwise)
        assert np.array_equal(batched, self._naive(q_bits, d_bits))

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32),
        st.integers(1, 9),
        st.integers(1, 14),
        st.integers(0, 300),
        st.sampled_from([None, 1, 7]),
    )
    def test_property_layout_independent(
        self, seed, n_queries, n_words, n_rows, block_rows
    ):
        """Same uint32 matrix whatever memory layout the rows arrive in:
        row-major, the row view of a word-major arena, a column slice of
        a larger word-major arena, every other row."""
        rng = np.random.default_rng(seed)
        queries = rng.integers(0, 2**64, (n_queries, n_words), dtype=np.uint64)
        row_major = rng.integers(0, 2**64, (n_rows, n_words), dtype=np.uint64)
        expected = np.empty((n_queries, n_rows), dtype=np.uint32)
        for i, q in enumerate(queries):
            expected[i] = hamming_to_many(q, row_major)

        word_major = np.ascontiguousarray(row_major.T)
        arena = rng.integers(0, 2**64, (n_words, n_rows + 11), dtype=np.uint64)
        arena[:, 5 : 5 + n_rows] = word_major
        interleaved = rng.integers(
            0, 2**64, (2 * n_rows, n_words), dtype=np.uint64
        )
        interleaved[::2] = row_major
        layouts = {
            "row-major": row_major,
            "word-major view": word_major.T,
            "shard of a word-major arena": arena[:, 5 : 5 + n_rows].T,
            "every other row": interleaved[::2],
        }
        for name, database in layouts.items():
            got = hamming_many_to_many(queries, database, block_rows=block_rows)
            assert got.dtype == np.uint32, name
            assert np.array_equal(got, expected), name

"""Packed bit vectors and fast Hamming distance.

Sketches in Ferret are bit vectors compared with Hamming distance "easily
computed by XOR operations" (section 4.1.1).  We pack bits into
``uint64`` words and count differing bits with numpy's native popcount
(``np.bitwise_count``, numpy >= 2.0) so that streaming over an entire
sketch database (the filtering step) is a handful of numpy operations
rather than a Python loop.
"""

from __future__ import annotations

import threading
from typing import Union

import numpy as np

__all__ = [
    "pack_bits",
    "unpack_bits",
    "hamming_distance",
    "hamming_to_many",
    "hamming_many_to_many",
    "popcount64",
]

_WORD_BITS = 64


def popcount64(words: np.ndarray) -> np.ndarray:
    """Per-element popcount of a ``uint64`` array (any shape).

    ``np.bitwise_count`` (numpy >= 2.0) maps to the hardware popcount
    instruction and releases the GIL, which is what lets the thread
    pool's shard scans overlap.
    """
    return np.bitwise_count(np.asarray(words, dtype=np.uint64)).astype(np.uint32)


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack a ``(n_bits,)`` or ``(rows, n_bits)`` 0/1 array into uint64 words.

    The last word is zero-padded, so two packings of equal-length bit
    strings are always comparable word-by-word.
    """
    arr = np.asarray(bits)
    if arr.ndim == 1:
        return _pack_rows(arr[None, :])[0]
    if arr.ndim == 2:
        return _pack_rows(arr)
    raise ValueError("bits must be 1-D or 2-D")


def _pack_rows(rows: np.ndarray) -> np.ndarray:
    n_rows, n_bits = rows.shape
    out = np.zeros((n_rows, (n_bits + _WORD_BITS - 1) // _WORD_BITS), dtype=np.uint64)
    # np.packbits is big-endian within bytes; consistency is all we need.
    # Its bytes go straight into the words, whose zeroed tail pads.
    out.view(np.uint8)[:, : (n_bits + 7) // 8] = np.packbits(rows.astype(np.uint8) & 1, axis=1)
    return out


def unpack_bits(words: np.ndarray, n_bits: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`; returns a 0/1 ``uint8`` array."""
    arr = np.asarray(words, dtype=np.uint64)
    single = arr.ndim == 1
    if single:
        arr = arr[None, :]
    as_bytes = np.ascontiguousarray(arr).view(np.uint8)
    bits = np.unpackbits(as_bytes, axis=1)[:, :n_bits]
    return bits[0] if single else bits


def hamming_distance(
    a: Union[np.ndarray, "np.uint64"], b: Union[np.ndarray, "np.uint64"]
) -> int:
    """Hamming distance between two packed bit vectors of equal word length."""
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return int(popcount64(np.bitwise_xor(a, b)).sum())


def hamming_to_many(query: np.ndarray, database: np.ndarray) -> np.ndarray:
    """Hamming distances from one packed sketch to every row of ``database``.

    ``query`` is ``(n_words,)``; ``database`` is ``(n_rows, n_words)``.
    Returns a ``(n_rows,)`` ``uint32`` array.  This is the inner loop of
    the filtering unit: stream through all sketches with XOR + popcount.
    """
    query = np.asarray(query, dtype=np.uint64)
    database = np.atleast_2d(np.asarray(database, dtype=np.uint64))
    if database.shape[1] != query.shape[0]:
        raise ValueError(
            f"word-length mismatch: query {query.shape[0]} vs "
            f"database {database.shape[1]}"
        )
    xored = np.bitwise_xor(database, query[None, :])
    return popcount64(xored).sum(axis=1, dtype=np.uint32)


# Cap on the blocked working set of the many-to-many kernel: summed over
# the per-word passes of one block, the XOR intermediates amount to
# (n_queries, block_rows, n_words) uint64.  16 MiB keeps the per-word
# slice cache-friendly while amortizing the per-block dispatch.
_BLOCK_BYTES = 16 << 20

# Per-thread scratch for the blocked scan: the XOR intermediate and its
# per-word popcounts are reused across blocks (and across calls) rather
# than allocated per word pass.  Thread-local because concurrent scans
# (the thread pool's shards, query_many's ranking pool, the server's
# connection threads) must not share buffers.
_scratch = threading.local()


def _scratch_views(n_queries: int, block_cols: int):
    """``(xor, counts)`` reusable views; both hold garbage on return."""
    xor = getattr(_scratch, "xor", None)
    if (
        xor is None
        or xor.shape[0] < n_queries
        or xor.shape[1] < block_cols
    ):
        rows = max(n_queries, 0 if xor is None else xor.shape[0])
        cols = max(block_cols, 0 if xor is None else xor.shape[1])
        _scratch.xor = xor = np.empty((rows, cols), dtype=np.uint64)
        _scratch.counts = np.empty((rows, cols), dtype=np.uint8)
    return (
        xor[:n_queries, :block_cols],
        _scratch.counts[:n_queries, :block_cols],
    )


def hamming_many_to_many(
    queries: np.ndarray,
    database: np.ndarray,
    block_rows: int = None,
) -> np.ndarray:
    """Hamming distances from every query sketch to every database row.

    ``queries`` is ``(n_queries, n_words)``; ``database`` is
    ``(n_rows, n_words)``.  Returns ``(n_queries, n_rows)`` ``uint32``.
    The scan is blocked over database rows and accumulated one sketch
    word at a time: each step XORs a ``(n_queries, block_rows)`` slice
    and adds its popcount straight into the output block, so the largest
    intermediate is 2-D regardless of word count and stays bounded
    (about ``_BLOCK_BYTES`` across a block's word passes) no matter how
    large the sketch database is; ``block_rows`` overrides the automatic
    block size.  One fused pass replaces ``n_queries`` separate
    :func:`hamming_to_many` scans, with the XOR working set kept small
    enough to live in cache while every query visits a database block.

    Each word pass streams one *word row* of the block, so the kernel
    reads ``database`` word-major.  The segment store and the thread
    pool keep their arenas in that layout and hand out the transposed
    ``(n_rows, n_words)`` view, which is scanned in place; any other
    array (row-major, every-other-row, ...) is copied word-major one
    block at a time.  The result does not depend on the layout.
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=np.uint64))
    database = np.atleast_2d(np.asarray(database, dtype=np.uint64))
    if database.shape[1] != queries.shape[1]:
        raise ValueError(
            f"word-length mismatch: queries {queries.shape[1]} vs "
            f"database {database.shape[1]}"
        )
    n_queries, n_words = queries.shape
    n_rows = database.shape[0]
    # The first word pass overwrites its output block, so no zero-fill.
    out = (np.empty if n_words else np.zeros)((n_queries, n_rows), dtype=np.uint32)
    if block_rows is None:
        block_rows = max(1, _BLOCK_BYTES // max(1, n_queries * n_words * 8))
    elif block_rows <= 0:
        raise ValueError("block_rows must be positive")
    for start in range(0, n_rows, block_rows):
        block = database[start : start + block_rows].T
        if block.shape[1] > 1 and block.strides[1] != block.itemsize:
            # Foreign layout: a strided word row would turn each pass
            # from streaming into gathering on wide sketches.
            block = np.ascontiguousarray(block)
        total = out[:, start : start + block.shape[1]]
        xored, counts = _scratch_views(n_queries, block.shape[1])
        for word in range(n_words):
            np.bitwise_xor(queries[:, word, None], block[word][None, :], out=xored)
            if word == 0:
                np.bitwise_count(xored, out=total)
            else:
                np.bitwise_count(xored, out=counts)
                np.add(total, counts, out=total)
    return out

"""Packed bit vectors and fast Hamming distance.

Sketches in Ferret are bit vectors compared with Hamming distance "easily
computed by XOR operations" (section 4.1.1).  We pack bits into
``uint64`` words and count differing bits with numpy's native popcount
(``np.bitwise_count``, numpy >= 2.0) so that streaming over an entire
sketch database (the filtering step) is a handful of numpy operations
rather than a Python loop.  The many-to-many scan runs on a small C
kernel (``_hamming.c``, compiled at import; see
:func:`hamming_many_to_many`), which also keeps the filter's per-row
top-k without building a distance row (:func:`hamming_topk`).
:func:`hamming_to_many` stays numpy only, the oracle the kernel is
checked against.
"""

from __future__ import annotations

import ctypes
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from . import native

__all__ = [
    "pack_bits",
    "unpack_bits",
    "hamming_distance",
    "hamming_to_many",
    "hamming_many_to_many",
    "hamming_topk",
    "popcount64",
    "topk_in_place",
]

_WORD_BITS = 64


def popcount64(words: np.ndarray) -> np.ndarray:
    """Per-element popcount of a ``uint64`` array (any shape).

    ``np.bitwise_count`` (numpy >= 2.0) maps to the hardware popcount
    instruction and releases the GIL, so concurrent scans overlap.
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


# ----------------------------------------------------------------------
# Compiled kernel: built at import, cached per user
# ----------------------------------------------------------------------
_P, _N = ctypes.c_void_p, ctypes.c_ssize_t
_SIGNATURES = {  # symbol: (restype, argtypes)
    "hamming_block": (None, (_P, _N, _N, _N, _P, _N, _P, _N)),
    "hamming_topk": (None, (_P, _N, _N, _N, _P, _P, _N, _N, _P, _P, _P)),
}


class _Kernel(NamedTuple):
    """The two entry points of one loaded ``_hamming.c``."""

    block: Callable
    topk: Callable


def _load_kernel(
    compiler: Optional[Sequence[str]] = None, cache_dir: Optional[Path] = None
) -> _Kernel:
    """The C ``hamming_block`` and ``hamming_topk`` (see
    :func:`repro.core.native.load`, which raises ``ImportError`` where
    they cannot be built or loaded)."""
    return _Kernel(*native.load("_hamming.c", _SIGNATURES, compiler, cache_dir))


_KERNEL = _load_kernel()


def _in_place(block: np.ndarray) -> bool:
    # A word-major block whose word rows are contiguous and aligned: the
    # kernel streams it without a copy.
    return (
        (block.shape[1] <= 1 or block.strides[1] == block.itemsize)
        and block.strides[0] % block.itemsize == 0
        and block.flags.aligned
    )


def hamming_many_to_many(
    queries: np.ndarray,
    database: np.ndarray,
    block_rows: int = None,
) -> np.ndarray:
    """Hamming distances from every query sketch to every database row.

    ``queries`` is ``(n_queries, n_words)``; ``database`` is
    ``(n_rows, n_words)``.  Returns ``(n_queries, n_rows)`` ``uint32``.
    The kernel reads the database word-major: the segment store keeps its
    arena in that layout and hands out the transposed ``(n_rows,
    n_words)`` view, which is scanned in place; any other array
    (row-major, every-other-row, reversed, ...) is copied word-major one
    block at a time.  ``block_rows`` sets that block (default: the whole
    database in one call).  The result does not depend on the layout or
    the block size.  The kernel scans each block in tiles that every
    query row visits while they are in cache, so the block is read once.
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=np.uint64))
    database = np.atleast_2d(np.asarray(database, dtype=np.uint64))
    if database.shape[1] != queries.shape[1]:
        raise ValueError(
            f"word-length mismatch: queries {queries.shape[1]} vs "
            f"database {database.shape[1]}"
        )
    queries = np.ascontiguousarray(queries)
    n_queries, n_words = queries.shape
    n_rows = database.shape[0]
    # The kernel overwrites each output block, so no zero-fill.
    out = (np.empty if n_words else np.zeros)((n_queries, n_rows), dtype=np.uint32)
    if block_rows is None:
        block_rows = max(1, n_rows)
    elif block_rows <= 0:
        raise ValueError("block_rows must be positive")
    for start in range(0, n_rows, block_rows):
        block = database[start : start + block_rows].T
        if not _in_place(block):
            # Foreign layout: a strided word row would turn each pass
            # from streaming into gathering on wide sketches.
            block = np.ascontiguousarray(block)
        total = out[:, start : start + block.shape[1]]
        _KERNEL.block(
            block.ctypes.data, block.strides[0] // block.itemsize,
            n_words, block.shape[1],
            queries.ctypes.data, n_queries, total.ctypes.data, n_rows,
        )
    return out


def topk_in_place(database: np.ndarray) -> bool:
    """Whether :func:`hamming_topk` can scan ``database``: the
    ``(n_rows, n_words)`` view of a word-major ``uint64`` arena (what
    ``SegmentStore`` hands out)."""
    return (
        database.ndim == 2
        and database.dtype == np.uint64
        and _in_place(database.T)
    )


def hamming_topk(
    queries: np.ndarray,
    database: np.ndarray,
    k: int,
    dead: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per query row, the ``k`` nearest live database rows in one compiled
    pass: ``(rows int64, dists uint32)``, each ``(n_queries, k)``.

    ``dead`` is a boolean mask of tombstoned rows (``None``: every row is
    live); a dead row is never selected.  Ties at the k-th distance go to
    the smallest rows, the rule of ``filtering.select_k_smallest``; the
    order within a query row is unspecified.  No distance row is built.
    ``database`` must be laid out as :func:`topk_in_place` says, and
    ``k`` above the live row count is a ``ValueError``.
    """
    if not topk_in_place(database):
        raise ValueError("hamming_topk needs a word-major arena")
    queries = np.ascontiguousarray(np.atleast_2d(queries), dtype=np.uint64)
    n_queries, n_words = queries.shape
    words = database.T
    if words.shape[0] != n_words:
        raise ValueError(
            f"word-length mismatch: queries {n_words} vs database {words.shape[0]}"
        )
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    rows = np.empty((n_queries, k), dtype=np.int64)
    dists = np.empty((n_queries, k), dtype=np.uint32)
    if k == 0 or n_queries == 0:
        return rows, dists
    if dead is not None:
        dead = np.ascontiguousarray(dead, dtype=np.bool_).view(np.uint8)
        if dead.shape != (words.shape[1],):
            raise ValueError("dead must hold one flag per database row")
    fill = ctypes.c_ssize_t(0)
    _KERNEL.topk(
        words.ctypes.data, words.strides[0] // words.itemsize,
        n_words, words.shape[1], None if dead is None else dead.ctypes.data,
        queries.ctypes.data, n_queries, k,
        rows.ctypes.data, dists.ctypes.data, ctypes.byref(fill),
    )
    if fill.value < k:
        raise ValueError(f"k = {k} exceeds the {fill.value} live rows")
    return rows, dists

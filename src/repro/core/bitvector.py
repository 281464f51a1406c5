"""Packed bit vectors and fast Hamming distance.

Sketches in Ferret are bit vectors compared with Hamming distance "easily
computed by XOR operations" (section 4.1.1).  We pack bits into
``uint64`` words and count differing bits with numpy's native popcount
(``np.bitwise_count``, numpy >= 2.0) so that streaming over an entire
sketch database (the filtering step) is a handful of numpy operations
rather than a Python loop.  The many-to-many scan runs on a small C
kernel (``_hamming.c``) when one can be compiled on this host, and on
the same per-word numpy loop otherwise; see :func:`hamming_many_to_many`.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shlex
import stat
import subprocess
import sysconfig
import tempfile
import threading
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

import numpy as np

__all__ = [
    "pack_bits",
    "unpack_bits",
    "hamming_distance",
    "hamming_to_many",
    "hamming_many_to_many",
    "popcount64",
    "scan_kernel",
]

_WORD_BITS = 64


def popcount64(words: np.ndarray) -> np.ndarray:
    """Per-element popcount of a ``uint64`` array (any shape).

    ``np.bitwise_count`` (numpy >= 2.0) maps to the hardware popcount
    instruction and releases the GIL, which is what lets the two halves
    of a split filter scan overlap.
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


# Cap on the blocked working set of the numpy loop: summed over the
# per-word passes of one block, the XOR intermediates amount to
# (n_queries, block_rows, n_words) uint64.  16 MiB keeps the per-word
# slice cache-friendly while amortizing the per-block dispatch.  The
# compiled kernel tiles each block itself and has no intermediates.
_BLOCK_BYTES = 16 << 20

# Per-thread scratch for the numpy loop: the XOR intermediate and its
# per-word popcounts are reused across blocks (and across calls) rather
# than allocated per word pass.  Thread-local because concurrent scans
# (the scan split's two halves, query_many's ranking pool, the server's
# connection threads) must not share buffers.
_scratch = threading.local()


def _scratch_views(n_queries: int, block_cols: int):
    """``(xor, counts)`` reusable ``(n_queries, block_cols)`` views; both
    hold garbage on return.  Each is cut from one flat buffer sized to
    the largest ``n_queries * block_cols`` this thread has seen, so a
    scan of many query rows followed by one of a wide block keeps the
    larger of the two, not their product."""
    size = n_queries * block_cols
    xor = getattr(_scratch, "xor", None)
    if xor is None or xor.size < size:
        _scratch.xor = xor = np.empty(size, dtype=np.uint64)
        _scratch.counts = np.empty(size, dtype=np.uint8)
    shape = (n_queries, block_cols)
    return xor[:size].reshape(shape), _scratch.counts[:size].reshape(shape)


# ----------------------------------------------------------------------
# Compiled kernel: built at import, cached per user, numpy loop otherwise
# ----------------------------------------------------------------------
_CFLAGS = ("-O3", "-march=native", "-shared", "-fPIC")
_ARGTYPES = (
    ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_ssize_t, ctypes.c_ssize_t,
    ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_void_p, ctypes.c_ssize_t,
)


def _default_cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):  # unset, empty or relative: the XDG default
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return Path(base) / "repro"


def _cpu_flags() -> bytes:
    """The ``flags`` line of /proc/cpuinfo (empty where there is none)."""
    try:
        with open("/proc/cpuinfo", "rb") as info:
            for line in info:
                if line.startswith(b"flags"):
                    return line
    except OSError:
        pass
    return b""


def _check_private(path: Path) -> None:
    """Refuse a kernel that another user could have swapped: one not
    owned by this user, or in a directory group or others can write."""
    uid = os.getuid()
    folder = os.stat(path.parent)
    if folder.st_uid != uid or folder.st_mode & (stat.S_IWGRP | stat.S_IWOTH):
        raise PermissionError(f"{path.parent} is not private to uid {uid}")
    info = os.lstat(path)
    if (
        info.st_uid != uid
        or not stat.S_ISREG(info.st_mode)
        or info.st_mode & (stat.S_IWGRP | stat.S_IWOTH)
    ):
        raise PermissionError(f"{path} is not a private file of uid {uid}")


def _compile(argv: Sequence[str], source: bytes, path: Path) -> None:
    """Compile ``source`` into a temp file beside ``path``, then rename it
    into place, so processes that build at once never load half a file."""
    fd, tmp = tempfile.mkstemp(prefix=".hamming-", suffix=".so", dir=path.parent)
    os.close(fd)
    try:
        subprocess.run(
            [*argv, "-x", "c", "-", "-o", tmp],
            input=source, check=True, capture_output=True, timeout=120,
        )
        os.chmod(tmp, 0o700)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _load_kernel(
    compiler: Optional[Sequence[str]] = None, cache_dir: Optional[Path] = None
) -> Optional[Callable]:
    """The C ``hamming_block``, compiled on first use into a per-user
    cache, or ``None`` where it cannot be built or loaded.

    The file name hashes the source, the compiler argv, the machine and
    the CPU flags, so ``-march=native`` code is only ever loaded on the
    CPU it was built for.
    """
    if not compiler:
        compiler = shlex.split(sysconfig.get_config_var("CC") or "cc")
    argv = [*compiler, *_CFLAGS]
    directory = cache_dir or _default_cache_dir()
    try:
        source = (Path(__file__).parent / "_hamming.c").read_bytes()
        key = hashlib.sha256(b"\0".join([
            source, shlex.join(argv).encode(), platform.machine().encode(), _cpu_flags(),
        ])).hexdigest()
        directory.mkdir(mode=0o700, parents=True, exist_ok=True)
        path = directory / f"hamming-{key[:32]}.so"
        if not path.exists():
            _compile(argv, source, path)
        _check_private(path)
        kernel = ctypes.CDLL(str(path)).hamming_block
    except (OSError, subprocess.SubprocessError):
        return None
    kernel.argtypes = _ARGTYPES
    kernel.restype = None
    return kernel


_KERNEL = _load_kernel()


def scan_kernel() -> str:
    """Which kernel :func:`hamming_many_to_many` runs: ``compiled`` or
    ``numpy`` (no compiler, or the build or load failed)."""
    return "numpy" if _KERNEL is None else "compiled"


def _in_place(block: np.ndarray) -> bool:
    # A word-major block whose word rows are contiguous and aligned: the
    # kernel (and each numpy word pass) streams it without a copy.
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
    The scan is blocked over database rows; ``block_rows`` overrides the
    automatic block size.  Each block is read word-major: the segment
    store keeps its arena in that layout and hands out the transposed
    ``(n_rows, n_words)`` view, which is scanned in place; any other
    array (row-major, every-other-row, reversed, ...) is copied
    word-major one block at a time.  The result does not depend on the
    layout, the block size or the kernel.

    Where the C kernel is loaded (see :func:`scan_kernel`) it scans each
    block in tiles that every query row visits while they are in cache,
    so the block is read once.  Otherwise each block is accumulated one
    sketch word at a time: XOR a ``(n_queries, block_rows)`` slice and
    add its popcount straight into the output block, so the largest
    intermediate is 2-D and stays about ``_BLOCK_BYTES``.
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
    kernel = _KERNEL
    if kernel is not None:
        queries = np.ascontiguousarray(queries)
    # Both kernels overwrite each output block, so no zero-fill.
    out = (np.empty if n_words else np.zeros)((n_queries, n_rows), dtype=np.uint32)
    if block_rows is None:
        block_rows = max(1, _BLOCK_BYTES // max(1, n_queries * n_words * 8))
    elif block_rows <= 0:
        raise ValueError("block_rows must be positive")
    for start in range(0, n_rows, block_rows):
        block = database[start : start + block_rows].T
        if not _in_place(block):
            # Foreign layout: a strided word row would turn each pass
            # from streaming into gathering on wide sketches.
            block = np.ascontiguousarray(block)
        total = out[:, start : start + block.shape[1]]
        if kernel is not None:
            kernel(
                block.ctypes.data, block.strides[0] // block.itemsize,
                n_words, block.shape[1],
                queries.ctypes.data, n_queries, total.ctypes.data, n_rows,
            )
            continue
        xored, counts = _scratch_views(n_queries, block.shape[1])
        for word in range(n_words):
            np.bitwise_xor(queries[:, word, None], block[word][None, :], out=xored)
            if word == 0:
                np.bitwise_count(xored, out=total)
            else:
                np.bitwise_count(xored, out=counts)
                np.add(total, counts, out=total)
    return out

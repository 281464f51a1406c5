"""The compiled Hamming kernel: edge shapes, threads, and its loader.

Every shape test is checked against ``hamming_to_many``, which is numpy
only and shares no code with the C kernel.  The filter's full scan (the
fused top-k pass, ``bitvector.hamming_topk``) has its ``(distance,
row)`` sets checked against ``select_k_smallest`` over
``hamming_to_many``, at ties across the kernel's 32-row chunks and
2,048-row tiles and with tombstones.  The loader tests build both C
sources (``_hamming.c`` and ``_emd.c``) into a temporary cache
directory: a compiler that fails or does not exist, a missing symbol,
and a kernel file another user could have written each raise
``ImportError``, naming the compiler command or the file.
"""

import importlib.resources
import os
import re
import threading
import tomllib
from pathlib import Path

import numpy as np
import pytest

from repro.core import (
    FilterParams,
    SimilaritySearchEngine,
    SketchParams,
    bitvector,
    native,
    transport,
)
from repro.core.bitvector import hamming_many_to_many, hamming_to_many
from repro.core.filtering import select_k_smallest
from repro.datatypes.bulk import bulk_image_dataset
from repro.datatypes.image import make_image_plugin

ROOT = Path(__file__).resolve().parents[2]


def _rowwise(queries, database):
    out = np.empty((len(queries), len(database)), dtype=np.uint32)
    for i, q in enumerate(queries):
        out[i] = hamming_to_many(q, database)
    return out


def _words(rng, *shape):
    return rng.integers(0, 2**64, shape, dtype=np.uint64)


# ----------------------------------------------------------------------
# Shapes
# ----------------------------------------------------------------------
def test_zero_rows():
    queries = _words(np.random.default_rng(0), 3, 4)
    out = hamming_many_to_many(queries, np.zeros((0, 4), dtype=np.uint64))
    assert out.shape == (3, 0) and out.dtype == np.uint32


def test_one_row():
    rng = np.random.default_rng(1)
    queries, row = _words(rng, 2, 13), _words(rng, 1, 13)
    assert np.array_equal(hamming_many_to_many(queries, row), _rowwise(queries, row))


@pytest.mark.parametrize("n_rows", [2047, 2048, 2049])
def test_rows_at_the_tile_edge(n_rows):
    """The kernel works in 2,048-row tiles; the last one may be partial."""
    rng = np.random.default_rng(n_rows)
    queries = _words(rng, 3, 13)
    arena = _words(rng, 13, n_rows)  # word-major, scanned in place
    want = _rowwise(queries, np.ascontiguousarray(arena.T))
    assert np.array_equal(hamming_many_to_many(queries, arena.T), want)
    assert np.array_equal(hamming_many_to_many(queries, arena.T, block_rows=1000), want)


def test_negative_stride_views():
    """Reversed rows (copied word-major per block) and reversed words
    (a negative word stride, scanned in place) give the same matrix."""
    rng = np.random.default_rng(3)
    queries = _words(rng, 2, 5)
    arena = _words(rng, 5, 300)
    for database, query_words in (
        (arena.T[::-1], queries),
        (arena[::-1].T, queries[:, ::-1]),
        (np.ascontiguousarray(arena.T)[::-1], queries),
    ):
        want = _rowwise(query_words, np.ascontiguousarray(database))
        assert np.array_equal(hamming_many_to_many(query_words, database), want)
        assert np.array_equal(
            hamming_many_to_many(query_words, database, block_rows=7), want
        )


def test_all_ones_words():
    """32 words of all ones against zero: distance 2,048 on every row."""
    database = np.full((5, 32), np.uint64(2**64 - 1))
    queries = np.zeros((2, 32), dtype=np.uint64)
    assert (hamming_many_to_many(queries, database) == 2048).all()
    assert (hamming_many_to_many(database[:1], database) == 0).all()


def test_two_threads_match_a_serial_scan():
    """The kernel runs outside the GIL; two threads scanning at once
    must each get the serial answer."""
    rng = np.random.default_rng(4)
    arena = _words(rng, 13, 20_000)
    queries = [_words(rng, 1 + i, 13) for i in range(2)]
    want = [hamming_many_to_many(q, arena.T) for q in queries]
    got = [[], []]
    start = threading.Barrier(2)

    def scan(i):
        start.wait(timeout=10)
        for _ in range(20):
            got[i].append(hamming_many_to_many(queries[i], arena.T))

    threads = [threading.Thread(target=scan, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()
    for i in range(2):
        assert len(got[i]) == 20
        assert all(np.array_equal(out, want[i]) for out in got[i])


# ----------------------------------------------------------------------
# The full scan's top-k against the numpy oracle
# ----------------------------------------------------------------------
def _oracle(queries, database, dead, k):
    """Per query row, the sorted (distance, row) pairs that
    ``select_k_smallest`` picks over ``hamming_to_many``."""
    database = np.ascontiguousarray(database)
    out = []
    for query in queries:
        dists = hamming_to_many(query, database).astype(np.int64)
        dists[dead] = np.iinfo(np.int64).max
        picked = select_k_smallest(dists[None, :], k)[0]
        out.append(sorted(zip(dists[picked].tolist(), picked.tolist())))
    return out


def _nearest(queries, database, dead, k):
    rows, dists = bitvector.hamming_topk(queries, database, k, dead)
    assert rows.shape == dists.shape == (len(queries), k)
    return [sorted(zip(d.tolist(), r.tolist())) for r, d in zip(rows, dists)]


def _tie_arena(n_rows, near_rows):
    """Word-major arena of two words a row: ``near_rows`` at distance 2
    from the zero sketch, every other row at distance 9."""
    arena = np.zeros((2, n_rows), dtype=np.uint64)
    arena[0] = 0b111111111
    arena[0, near_rows] = 0b11
    return arena


@pytest.mark.parametrize("edge", [32, 2048])
@pytest.mark.parametrize("n_queries", [1, 4])
def test_topk_ties_across_chunk_and_tile_edges(edge, n_queries):
    """Eight rows tie at distance 2, four each side of a 32-row chunk
    edge or the 2,048-row tile edge: the k-th slot goes to the smallest
    row whatever side of the edge it falls on."""
    near = np.arange(edge - 4, edge + 4)
    arena = _tie_arena(edge + 100, near)
    queries = np.zeros((n_queries, 2), dtype=np.uint64)
    dead = np.zeros(arena.shape[1], dtype=bool)
    for k in (1, 3, 4, 5, 8, 9):
        got = _nearest(queries, arena.T, dead, k)
        assert got == _oracle(queries, arena.T, dead, k)
        assert got[0][: min(k, 8)] == [(2, int(r)) for r in near[:k]]


DEAD_ROWS = {
    "none": [],
    "first": [0],
    "last": [-1],
    "whole-chunks": slice(32, 96),
    "whole-tile": slice(0, 2048),
}


@pytest.mark.parametrize("dead_rows", DEAD_ROWS, ids=list(DEAD_ROWS))
@pytest.mark.parametrize("n_queries", [1, 4])
def test_topk_matches_select_k_smallest(dead_rows, n_queries):
    """Few-bit words (distances 0-6, ties everywhere) over 2 tiles and a
    bit; tombstones copy the first query row, so a dead row that got in
    would be its nearest.  k runs from 1 to the live row count."""
    rng = np.random.default_rng(n_queries)
    n_rows = 4100
    arena = rng.integers(0, 4, (3, n_rows)).astype(np.uint64)
    queries = arena[:, rng.integers(0, n_rows, n_queries)].T.copy()
    dead = np.zeros(n_rows, dtype=bool)
    dead[DEAD_ROWS[dead_rows]] = True
    arena[:, dead] = queries[0][:, None]
    live = n_rows - int(dead.sum())
    for k in (1, 2, 31, 32, 33, 64, 2048, live):
        got = _nearest(queries, arena.T, dead, k)
        assert got == _oracle(queries, arena.T, dead, k), k
        assert not any(dead[r] for pairs in got for _, r in pairs)


def test_topk_two_threads_at_once():
    """Concurrent scans each get the serial answer: the compiled pass
    keeps its tile and heaps on the caller's stack and output."""
    rng = np.random.default_rng(8)
    arena = rng.integers(0, 2**64, (13, 20_000), dtype=np.uint64)
    arena[:, 5000:5100] = arena[:, :100]  # duplicated rows: exact ties
    dead = np.zeros(arena.shape[1], dtype=bool)
    dead[::97] = True
    queries = [arena[:, : i + 1].T.copy() for i in range(2)]
    want = [_oracle(q, arena.T, dead, 64) for q in queries]
    got = [[], []]
    start = threading.Barrier(2)

    def scan(i):
        start.wait(timeout=10)
        for _ in range(20):
            got[i].append(_nearest(queries[i], arena.T, dead, 64))

    threads = [threading.Thread(target=scan, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()
    for i in range(2):
        assert got[i] == [want[i]] * 20


def test_topk_rejects_what_it_cannot_fill():
    """k above the live rows raises, and so does a foreign layout."""
    arena = np.zeros((1, 10), dtype=np.uint64)
    dead = np.zeros(10, dtype=bool)
    dead[:3] = True
    query = np.zeros((1, 1), dtype=np.uint64)
    rows, _ = bitvector.hamming_topk(query, arena.T, 7, dead)
    assert sorted(rows[0].tolist()) == list(range(3, 10))
    with pytest.raises(ValueError, match="live rows"):
        bitvector.hamming_topk(query, arena.T, 8, dead)
    with pytest.raises(ValueError, match="word-major"):
        bitvector.hamming_topk(query, np.ascontiguousarray(arena.T)[::2], 1)
    assert bitvector.hamming_topk(query, arena.T, 0)[0].shape == (1, 0)


# ----------------------------------------------------------------------
# Loader: every failure raises ImportError, foreign files are refused.
# Every test runs over both C sources, each through its module's loader.
# ----------------------------------------------------------------------
LOADERS = {"hamming": bitvector._load_kernel, "emd": transport._load_kernel}
MODULES = {"hamming": bitvector, "emd": transport}


@pytest.mark.parametrize("compiler", [["false"], ["/nonexistent/ferret-cc"]])
def test_failed_build_raises_import_error(tmp_path, compiler):
    cache = tmp_path / "cache"
    for load in LOADERS.values():
        with pytest.raises(ImportError, match=re.escape(compiler[0])):
            load(compiler, cache)
    assert list(cache.iterdir()) == []  # the temp files are gone too


def test_import_error_quotes_the_compilers_stderr(tmp_path):
    # The shell expands $((6 * 7)), so only the compiler's stderr can
    # hold "ferret-cc-42"; the argv holds the unexpanded text.
    compiler = ["sh", "-c", "echo ferret-cc-$((6 * 7)) >&2; exit 1", "cc"]
    for load in LOADERS.values():
        with pytest.raises(ImportError, match="ferret-cc-42") as raised:
            load(compiler, tmp_path / "cache")
        assert "ferret-cc-$((6 * 7))" in str(raised.value)


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    """Both kernels compiled once into one private cache directory:
    (dir, {stem: file}).  A test that changes the directory restores it."""
    cache = tmp_path_factory.mktemp("built") / "cache"
    for load in LOADERS.values():
        load(cache_dir=cache)
    assert os.stat(cache).st_mode & 0o777 == 0o700
    paths = {}
    for stem in LOADERS:
        (paths[stem],) = cache.glob(f"{stem}-*.so")
    return cache, paths


def test_a_missing_symbol_raises_import_error(built, monkeypatch):
    """Every entry point comes from one library, or none is used."""
    cache, _ = built
    for stem, load in LOADERS.items():
        with monkeypatch.context() as patch:
            patch.setitem(MODULES[stem]._SIGNATURES, f"{stem}_missing", (None, ()))
            with pytest.raises(ImportError, match=f"{stem}_missing"):
                load(cache_dir=cache)
        load(cache_dir=cache)


def test_cached_kernel_is_reused(built):
    cache, paths = built
    mtimes = {stem: path.stat().st_mtime_ns for stem, path in paths.items()}
    for stem, load in LOADERS.items():
        load(cache_dir=cache)
        assert paths[stem].stat().st_mtime_ns == mtimes[stem]
    assert sorted(cache.glob("*")) == sorted(paths.values())


def test_file_owned_by_another_user_is_refused(built, monkeypatch):
    cache, _ = built
    monkeypatch.setattr(native.os, "getuid", lambda: os.stat(cache).st_uid + 1)
    for load in LOADERS.values():
        with pytest.raises(ImportError, match=re.escape(str(cache))):
            load(cache_dir=cache)


def test_library_of_another_user_in_our_directory_is_refused(built, monkeypatch):
    # The directory is ours and only the library's owner differs, so the
    # refusal has to come from the file's own check.
    cache, paths = built
    real_lstat = os.lstat

    def lstat(path):
        info = real_lstat(path)
        if Path(path) in paths.values():
            fields = list(info[:10])
            fields[4] += 1  # st_uid
            return os.stat_result(fields)
        return info

    monkeypatch.setattr(native.os, "lstat", lstat)
    for stem, load in LOADERS.items():
        with pytest.raises(ImportError, match=re.escape(f"{paths[stem]} is not a private file")):
            load(cache_dir=cache)


@pytest.mark.parametrize("mode", [0o770, 0o702])
def test_directory_others_can_write_is_refused(built, mode):
    cache, _ = built
    os.chmod(cache, mode)
    for load in LOADERS.values():
        with pytest.raises(ImportError, match=re.escape(f"{cache} is not private")):
            load(cache_dir=cache)
    os.chmod(cache, 0o700)
    for load in LOADERS.values():
        load(cache_dir=cache)


def test_kernel_source_ships_as_package_data():
    symbols = {"_hamming.c": MODULES["hamming"], "_emd.c": MODULES["emd"]}
    with open(ROOT / "pyproject.toml", "rb") as handle:
        package_data = tomllib.load(handle)["tool"]["setuptools"]["package-data"]
    for name, module in symbols.items():
        source = importlib.resources.files("repro.core").joinpath(name)
        assert source.is_file()
        for symbol in module._SIGNATURES:
            assert symbol.encode() in source.read_bytes()
        assert f"core/{name}" in package_data["repro"]


def test_no_build_or_load_after_import(monkeypatch):
    """Both libraries are built and opened when ``repro.core`` is
    imported: a set-up and a query afterwards compile and open nothing."""
    def refuse(*args, **kwargs):
        raise AssertionError("a kernel was built or opened after import")

    monkeypatch.setattr(native.subprocess, "run", refuse)
    monkeypatch.setattr(native.ctypes, "CDLL", refuse)
    dataset = bulk_image_dataset(60, seed=3)
    plugin = make_image_plugin()
    with SimilaritySearchEngine(
        plugin, SketchParams(128, plugin.meta, seed=0), FilterParams()
    ) as engine:
        engine.insert_many(list(dataset))
        assert engine.query_by_id(0, top_k=5)


def test_no_fused_multiply_add():
    """A contracted a * b + c rounds once, not twice: the EMD kernels
    would no longer give the bits of numpy's sums and of the reference
    solver."""
    assert "-ffp-contract=off" in native._CFLAGS

"""The compiled Hamming kernel: edge shapes, threads, and its loader.

Every shape test runs on both kernels (the ``scan_kernel`` fixture) and
is checked against ``hamming_to_many``, which is numpy only and shares
no code with the C kernel.  The loader tests build into a temporary
cache directory: a compiler that fails or does not exist leaves the scan
on numpy and raises nothing, and a kernel file another user could have
written is refused.
"""

import importlib.resources
import os
import threading
import tomllib
from pathlib import Path

import numpy as np
import pytest

from repro.core import FilterParams, SimilaritySearchEngine, SketchParams, bitvector
from repro.core.bitvector import hamming_many_to_many, hamming_to_many
from repro.core.types import meta_from_dataset
from repro.datatypes.bulk import bulk_shape_dataset
from repro.datatypes.shape import make_shape_plugin
from repro.server import CommandProcessor, parse_command

ROOT = Path(__file__).resolve().parents[2]


def _rowwise(queries, database):
    out = np.empty((len(queries), len(database)), dtype=np.uint32)
    for i, q in enumerate(queries):
        out[i] = hamming_to_many(q, database)
    return out


def _words(rng, *shape):
    return rng.integers(0, 2**64, shape, dtype=np.uint64)


# ----------------------------------------------------------------------
# Shapes, on both kernels
# ----------------------------------------------------------------------
def test_zero_rows(scan_kernel):
    queries = _words(np.random.default_rng(0), 3, 4)
    out = hamming_many_to_many(queries, np.zeros((0, 4), dtype=np.uint64))
    assert out.shape == (3, 0) and out.dtype == np.uint32


def test_one_row(scan_kernel):
    rng = np.random.default_rng(1)
    queries, row = _words(rng, 2, 13), _words(rng, 1, 13)
    assert np.array_equal(hamming_many_to_many(queries, row), _rowwise(queries, row))


@pytest.mark.parametrize("n_rows", [2047, 2048, 2049])
def test_rows_at_the_tile_edge(scan_kernel, n_rows):
    """The kernel works in 2,048-row tiles; the last one may be partial."""
    rng = np.random.default_rng(n_rows)
    queries = _words(rng, 3, 13)
    arena = _words(rng, 13, n_rows)  # word-major, scanned in place
    want = _rowwise(queries, np.ascontiguousarray(arena.T))
    assert np.array_equal(hamming_many_to_many(queries, arena.T), want)
    assert np.array_equal(hamming_many_to_many(queries, arena.T, block_rows=1000), want)


def test_negative_stride_views(scan_kernel):
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


def test_all_ones_words(scan_kernel):
    """32 words of all ones against zero: distance 2,048 on every row."""
    database = np.full((5, 32), np.uint64(2**64 - 1))
    queries = np.zeros((2, 32), dtype=np.uint64)
    assert (hamming_many_to_many(queries, database) == 2048).all()
    assert (hamming_many_to_many(database[:1], database) == 0).all()


def test_two_threads_match_a_serial_scan(scan_kernel):
    """Both kernels run outside the GIL; two threads scanning at once
    (the scan split's shape) must each get the serial answer."""
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


def test_stat_names_the_kernel_that_served(scan_kernel):
    dataset = bulk_shape_dataset(20, seed=1)
    meta = meta_from_dataset(dataset)
    with SimilaritySearchEngine(
        make_shape_plugin(meta), SketchParams(128, meta, seed=0), FilterParams()
    ) as engine:
        engine.insert_many(list(dataset))
        stat = CommandProcessor(engine).execute(parse_command("stat"))
    assert f"scan_kernel {scan_kernel}" in stat


# ----------------------------------------------------------------------
# The numpy loop's per-thread scratch
# ----------------------------------------------------------------------
def test_scratch_keeps_the_larger_call_not_the_product(monkeypatch):
    """12 query rows on a narrow block, then 1 on a wide one: the scratch
    holds max(12 x narrow, wide) words, not 12 x wide."""
    monkeypatch.setattr(bitvector, "_KERNEL", None)
    rng = np.random.default_rng(5)
    narrow, wide = 100, 5000
    sizes = []

    def scan():
        hamming_many_to_many(_words(rng, 12, 2), _words(rng, narrow, 2))
        hamming_many_to_many(_words(rng, 1, 2), _words(rng, wide, 2))
        sizes.append((bitvector._scratch.xor.size, bitvector._scratch.counts.size))

    thread = threading.Thread(target=scan)  # a fresh thread: empty scratch
    thread.start()
    thread.join(timeout=30)
    assert not thread.is_alive()
    assert sizes and max(sizes[0]) <= max(12 * narrow, wide)


# ----------------------------------------------------------------------
# Loader: failures fall back to numpy, foreign files are refused
# ----------------------------------------------------------------------
@pytest.mark.parametrize("compiler", [["false"], ["/nonexistent/ferret-cc"]])
def test_failed_build_leaves_the_numpy_loop(tmp_path, monkeypatch, compiler):
    cache = tmp_path / "cache"
    monkeypatch.setattr(bitvector, "_KERNEL", bitvector._load_kernel(compiler, cache))
    assert bitvector._KERNEL is None
    assert bitvector.scan_kernel() == "numpy"
    assert list(cache.iterdir()) == []  # the temp file is gone too
    rng = np.random.default_rng(6)
    queries, database = _words(rng, 2, 3), _words(rng, 40, 3)
    assert np.array_equal(
        hamming_many_to_many(queries, database), _rowwise(queries, database)
    )


@pytest.fixture
def built(tmp_path):
    """A kernel compiled into a private cache directory: (dir, file)."""
    cache = tmp_path / "cache"
    if bitvector._load_kernel(cache_dir=cache) is None:
        pytest.skip("no C compiler on this host, or its build failed")
    assert os.stat(cache).st_mode & 0o777 == 0o700
    (path,) = cache.glob("hamming-*.so")
    return cache, path


def test_cached_kernel_is_reused(built):
    cache, path = built
    mtime = path.stat().st_mtime_ns
    assert bitvector._load_kernel(cache_dir=cache) is not None
    assert path.stat().st_mtime_ns == mtime
    assert list(cache.glob("*")) == [path]


def test_file_owned_by_another_user_is_refused(built, monkeypatch):
    cache, _ = built
    monkeypatch.setattr(bitvector.os, "getuid", lambda: os.stat(cache).st_uid + 1)
    assert bitvector._load_kernel(cache_dir=cache) is None


@pytest.mark.parametrize("mode", [0o770, 0o702])
def test_directory_others_can_write_is_refused(built, mode):
    cache, _ = built
    os.chmod(cache, mode)
    assert bitvector._load_kernel(cache_dir=cache) is None
    os.chmod(cache, 0o700)
    assert bitvector._load_kernel(cache_dir=cache) is not None


def test_kernel_source_ships_as_package_data():
    source = importlib.resources.files("repro.core").joinpath("_hamming.c")
    assert source.is_file() and b"hamming_block" in source.read_bytes()
    with open(ROOT / "pyproject.toml", "rb") as handle:
        package_data = tomllib.load(handle)["tool"]["setuptools"]["package-data"]
    assert "core/_hamming.c" in package_data["repro"]

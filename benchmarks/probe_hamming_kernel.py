"""The compiled Hamming kernel against the numpy loop, kernel alone.

Times ``bitvector.hamming_many_to_many`` on word-major arenas of the
e2e corpora's shapes (shape: 100k rows x 13 words, 1 query row, k = 64;
image: 129,067 rows x 4 words, 4 query rows, k = 32), once with the C
kernel loaded at import and once with ``_KERNEL`` set to ``None`` (the
numpy loop).  Then the filter's top-k two ways on the compiled kernel:
``select_ms`` is the distance matrix plus ``select_k_smallest``, and
``topk_ms`` the fused ``hamming_topk`` call, which builds no matrix.
Rounds alternate the sides; a cell is the median over rounds of the
per-round median ms per call; both sides must return the same matrix,
and both top-k paths the same (distance, row) sets.

    PYTHONPATH=src python benchmarks/probe_hamming_kernel.py [--calls 50]
"""

from __future__ import annotations

import argparse
import statistics
import time

import numpy as np

from repro.core import bitvector
from repro.core.filtering import select_k_smallest

CASES = (("shape", 100_000, 13, 1, 64), ("image", 129_067, 4, 4, 32))


def _time(fn, calls):
    seconds = []
    for _ in range(calls):
        started = time.perf_counter()
        out = fn()
        seconds.append(time.perf_counter() - started)
    return statistics.median(seconds) * 1e3, out


def _matrix_select(queries, database, k):
    dists = bitvector.hamming_many_to_many(queries, database)
    nearest = select_k_smallest(dists, k)
    return nearest, np.take_along_axis(dists, nearest, axis=1)


def _pairs(rows, dists):
    return [sorted(zip(d.tolist(), r.tolist())) for r, d in zip(rows, dists)]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--calls", type=int, default=50)
    parser.add_argument("--rounds", type=int, default=6)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args()
    loaded = bitvector._KERNEL
    if loaded is None:
        raise SystemExit("no compiled kernel on this host; nothing to compare")
    rng = np.random.default_rng(args.seed)
    print("corpus  rows     words  query_rows  numpy_ms  compiled_ms  compiled/numpy"
          "  select_ms  topk_ms  topk/select")
    for name, n_rows, n_words, n_queries, k in CASES:
        arena = rng.integers(0, 2**64, (n_words, n_rows), dtype=np.uint64)
        queries = rng.integers(0, 2**64, (n_queries, n_words), dtype=np.uint64)
        kernels = {"numpy": None, "compiled": loaded}
        ms = {side: [] for side in kernels}
        for r in range(args.rounds):
            outs = []
            for side in (("numpy", "compiled") if r % 2 == 0 else ("compiled", "numpy")):
                bitvector._KERNEL = kernels[side]
                took, out = _time(
                    lambda: bitvector.hamming_many_to_many(queries, arena.T), args.calls
                )
                ms[side].append(took)
                outs.append(out)
            assert np.array_equal(*outs)
        bitvector._KERNEL = loaded
        paths = {
            "select": lambda: _matrix_select(queries, arena.T, k),
            "topk": lambda: bitvector.hamming_topk(queries, arena.T, k),
        }
        topk_ms = {side: [] for side in paths}
        for r in range(args.rounds):
            picks = []
            for side in (("select", "topk") if r % 2 == 0 else ("topk", "select")):
                took, out = _time(paths[side], args.calls)
                topk_ms[side].append(took)
                picks.append(_pairs(*out))
            assert picks[0] == picks[1]
        numpy_ms, compiled_ms = (statistics.median(ms[side]) for side in kernels)
        select_ms, fused_ms = (statistics.median(topk_ms[side]) for side in paths)
        print(f"{name:<7} {n_rows:<8} {n_words:<6} {n_queries:<11} "
              f"{numpy_ms:<9.2f} {compiled_ms:<12.2f} {compiled_ms / numpy_ms:<15.2f} "
              f"{select_ms:<10.2f} {fused_ms:<8.2f} {fused_ms / select_ms:.2f}")


if __name__ == "__main__":
    main()

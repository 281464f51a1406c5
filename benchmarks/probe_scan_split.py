"""Serial full scan against the two-thread split, on the e2e corpora.

Times ``filtering._scan_nearest`` with the split off and on over row
prefixes of the shape arena (100k shapes, 800-bit sketches, 1 query row)
and the image arena (~129k segments, 256 bits, 4 query rows, no index).
Rounds alternate the sides; a cell is the median of per-round median ms
per scan; both sides must select the same rows for every scan.

    PYTHONPATH=src python benchmarks/probe_scan_split.py [--queries 100]
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent / "e2e"))
import corpus  # noqa: E402
import systems  # noqa: E402
from repro.core import filtering  # noqa: E402


def _time(stacks, words, dead, k, split):
    filtering._SPLIT_MIN_WORK = 0 if split else float("inf")
    seconds, picks = [], []
    for rows in stacks:
        started = time.perf_counter()
        nearest, _ = filtering._scan_nearest(rows, words, dead, k)
        seconds.append(time.perf_counter() - started)
        picks.append(np.sort(nearest, axis=1))
    return statistics.median(seconds) * 1e3, picks


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--queries", type=int, default=100)
    parser.add_argument("--rounds", type=int, default=6)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args()
    shapes, meta = corpus.shape_corpus(100_000, args.seed)
    cases = [  # (name, spec, corpus, row prefixes; None = the whole arena)
        ("shape", systems.shape_spec(meta), shapes, (25_000, 50_000, 75_000, None)),
        ("image", systems.image_spec(), corpus.image_corpus(12_000, args.seed),
         (16_000, 32_000, 64_000, None)),
    ]
    rng = np.random.default_rng(args.seed)
    print("corpus  rows     query_rows  serial_ms  split_ms  split/serial")
    for name, spec, signatures, sizes in cases:
        engine = spec.engine()
        engine.insert_many(signatures)
        params = engine.filter_params
        stacks = []
        for oid in rng.choice(len(engine), size=args.queries, replace=False):
            query = engine.get_object(int(oid))
            top = query.top_segments(params.num_query_segments)
            stacks.append(engine.sketcher.sketch_many(query.features)[top])
        owners, sketches = engine._store.snapshot()
        for size in sizes:
            n = size or owners.shape[0]
            dead = owners[:n] < 0
            k = min(params.candidates_per_segment, n - int(dead.sum()))
            serial, split = [], []
            for r in range(args.rounds):
                picks = {}
                for side in ((False, True) if r % 2 == 0 else (True, False)):
                    ms, picks[side] = _time(stacks, sketches[:n], dead, k, side)
                    (split if side else serial).append(ms)
                assert all(map(np.array_equal, picks[False], picks[True]))
            s, p = statistics.median(serial), statistics.median(split)
            rows = sum(len(x) for x in stacks) / len(stacks)
            print(f"{name:<7} {n:<8} {rows:<11.1f} {s:<10.2f} {p:<9.2f} {p / s:.2f}")


if __name__ == "__main__":
    main()

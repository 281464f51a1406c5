"""Sketch construction — Algorithms 1 and 2 of the paper.

A sketch is an N-bit vector built from a D-dimensional feature vector so
that the Hamming distance between two sketches estimates (a thresholded
transform of) the weighted l1 distance between the original vectors.

*Algorithm 1* draws ``N x K`` random ``(i, t)`` pairs: dimension ``i`` is
sampled with probability proportional to ``w_i * (max_i - min_i)`` and the
threshold ``t`` uniformly from ``[min_i, max_i]``.  *Algorithm 2* turns a
vector ``v`` into bits ``b_n = XOR_{k<K} [v[i_{nk}] >= t_{nk}]``.

For a single threshold bit, ``P[bit_a != bit_b] = |a_i - b_i| / range_i``
in the sampled dimension, so the expected Hamming distance of two N-bit
K=1 sketches is ``N * d_w(a, b) / sum_i w_i range_i`` — proportional to
the weighted l1 distance.  XOR-folding K independent bits dampens large
distances: if each bit differs with probability p, the XOR differs with
probability ``(1 - (1 - 2p)^K) / 2``, which is ~``K p`` for small p but
saturates at 1/2 — the outlier-thresholding effect the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bitvector import hamming_distance, hamming_to_many, pack_bits
from .types import FeatureMeta

__all__ = ["SketchParams", "SketchConstructor", "estimate_l1_from_hamming"]

# Bytes of the ``(rows, N, K)`` float64 gather that :meth:`sketch_many`
# builds per block of rows, so a bulk insert's temporaries stay bounded
# however many segments it sketches.
_SKETCH_BLOCK_BYTES = 8 << 20


@dataclass(frozen=True)
class SketchParams:
    """Initialization parameters of the sketch construction unit.

    Mirrors section 4.1.1: ``N`` sketch size in bits, per-dimension
    ``min``/``max``, optional per-dimension weights ``w``, and threshold
    control ``K`` (default 1).
    """

    n_bits: int
    meta: FeatureMeta
    k_xor: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_bits <= 0:
            raise ValueError("sketch size N must be positive")
        if self.k_xor <= 0:
            raise ValueError("threshold control K must be positive")


class SketchConstructor:
    """Converts feature vectors to packed N-bit sketches.

    The random ``(i, t)`` pairs are generated once at construction from
    ``params.seed`` (Algorithm 1) and reused for every vector — both
    database and query vectors must be sketched by the *same* constructor
    (or one rebuilt with identical parameters) for Hamming distances to
    be meaningful.
    """

    def __init__(self, params: SketchParams) -> None:
        self.params = params
        meta = params.meta
        rng = np.random.default_rng(params.seed)

        raw = meta.ranges.copy()
        if meta.weights is not None:
            raw = raw * meta.weights
        total = float(raw.sum())
        if total <= 0.0:
            raise ValueError(
                "all dimensions have zero weighted range; nothing to sketch"
            )
        self.dim_probs = raw / total

        size = (params.n_bits, params.k_xor)
        self.rnd_i = rng.choice(meta.dim, size=size, p=self.dim_probs)
        # t uniform in [min_i, max_i] for each sampled dimension i.
        u = rng.random(size)
        lo = meta.min_values[self.rnd_i]
        hi = meta.max_values[self.rnd_i]
        self.rnd_t = lo + u * (hi - lo)

    @property
    def n_bits(self) -> int:
        return self.params.n_bits

    @property
    def n_words(self) -> int:
        return (self.params.n_bits + 63) // 64

    def sketch_bits(self, vectors: np.ndarray) -> np.ndarray:
        """Algorithm 2, vectorized: ``(rows, D)`` vectors -> ``(rows, N)`` bits."""
        v = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
        if v.shape[1] != self.params.meta.dim:
            raise ValueError(
                f"expected {self.params.meta.dim}-dim vectors, got {v.shape[1]}"
            )
        # bits[r, n, k] = v[r, rnd_i[n, k]] >= rnd_t[n, k].  ``take``
        # on the flat ``(N * K,)`` index gathers each row's samples
        # contiguously, several times faster than a 2-D fancy index.
        bits = np.take(v, self.rnd_i.ravel(), axis=1) >= self.rnd_t.ravel()
        if self.params.k_xor > 1:
            bits = np.bitwise_xor.reduce(
                bits.reshape(v.shape[0], self.params.n_bits, self.params.k_xor),
                axis=2,
            )
        return bits.view(np.uint8)

    def sketch(self, vector: np.ndarray) -> np.ndarray:
        """Sketch one vector; returns packed uint64 words."""
        return pack_bits(self.sketch_bits(np.asarray(vector)[None, :]))[0]

    def sketch_many(self, vectors: np.ndarray) -> np.ndarray:
        """Sketch many vectors; returns ``(rows, n_words)`` packed words.

        Rows are sketched in blocks whose gather is about
        ``_SKETCH_BLOCK_BYTES``, written into one output array.  Each
        row's bits depend on that row alone, so the result is the same
        as one ``pack_bits(sketch_bits(vectors))`` call.
        """
        v = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
        params = self.params
        block = max(1, _SKETCH_BLOCK_BYTES // (params.n_bits * params.k_xor * 8))
        out = np.empty((v.shape[0], self.n_words), dtype=np.uint64)
        for start in range(0, v.shape[0], block):
            out[start : start + block] = pack_bits(
                self.sketch_bits(v[start : start + block])
            )
        return out

    def hamming(self, sketch_a: np.ndarray, sketch_b: np.ndarray) -> int:
        return hamming_distance(sketch_a, sketch_b)

    def hamming_scan(self, query_sketch: np.ndarray, database: np.ndarray) -> np.ndarray:
        """Hamming distance from a query sketch to every database sketch row."""
        return hamming_to_many(query_sketch, database)

    def expected_collision_probability(self, l1: float) -> float:
        """Expected per-bit disagreement probability for a given weighted
        l1 distance, via the XOR folding formula.

        Useful for converting Hamming distances back to l1 estimates and
        for testing that measured Hamming distances track theory.
        """
        meta = self.params.meta
        raw = meta.ranges.copy()
        if meta.weights is not None:
            raw = raw * meta.weights
        denom = float(raw.sum())
        p = min(max(l1 / denom, 0.0), 1.0)
        k = self.params.k_xor
        return 0.5 * (1.0 - (1.0 - 2.0 * p) ** k)


def estimate_l1_from_hamming(
    hamming: float, constructor: SketchConstructor
) -> float:
    """Invert the expected-Hamming relation to estimate weighted l1 distance.

    For K=1 this is exact inversion of the proportionality; for K>1 the
    transform saturates at ``N/2`` so estimates are clipped to the
    invertible region.  This is a diagnostic helper — the engine itself
    ranks by raw Hamming distance, never needing the inversion.
    """
    params = constructor.params
    frac = min(max(hamming / params.n_bits, 0.0), 0.5 - 1e-12)
    # frac = (1 - (1 - 2p)^K) / 2  =>  p = (1 - (1 - 2 frac)^(1/K)) / 2
    p = 0.5 * (1.0 - (1.0 - 2.0 * frac) ** (1.0 / params.k_xor))
    meta = params.meta
    raw = meta.ranges.copy()
    if meta.weights is not None:
        raw = raw * meta.weights
    return p * float(raw.sum())

"""Segment distance functions.

The toolkit's filtering unit uses a *segment distance function* between
pairs of feature vectors (section 4.2.2).  The built-ins here cover every
distance the paper uses: lp norms (l1 for images/audio/shapes, l2 for the
SHD baseline), weighted l1, and the Pearson / Spearman correlation
distances used by the genomics group (section 5.4).

All functions accept 1-D vectors and the ``*_to_many`` variants accept a
``(rows, D)`` matrix for vectorized scans.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

import numpy as np

__all__ = [
    "FirstSegmentL1",
    "chi_square_distance",
    "histogram_intersection_distance",
    "lp_distance",
    "l1_distance",
    "l2_distance",
    "weighted_l1_distance",
    "pearson_distance",
    "spearman_distance",
    "cosine_distance",
    "l1_to_many",
    "l2_to_many",
    "weighted_l1_to_many",
    "get_distance",
    "register_distance",
    "SegmentDistance",
]

SegmentDistance = Callable[[np.ndarray, np.ndarray], float]


def lp_distance(a: np.ndarray, b: np.ndarray, p: float) -> float:
    """The lp norm distance ``(sum |a_i - b_i|^p)^(1/p)`` from section 2."""
    if p <= 0:
        raise ValueError("p must be positive")
    diff = np.abs(np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64))
    if p == 1:
        return float(diff.sum())
    if p == 2:
        return float(np.sqrt(np.square(diff).sum()))
    if np.isinf(p):
        return float(diff.max(initial=0.0))
    return float(np.power(np.power(diff, p).sum(), 1.0 / p))


def l1_distance(a: np.ndarray, b: np.ndarray) -> float:
    return lp_distance(a, b, 1)


def l2_distance(a: np.ndarray, b: np.ndarray) -> float:
    return lp_distance(a, b, 2)


def weighted_l1_distance(
    a: np.ndarray, b: np.ndarray, weights: np.ndarray
) -> float:
    """Weighted l1 distance — the image segment distance (section 5.1)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != a.shape:
        raise ValueError("weights must match vector shape")
    return float(np.abs(a - b).dot(w))


def chi_square_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Symmetric chi-squared distance ``0.5 sum (a-b)^2 / (a+b)``.

    A standard histogram comparison in CBIR; bins where both inputs are
    zero contribute nothing.  Inputs must be non-negative.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if np.any(a < 0) or np.any(b < 0):
        raise ValueError("chi-squared distance needs non-negative inputs")
    denom = a + b
    mask = denom > 0
    diff = a - b
    return float(0.5 * np.sum(np.square(diff[mask]) / denom[mask]))


def histogram_intersection_distance(a: np.ndarray, b: np.ndarray) -> float:
    """``1 - sum min(a, b) / max(sum a, sum b)`` — the Swain-Ballard
    histogram intersection turned into a dissimilarity in [0, 1].

    Inputs must be non-negative; two empty histograms are identical.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if np.any(a < 0) or np.any(b < 0):
        raise ValueError("histogram intersection needs non-negative inputs")
    norm = max(float(a.sum()), float(b.sum()))
    if norm == 0.0:
        return 0.0
    return float(1.0 - np.minimum(a, b).sum() / norm)


def cosine_distance(a: np.ndarray, b: np.ndarray) -> float:
    """``1 - cos(a, b)``; 0 for identical directions, up to 2 for opposite."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0 if na == nb else 1.0
    return float(1.0 - np.clip(a.dot(b) / (na * nb), -1.0, 1.0))


def pearson_distance(a: np.ndarray, b: np.ndarray) -> float:
    """``1 - r`` where r is the Pearson correlation coefficient.

    Constant vectors have undefined correlation; we treat a pair of
    constant vectors as perfectly correlated (distance 0) and a constant
    vs non-constant pair as uncorrelated (distance 1), which matches how
    gene-expression tools handle flat profiles.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    da = a - a.mean()
    db = b - b.mean()
    na = np.linalg.norm(da)
    nb = np.linalg.norm(db)
    if na == 0.0 or nb == 0.0:
        return 0.0 if na == nb else 1.0
    r = np.clip(da.dot(db) / (na * nb), -1.0, 1.0)
    return float(1.0 - r)


def _rankdata(x: np.ndarray) -> np.ndarray:
    """Average ranks (ties share the mean rank), 1-based like scipy."""
    order = np.argsort(x, kind="stable")
    ranks = np.empty(len(x), dtype=np.float64)
    sorted_x = x[order]
    i = 0
    while i < len(x):
        j = i
        while j + 1 < len(x) and sorted_x[j + 1] == sorted_x[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def spearman_distance(a: np.ndarray, b: np.ndarray) -> float:
    """``1 - rho`` where rho is Spearman's rank correlation."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return pearson_distance(_rankdata(a), _rankdata(b))


def l1_to_many(query: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """l1 distances from ``query`` to every row of ``matrix``."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    return np.abs(matrix - np.asarray(query, dtype=np.float64)).sum(axis=1)


class FirstSegmentL1:
    """Object distance of a single-segment data type: l1 between the
    objects' first feature vectors.

    A class rather than a closure so the ranking unit can recognize it
    and rank every candidate with one :func:`l1_to_many`
    (``ranking.rank_candidates_many``); called pair by pair it is
    :func:`l1_distance`, and the stacked pass returns the same floats.
    """

    def __call__(self, a, b) -> float:
        return l1_distance(a.features[0], b.features[0])


def l2_to_many(query: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    matrix = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    diff = matrix - np.asarray(query, dtype=np.float64)
    return np.sqrt(np.square(diff).sum(axis=1))


def weighted_l1_to_many(
    query: np.ndarray, matrix: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    matrix = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    diff = np.abs(matrix - np.asarray(query, dtype=np.float64))
    return diff.dot(np.asarray(weights, dtype=np.float64))


_REGISTRY: Dict[str, SegmentDistance] = {
    "l1": l1_distance,
    "l2": l2_distance,
    "cosine": cosine_distance,
    "pearson": pearson_distance,
    "spearman": spearman_distance,
    "chi2": chi_square_distance,
    "histogram_intersection": histogram_intersection_distance,
}


def register_distance(name: str, fn: SegmentDistance) -> None:
    """Register a user-supplied segment distance under ``name``.

    This is the "plug in your own distance function" half of the paper's
    construction interface; the command-line protocol refers to distances
    by these names.
    """
    if not callable(fn):
        raise TypeError("distance function must be callable")
    _REGISTRY[name] = fn


def get_distance(name: str) -> SegmentDistance:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown distance {name!r}; known: {sorted(_REGISTRY)}"
        ) from None

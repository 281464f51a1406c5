"""Core data types for the Ferret similarity search toolkit.

The paper (section 2) represents a feature-rich data object as a weighted
set of feature vectors::

    X = {<X_1, w(X_1)>, ..., <X_k, w(X_k)>}

where each ``X_i`` is a point in a D-dimensional space and the weights
describe the relative "importance" of each segment.  The C interface in
the paper calls this ``ObjectT``; here it is :class:`ObjectSignature`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "FeatureMeta",
    "ObjectSignature",
    "Dataset",
    "normalize_weights",
    "meta_from_dataset",
]


def normalize_weights(weights: Sequence[float]) -> np.ndarray:
    """Return ``weights`` normalized to sum to 1.0.

    The paper requires segment weights of an object to add up to one
    (section 4.2.1).  Raises ``ValueError`` for empty, negative, or
    all-zero weights since none of those describe a valid segmentation.
    """
    arr = np.asarray(weights, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("weights must be a non-empty 1-D sequence")
    if np.any(arr < 0):
        raise ValueError("segment weights must be non-negative")
    total = float(arr.sum())
    if total <= 0.0:
        raise ValueError("segment weights must not all be zero")
    return arr / total


@dataclass(frozen=True)
class FeatureMeta:
    """Describes the feature space of one data type.

    The sketch construction unit (section 4.1.1) is initialized with the
    per-dimension minimum and maximum values and optional per-dimension
    weights; this class bundles those parameters.
    """

    dim: int
    min_values: np.ndarray
    max_values: np.ndarray
    weights: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        mins = np.asarray(self.min_values, dtype=np.float64)
        maxs = np.asarray(self.max_values, dtype=np.float64)
        object.__setattr__(self, "min_values", mins)
        object.__setattr__(self, "max_values", maxs)
        if mins.shape != (self.dim,) or maxs.shape != (self.dim,):
            raise ValueError(
                f"min/max must have shape ({self.dim},), got "
                f"{mins.shape} and {maxs.shape}"
            )
        if np.any(maxs < mins):
            raise ValueError("max_values must be >= min_values per dimension")
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=np.float64)
            if w.shape != (self.dim,):
                raise ValueError(f"weights must have shape ({self.dim},)")
            if np.any(w < 0):
                raise ValueError("dimension weights must be non-negative")
            object.__setattr__(self, "weights", w)

    @classmethod
    def from_samples(
        cls, samples: np.ndarray, weights: Optional[np.ndarray] = None
    ) -> "FeatureMeta":
        """Derive the feature-space bounds from a sample matrix (rows = vectors)."""
        samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
        return cls(
            dim=samples.shape[1],
            min_values=samples.min(axis=0),
            max_values=samples.max(axis=0),
            weights=weights,
        )

    @property
    def ranges(self) -> np.ndarray:
        """Per-dimension extent ``max - min``."""
        return self.max_values - self.min_values


class ObjectSignature:
    """A data object: a weighted set of feature vectors (the paper's ObjectT).

    Parameters
    ----------
    features:
        ``(k, D)`` array — one row per segment.
    weights:
        length-``k`` segment weights.  Normalized to sum to 1 unless
        ``normalize=False``.
    object_id:
        Optional stable identifier assigned by the engine/metadata layer.
    """

    __slots__ = ("object_id", "features", "weights")

    def __init__(
        self,
        features: np.ndarray,
        weights: Sequence[float],
        object_id: Optional[int] = None,
        normalize: bool = True,
    ) -> None:
        feats = np.atleast_2d(np.asarray(features, dtype=np.float64))
        if feats.ndim != 2:
            raise ValueError("features must be a (k, D) matrix")
        w = (
            normalize_weights(weights)
            if normalize
            else np.asarray(weights, dtype=np.float64)
        )
        if w.shape[0] != feats.shape[0]:
            raise ValueError(
                f"got {feats.shape[0]} feature vectors but {w.shape[0]} weights"
            )
        self.features = feats
        self.weights = w
        self.object_id = object_id

    @property
    def num_segments(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def segment(self, index: int) -> Tuple[np.ndarray, float]:
        """Return ``(feature_vector, weight)`` of one segment."""
        return self.features[index], float(self.weights[index])

    def top_segments(self, r: int) -> List[int]:
        """Indices of the ``r`` highest-weight segments, heaviest first.

        Used by the filtering unit: "our filtering algorithm selects r
        segments of Q with the highest weights" (section 4.1.1).
        """
        order = np.argsort(-self.weights, kind="stable")
        return [int(i) for i in order[: max(0, r)]]

    def __len__(self) -> int:
        return self.num_segments

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ObjectSignature):
            return NotImplemented
        return (
            self.object_id == other.object_id
            and self.features.shape == other.features.shape
            and np.array_equal(self.features, other.features)
            and np.array_equal(self.weights, other.weights)
        )

    def __repr__(self) -> str:
        return (
            f"ObjectSignature(id={self.object_id}, segments={self.num_segments}, "
            f"dim={self.dim})"
        )


def meta_from_dataset(
    dataset: "Dataset",
    weights: Optional[np.ndarray] = None,
    margin: float = 0.05,
) -> FeatureMeta:
    """Calibrate sketch bounds from a dataset's actual feature values.

    The sketch construction unit is initialized with per-dimension min
    and max values (section 4.1.1); sketches only discriminate when
    those bounds track the data, so deriving them from a representative
    sample is the intended workflow.  ``margin`` widens each range
    slightly so unseen data near the boundary still lands inside.
    Constant dimensions get a token range to stay sketchable.
    """
    stacked = np.concatenate([obj.features for obj in dataset])
    mins = stacked.min(axis=0)
    maxs = stacked.max(axis=0)
    span = maxs - mins
    pad = margin * np.where(span > 0, span, 1.0)
    return FeatureMeta(stacked.shape[1], mins - pad, maxs + pad, weights)


@dataclass
class Dataset:
    """An in-memory collection of objects keyed by object id.

    This is a convenience container used by examples, benchmarks and the
    evaluation tool; the engine itself persists objects through the
    metadata manager.
    """

    objects: Dict[int, ObjectSignature] = field(default_factory=dict)
    # One past the largest id ever added: the next auto-assigned id,
    # kept running so ``add`` never scans the dict for its maximum.
    _next_id: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.objects:
            self._next_id = max(self.objects) + 1

    def add(self, obj: ObjectSignature) -> int:
        if obj.object_id is None:
            obj.object_id = self._next_id
        if obj.object_id in self.objects:
            raise KeyError(f"duplicate object id {obj.object_id}")
        self.objects[obj.object_id] = obj
        self._next_id = max(self._next_id, obj.object_id + 1)
        return obj.object_id

    def __len__(self) -> int:
        return len(self.objects)

    def __iter__(self) -> Iterator[ObjectSignature]:
        return iter(self.objects.values())

    def __getitem__(self, object_id: int) -> ObjectSignature:
        return self.objects[object_id]

    def __contains__(self, object_id: int) -> bool:
        return object_id in self.objects

    @property
    def total_segments(self) -> int:
        return sum(obj.num_segments for obj in self)

    @property
    def avg_segments(self) -> float:
        return self.total_segments / len(self) if self.objects else 0.0

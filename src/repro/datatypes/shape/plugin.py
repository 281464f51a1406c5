"""3D shape plug-in and PSB-style benchmark builders (section 5.3).

Each model has exactly one feature vector (the 544-dim SHD), so the
segment distance *is* the object distance.  The paper's Ferret system
uses l1 with sketching; the SHD baseline it compares against used l2
over the full descriptors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ...core.distance import FirstSegmentL1, l1_distance, l2_to_many
from ...core.plugin import DataTypePlugin
from ...core.ranking import SearchResult
from ...core.types import Dataset, FeatureMeta, ObjectSignature
from ...evaltool.benchmark import BenchmarkSuite
from .harmonics import MAX_ORDER, SHAPE_DIM, shd_descriptor
from .synthetic import SHAPE_CLASSES, Mesh, ShapeClass, make_instance
from .voxelize import sample_surface, normalize_points, shell_decomposition, voxelize

__all__ = [
    "shape_feature_meta",
    "descriptor_from_mesh",
    "signature_from_mesh",
    "make_shape_plugin",
    "ShapeBenchmark",
    "generate_shape_benchmark",
    "ShdL2Baseline",
]

# Descriptor values are non-negative; the degree-0 energy of a shell
# holding all n samples is |Y_00| = 0.28, so after the sqrt-occupancy x
# radius scaling the ceiling at the default 6k-sample density is ~25.
# Engines should still prefer a dataset-calibrated FeatureMeta.
_FEATURE_MAX = 30.0


def shape_feature_meta() -> FeatureMeta:
    return FeatureMeta(
        SHAPE_DIM, np.zeros(SHAPE_DIM), np.full(SHAPE_DIM, _FEATURE_MAX)
    )


def descriptor_from_mesh(
    mesh: Mesh, num_samples: int = 6000, rng: Optional[np.random.Generator] = None
) -> np.ndarray:
    """Full SHD pipeline: sample -> normalize -> voxelize -> shells -> SH."""
    vertices, faces = mesh
    points = sample_surface(vertices, faces, num_samples, rng)
    grid = voxelize(normalize_points(points))
    return np.clip(shd_descriptor(shell_decomposition(grid)), 0.0, _FEATURE_MAX)


def signature_from_mesh(
    mesh: Mesh, object_id: Optional[int] = None, rng: Optional[np.random.Generator] = None
) -> ObjectSignature:
    """Single-segment signature (one SHD per model, weight 1)."""
    return ObjectSignature(
        descriptor_from_mesh(mesh, rng=rng)[None, :], [1.0], object_id=object_id
    )


def make_shape_plugin(meta: Optional[FeatureMeta] = None) -> DataTypePlugin:
    """Shape plug-in: l1 segment distance doubling as the object distance.

    Pass a dataset-calibrated ``meta`` (see
    :func:`repro.core.types.meta_from_dataset`) for sketching to work
    well: SHD energies occupy a narrow band of the static bounds.
    """
    return DataTypePlugin(
        name="shape",
        meta=meta if meta is not None else shape_feature_meta(),
        seg_distance=l1_distance,
        obj_distance=FirstSegmentL1(),
    )


@dataclass
class ShapeBenchmark:
    """PSB-style benchmark: class-labeled models."""

    dataset: Dataset
    suite: BenchmarkSuite
    class_of: Dict[int, str]


def generate_shape_benchmark(
    num_classes: Optional[int] = None,
    instances_per_class: int = 6,
    num_samples: int = 6000,
    seed: int = 23,
) -> ShapeBenchmark:
    """Build the PSB substitute: jittered, randomly rotated instances of
    parametric shape classes; each class is one similarity set."""
    rng = np.random.default_rng(seed)
    classes: List[ShapeClass] = SHAPE_CLASSES[: num_classes or len(SHAPE_CLASSES)]
    dataset = Dataset()
    suite = BenchmarkSuite(f"psb-synthetic-{len(classes)}x{instances_per_class}")
    class_of: Dict[int, str] = {}
    for shape_class in classes:
        members: List[int] = []
        for _ in range(instances_per_class):
            mesh = make_instance(shape_class, rng)
            descriptor_rng = np.random.default_rng(rng.integers(1 << 62))
            obj = signature_from_mesh(mesh, rng=descriptor_rng)
            object_id = dataset.add(obj)
            class_of[object_id] = shape_class.name
            members.append(object_id)
        suite.add(shape_class.name, members)
    return ShapeBenchmark(dataset, suite, class_of)


class ShdL2Baseline:
    """The comparison system of Table 1: brute-force l2 over full SHDs."""

    def __init__(self) -> None:
        self._ids: List[int] = []
        self._rows: List[np.ndarray] = []

    def insert(self, object_id: int, descriptor: np.ndarray) -> None:
        self._ids.append(object_id)
        self._rows.append(np.asarray(descriptor, dtype=np.float64))

    def query(
        self, descriptor: np.ndarray, top_k: int = 10, exclude_id: Optional[int] = None
    ) -> List[SearchResult]:
        matrix = np.stack(self._rows)
        dists = l2_to_many(descriptor, matrix)
        order = np.argsort(dists, kind="stable")
        results: List[SearchResult] = []
        for idx in order:
            object_id = self._ids[idx]
            if exclude_id is not None and object_id == exclude_id:
                continue
            results.append(SearchResult(float(dists[idx]), object_id))
            if len(results) >= top_k:
                break
        return results

    @property
    def feature_bits(self) -> int:
        return SHAPE_DIM * 32  # 17,472 bits — Table 1's feature vector size

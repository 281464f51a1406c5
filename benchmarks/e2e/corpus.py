"""Seeded, vectorised corpus generators for the end-to-end benchmark.

Same populations as :mod:`repro.datatypes.bulk` (clustered image
signatures, jittered SHD shape descriptors) but drawn in a handful of
numpy calls with ``object_id`` assigned explicitly, so nothing goes
through ``Dataset.add`` — see README.md, "Follow-ups for src/".
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.core import FeatureMeta, ObjectSignature
from repro.datatypes.image import image_feature_meta
from repro.datatypes.shape import (
    SHAPE_CLASSES,
    descriptor_from_mesh,
    make_instance,
)

IMAGE_AVG_SEGMENTS = 10.8
IMAGE_PROTOTYPES = 128
IMAGE_SPREAD = 0.08
SHAPE_JITTER = 0.15
_SHAPE_CHUNK = 5000


def image_corpus(count: int, seed: int) -> List[ObjectSignature]:
    """``count`` 14-dim image signatures, Poisson(10.8) segments each,
    clustered around 128 prototypes inside the image feature bounds."""
    rng = np.random.default_rng(seed)
    meta = image_feature_meta()
    span = meta.ranges
    prototypes = meta.min_values + rng.random((IMAGE_PROTOTYPES, meta.dim)) * span
    sizes = np.maximum(1, rng.poisson(IMAGE_AVG_SEGMENTS, size=count))
    total = int(sizes.sum())
    features = prototypes[rng.integers(0, IMAGE_PROTOTYPES, size=total)]
    features += rng.normal(0.0, IMAGE_SPREAD, (total, meta.dim)) * span
    np.clip(features, meta.min_values, meta.max_values, out=features)
    weights = rng.gamma(2.0, 1.0, size=total)
    starts = np.concatenate([[0], np.cumsum(sizes)])
    weights /= np.repeat(np.add.reduceat(weights, starts[:-1]), sizes)
    return [
        ObjectSignature(
            features[starts[i]:starts[i + 1]],
            weights[starts[i]:starts[i + 1]],
            object_id=i,
            normalize=False,
        )
        for i in range(count)
    ]


def shape_corpus(count: int, seed: int) -> Tuple[List[ObjectSignature], FeatureMeta]:
    """``count`` single-segment 544-dim descriptors jittered around one
    real SHD descriptor per parametric shape class, plus sketch bounds
    calibrated to the generated values (5 % margin, as
    ``meta_from_dataset`` does)."""
    rng = np.random.default_rng(seed)
    prototypes = np.stack([
        descriptor_from_mesh(
            make_instance(cls, rng), num_samples=3000,
            rng=np.random.default_rng(i),
        )
        for i, cls in enumerate(SHAPE_CLASSES)
    ])
    sigma = np.float32(SHAPE_JITTER * prototypes.std())
    features = prototypes[rng.integers(0, len(prototypes), size=count)]
    # Chunked float32 noise: one (count, 544) float64 temporary per step
    # would triple the peak memory and the generation time.
    for start in range(0, count, _SHAPE_CHUNK):
        block = features[start:start + _SHAPE_CHUNK]
        block += rng.standard_normal(block.shape, dtype=np.float32) * sigma
        np.maximum(block, 0.0, out=block)
    mins = features.min(axis=0)
    maxs = features.max(axis=0)
    span = maxs - mins
    pad = 0.05 * np.where(span > 0, span, 1.0)
    meta = FeatureMeta(features.shape[1], mins - pad, maxs + pad)
    one = np.ones(1)
    signatures = [
        ObjectSignature(features[i:i + 1], one, object_id=i, normalize=False)
        for i in range(count)
    ]
    return signatures, meta

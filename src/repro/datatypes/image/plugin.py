"""Image data type plug-in wiring (section 5.1).

Segment distance: weighted l1 on the 14-dim features, with per-dimension
weights ``1 / range`` so every feature contributes on a comparable scale
(this also makes the sketch construction sample dimensions uniformly,
since its sampling probability is ``w_i * range_i``).

Object distance: thresholded EMD with square-root segment weighting —
the "improved EMD" of the paper's image system.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ...core.emd import EMDParams
from ...core.plugin import DataTypePlugin
from ...core.types import FeatureMeta, ObjectSignature
from .features import image_feature_meta, signature_from_image

__all__ = ["make_image_plugin", "DEFAULT_EMD_THRESHOLD"]

# With range-normalized weights (and spatial dims at 0.35) the maximum
# segment distance is ~10.75 and random pairs sit around 3.5.  A 1.2
# threshold caps everything but genuine near-matches, mirroring the
# CIKM'04 thresholded-EMD tuning; the ablation bench sweeps this.
DEFAULT_EMD_THRESHOLD = 1.2


def make_image_plugin(
    emd_threshold: Optional[float] = DEFAULT_EMD_THRESHOLD,
    sqrt_weighting: bool = False,
) -> DataTypePlugin:
    """Build the image plug-in.

    ``sqrt_weighting`` applies the CIKM'04 square-root transform *again*
    at EMD time; our extractor already weights segments by sqrt(size),
    so the default leaves weights as extracted.
    """
    meta = image_feature_meta()
    # Normalize each dimension by its range, then downweight the spatial
    # features (bounding box + centroid): two photos of one subject keep
    # the subject's colors but rarely its exact frame position, so color
    # moments are the reliable evidence.  (The same weights feed the
    # sketch construction's dimension sampling.)
    dim_weights = 1.0 / meta.ranges
    dim_weights[9:] *= 0.35
    meta = FeatureMeta(meta.dim, meta.min_values, meta.max_values, dim_weights)

    def seg_distance(a: np.ndarray, b: np.ndarray) -> float:
        return float(np.abs(a - b).dot(dim_weights))

    params = EMDParams(
        threshold=emd_threshold,
        weight_transform=np.sqrt if sqrt_weighting else None,
        dim_weights=dim_weights,
    )

    def seg_extract(filename: str) -> ObjectSignature:
        # Data acquisition stores rendered scenes as .npy rasters.
        image = np.load(filename)
        return signature_from_image(image)

    return DataTypePlugin(
        name="image",
        meta=meta,
        seg_extract=seg_extract,
        seg_distance=seg_distance,
        emd_params=params,
    )

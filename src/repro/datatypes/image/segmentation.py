"""Region segmentation — the JSEG substitute (section 5.1).

The paper uses the JSEG color/texture segmenter, which "reads in an image
and outputs a matrix mapping each pixel to one of the segments".  We
reproduce that contract with a classical pipeline: quantize colors,
label connected components of equal quantized color (the homogeneous
regions), then absorb regions below a size floor into their most similar
large neighbor.  On our synthetic scenes this recovers the generating
regions; on any other image it produces a reasonable homogeneous-region
decomposition.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

__all__ = ["segment_image", "quantize_colors"]


def quantize_colors(image: np.ndarray, levels: int = 4) -> np.ndarray:
    """Posterize each channel to ``levels`` buckets; returns int codes."""
    if image.ndim != 3 or image.shape[2] != 3:
        raise ValueError("image must be (H, W, 3)")
    q = np.clip((image * levels).astype(np.int32), 0, levels - 1)
    return q[:, :, 0] * levels * levels + q[:, :, 1] * levels + q[:, :, 2]


def segment_image(
    image: np.ndarray,
    levels: int = 4,
    min_region_fraction: float = 0.01,
    max_segments: int = 16,
) -> np.ndarray:
    """Segment an ``(H, W, 3)`` image; returns an ``(H, W)`` label map.

    Labels are contiguous integers starting at 0.  At most
    ``max_segments`` labels survive; smaller regions are merged into the
    remaining region with the closest mean color.
    """
    from scipy import ndimage  # only segmentation needs SciPy

    height, width = image.shape[:2]
    codes = quantize_colors(image, levels)
    labels = np.zeros((height, width), dtype=np.int32)
    next_label = 0
    # Connected components per quantized color (4-connectivity).
    for code in np.unique(codes):
        mask = codes == code
        comp, count = ndimage.label(mask)
        for c in range(1, count + 1):
            labels[comp == c] = next_label
            next_label += 1

    labels = _merge_small_regions(
        image, labels, min_size=max(1, int(min_region_fraction * height * width)),
        max_segments=max_segments,
    )
    return labels


def _merge_small_regions(
    image: np.ndarray, labels: np.ndarray, min_size: int, max_segments: int
) -> np.ndarray:
    """Absorb small regions into the large region of most similar color."""
    flat_labels = labels.ravel()
    flat_pixels = image.reshape(-1, 3)
    ids, counts = np.unique(flat_labels, return_counts=True)

    means = np.empty((ids.max() + 1, 3), dtype=np.float64)
    for region_id in ids:
        means[region_id] = flat_pixels[flat_labels == region_id].mean(axis=0)

    order = np.argsort(-counts)
    keep = [
        ids[i]
        for i in order
        if counts[i] >= min_size
    ][:max_segments]
    if not keep:  # degenerate: keep the single largest region
        keep = [ids[order[0]]]

    keep_means = means[keep]
    remap: Dict[int, int] = {}
    for idx, region_id in enumerate(ids):
        if region_id in remap:
            continue
        if region_id in keep:
            remap[region_id] = region_id
        else:
            dists = np.abs(keep_means - means[region_id]).sum(axis=1)
            remap[region_id] = keep[int(np.argmin(dists))]

    merged = np.vectorize(remap.get, otypes=[np.int32])(labels)
    # Renumber to contiguous 0..k-1 in decreasing-size order.
    final_ids, final_counts = np.unique(merged, return_counts=True)
    ranking = final_ids[np.argsort(-final_counts)]
    renumber = {int(old): new for new, old in enumerate(ranking)}
    return np.vectorize(renumber.get, otypes=[np.int32])(merged)

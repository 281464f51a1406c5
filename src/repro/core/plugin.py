"""Plug-in interface for data-type specific modules.

Section 4.2: system builders supply (1) a segmentation and feature
extraction module, (2) a segment distance function, and (3) an object
distance function.  The C prototypes in the paper are::

    ObjectT seg_extract_func(const char *filename);
    float   seg_distance(FeatureT segA, FeatureT segB);
    float   obj_distance(ObjectT objA, ObjectT objB);

Here a data type is described by a :class:`DataTypePlugin` bundling those
three callables plus the feature-space metadata the sketch construction
unit needs.  Built-in data types (images, audio, shapes, genomics) live
under :mod:`repro.datatypes` and each exposes a ``make_plugin()``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

import numpy as np

from .distance import l1_distance
from .emd import EMDDistance, EMDParams
from .types import FeatureMeta, ObjectSignature

__all__ = [
    "EXTRACTION_ERRORS",
    "DataTypePlugin",
    "register_plugin",
    "get_plugin",
    "list_plugins",
]

SegExtractFunc = Callable[[str], ObjectSignature]
SegDistanceFunc = Callable[[np.ndarray, np.ndarray], float]
ObjDistanceFunc = Callable[[ObjectSignature, ObjectSignature], float]

#: What :meth:`DataTypePlugin.extract` raises for a file it cannot turn
#: into a signature: an unreadable file (``OSError``), a plug-in without
#: an extraction module (``NotImplementedError``), or malformed data or
#: the wrong feature dimension (``ValueError``).
EXTRACTION_ERRORS = (OSError, NotImplementedError, ValueError)


@dataclass
class DataTypePlugin:
    """Everything the engine needs to know about one data type.

    Parameters
    ----------
    name:
        Registry key (e.g. ``"image"``).
    meta:
        Feature-space bounds/weights for sketch construction.
    seg_extract:
        Maps a file path to an :class:`ObjectSignature`.  Optional when
        data arrives pre-extracted (the engine also accepts signatures
        directly).
    seg_distance:
        Segment distance for filtering; defaults to l1, the paper's most
        common choice.
    obj_distance:
        Object distance for ranking; defaults to plain EMD over the
        segment distance.  Single-segment data types may reuse the
        segment distance here, as the shape and genomic systems do.
    """

    name: str
    meta: FeatureMeta
    seg_extract: Optional[SegExtractFunc] = None
    seg_distance: SegDistanceFunc = field(default=l1_distance)
    obj_distance: Optional[ObjDistanceFunc] = None
    emd_params: Optional[EMDParams] = None

    def __post_init__(self) -> None:
        if self.obj_distance is None:
            self.obj_distance = EMDDistance(self.emd_params)

    def extract(self, filename: str) -> ObjectSignature:
        if self.seg_extract is None:
            raise NotImplementedError(
                f"plugin {self.name!r} has no segmentation/feature-extraction "
                "module; insert ObjectSignature values directly"
            )
        obj = self.seg_extract(filename)
        if obj.dim != self.meta.dim:
            raise ValueError(
                f"plugin {self.name!r} extracted {obj.dim}-dim features but "
                f"declares dim={self.meta.dim}"
            )
        return obj


_PLUGINS: Dict[str, DataTypePlugin] = {}


def register_plugin(plugin: DataTypePlugin, replace: bool = False) -> None:
    """Register a plugin by name for lookup by servers/tools."""
    if plugin.name in _PLUGINS and not replace:
        raise KeyError(f"plugin {plugin.name!r} already registered")
    _PLUGINS[plugin.name] = plugin


def get_plugin(name: str) -> DataTypePlugin:
    try:
        return _PLUGINS[name]
    except KeyError:
        raise KeyError(
            f"unknown plugin {name!r}; registered: {sorted(_PLUGINS)}"
        ) from None


def list_plugins() -> Dict[str, DataTypePlugin]:
    return dict(_PLUGINS)

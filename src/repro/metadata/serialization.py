"""Binary codecs for metadata values.

Feature vectors are stored as float32 (the paper sizes feature vectors at
32 bits per dimension), weights as float64, sketches as their packed
uint64 words.  All encodings are little-endian, length-prefixed, and
versioned with a leading format byte so the layout can evolve.  Object
encoding version 2 keeps the features as float64: it is the lossless
wire form a cluster backend ships a query seed in, so the coordinator
ranks with the same seed a single engine would.
"""

from __future__ import annotations

import struct
from typing import Dict, Tuple

import numpy as np

from ..core.types import ObjectSignature

__all__ = [
    "encode_object",
    "decode_object",
    "object_size",
    "encode_sketches",
    "decode_sketches",
    "encode_attributes",
    "decode_attributes",
    "object_key",
    "parse_object_key",
]

_OBJECT_V1 = 1
_OBJECT_V2 = 2
_FEATURE_DTYPE = {_OBJECT_V1: "<f4", _OBJECT_V2: "<f8"}
_FEATURE_BYTES = {_OBJECT_V1: 4, _OBJECT_V2: 8}
_SKETCH_V1 = 1
_ATTRS_V1 = 1


def object_key(object_id: int) -> bytes:
    """Big-endian fixed-width key so B-tree order equals numeric order."""
    return struct.pack(">Q", object_id)


def parse_object_key(key: bytes) -> int:
    return struct.unpack(">Q", key)[0]


def encode_object(signature: ObjectSignature, lossless: bool = False) -> bytes:
    """Version 1 (float32 features) by default; ``lossless`` writes
    version 2, whose float64 features decode bit-identical."""
    version = _OBJECT_V2 if lossless else _OBJECT_V1
    k, dim = signature.features.shape
    header = struct.pack("<BII", version, k, dim)
    feats = signature.features.astype(_FEATURE_DTYPE[version]).tobytes()
    weights = signature.weights.astype("<f8").tobytes()
    return header + weights + feats


def decode_object(raw: bytes, object_id: int = None) -> ObjectSignature:
    version, k, dim = struct.unpack_from("<BII", raw)
    if version not in _FEATURE_DTYPE:
        raise ValueError(f"unsupported object encoding version {version}")
    offset = 9
    weights = np.frombuffer(raw, dtype="<f8", count=k, offset=offset)
    offset += 8 * k
    feats = np.frombuffer(
        raw, dtype=_FEATURE_DTYPE[version], count=k * dim, offset=offset
    )
    return ObjectSignature(
        feats.astype(np.float64).reshape(k, dim),
        weights.copy(),
        object_id=object_id,
        normalize=False,
    )


def object_size(raw: bytes) -> int:
    """Length of the object encoding that starts ``raw``, read from its
    header: where a stored object row's sketch trailer begins."""
    version, k, dim = struct.unpack_from("<BII", raw)
    if version not in _FEATURE_DTYPE:
        raise ValueError(f"unsupported object encoding version {version}")
    return 9 + 8 * k + _FEATURE_BYTES[version] * k * dim


def encode_sketches(sketches: np.ndarray) -> bytes:
    arr = np.atleast_2d(np.asarray(sketches, dtype="<u8"))
    header = struct.pack("<BII", _SKETCH_V1, arr.shape[0], arr.shape[1])
    return header + arr.tobytes()


def decode_sketches(raw: bytes, offset: int = 0) -> np.ndarray:
    """Decode the sketch encoding that starts at ``offset`` of ``raw``."""
    version, rows, words = struct.unpack_from("<BII", raw, offset)
    if version != _SKETCH_V1:
        raise ValueError(f"unsupported sketch encoding version {version}")
    flat = np.frombuffer(raw, dtype="<u8", count=rows * words, offset=offset + 9)
    return flat.astype(np.uint64).reshape(rows, words)


def encode_attributes(attributes: Dict[str, str]) -> bytes:
    parts = [struct.pack("<BI", _ATTRS_V1, len(attributes))]
    for key in sorted(attributes):
        kb = key.encode("utf-8")
        vb = attributes[key].encode("utf-8")
        parts.append(struct.pack("<HI", len(kb), len(vb)))
        parts.append(kb)
        parts.append(vb)
    return b"".join(parts)


def decode_attributes(raw: bytes) -> Dict[str, str]:
    version, count = struct.unpack_from("<BI", raw)
    if version != _ATTRS_V1:
        raise ValueError(f"unsupported attribute encoding version {version}")
    offset = 5
    out: Dict[str, str] = {}
    for _ in range(count):
        klen, vlen = struct.unpack_from("<HI", raw, offset)
        offset += 6
        key = raw[offset : offset + klen].decode("utf-8")
        offset += klen
        out[key] = raw[offset : offset + vlen].decode("utf-8")
        offset += vlen
    return out

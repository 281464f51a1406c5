"""Metadata management (section 4.1.3).

Keeps feature vectors, sketches, attributes and the object↔file mapping
in tables of the transactional store.  "All the updates to the metadata
associated with the same object are protected by database transactions"
— :meth:`MetadataManager.put_object` writes them in one transaction, so
a crash can never leave an object half-ingested.

An object's row in the ``objects`` table carries its sketches: the
object encoding, then the sketch encoding as a trailer (the object
header gives where the trailer starts).  One row means an insert is one
B-tree put and one WAL record; the paper's separate sketch table would
double both.  A row without the trailer comes from an older layout and
is refused on load.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, Optional, Tuple

import numpy as np

from ..core.types import ObjectSignature
from ..storage.kvstore import KVStore
from .serialization import (
    decode_attributes,
    decode_object,
    decode_sketches,
    encode_attributes,
    encode_object,
    encode_sketches,
    object_key,
    object_size,
    parse_object_key,
)

__all__ = ["MetadataManager"]

_T_OBJECTS = "objects"
_T_ATTRIBUTES = "attributes"
_T_FILES = "files"


_SCAN_PAGE = 1024  # rows per paged table scan


def _sketch_offset(raw: bytes, object_id: int) -> int:
    """Where the sketch trailer of a stored object row begins."""
    end = object_size(raw)
    if end >= len(raw):
        raise ValueError(
            f"object {object_id}: stored row has no sketch trailer; it was "
            "written in an older layout that kept sketches in their own table"
        )
    return end


def _merge_lookup(
    rows: Iterator[Tuple[bytes, bytes]],
) -> Callable[[bytes], Optional[bytes]]:
    """Merge join over key-ordered ``rows``: the returned ``get(key)``
    gives the value under ``key`` (or None) for keys asked in ascending
    order."""
    row = next(rows, None)

    def get(key: bytes) -> Optional[bytes]:
        nonlocal row
        while row is not None and row[0] < key:
            row = next(rows, None)
        return row[1] if row is not None and row[0] == key else None

    return get


class MetadataManager:
    """Transaction-protected metadata storage for one search system.

    Can wrap an externally managed :class:`KVStore` (``store=``) or open
    its own in ``directory``.  Implements the persistence interface the
    engine expects (``put_object`` / ``iter_objects``) plus keyed access
    used by the attribute search tool and the servers.
    """

    def __init__(
        self,
        directory: Optional[str] = None,
        store: Optional[KVStore] = None,
        **store_kwargs,
    ) -> None:
        if (directory is None) == (store is None):
            raise ValueError("pass exactly one of directory or store")
        self._owns_store = store is None
        self.store = store or KVStore(directory, **store_kwargs)

    # ------------------------------------------------------------------
    # Object lifecycle
    # ------------------------------------------------------------------
    def put_object(
        self,
        object_id: int,
        signature: ObjectSignature,
        sketches: np.ndarray,
        attributes: Optional[Dict[str, str]] = None,
        filename: Optional[str] = None,
    ) -> None:
        """Write all metadata of one object atomically."""
        key = object_key(object_id)
        with self.store.begin() as txn:
            txn.put(_T_OBJECTS, key, encode_object(signature) + encode_sketches(sketches))
            if attributes:
                txn.put(_T_ATTRIBUTES, key, encode_attributes(attributes))
            if filename:
                txn.put(_T_FILES, filename.encode("utf-8"), key)

    def delete_object(self, object_id: int) -> None:
        key = object_key(object_id)
        with self.store.begin() as txn:
            txn.delete(_T_OBJECTS, key)
            txn.delete(_T_ATTRIBUTES, key)

    def get_object(self, object_id: int) -> Optional[ObjectSignature]:
        raw = self.store.get(_T_OBJECTS, object_key(object_id))
        if raw is None:
            return None
        return decode_object(raw, object_id)

    def get_sketches(self, object_id: int) -> Optional[np.ndarray]:
        raw = self.store.get(_T_OBJECTS, object_key(object_id))
        if raw is None:
            return None
        return decode_sketches(raw, _sketch_offset(raw, object_id))

    def get_attributes(self, object_id: int) -> Dict[str, str]:
        raw = self.store.get(_T_ATTRIBUTES, object_key(object_id))
        return {} if raw is None else decode_attributes(raw)

    def set_attributes(self, object_id: int, attributes: Dict[str, str]) -> None:
        self.store.put(
            _T_ATTRIBUTES, object_key(object_id), encode_attributes(attributes)
        )

    # ------------------------------------------------------------------
    # File mapping
    # ------------------------------------------------------------------
    def file_for(self, filename: str) -> Optional[int]:
        raw = self.store.get(_T_FILES, filename.encode("utf-8"))
        return None if raw is None else parse_object_key(raw)

    def files(self) -> Iterator[Tuple[str, int]]:
        for path_b, key in self.store.items(_T_FILES):
            yield path_b.decode("utf-8"), parse_object_key(key)

    # ------------------------------------------------------------------
    # Iteration / counters
    # ------------------------------------------------------------------
    def iter_objects(
        self,
    ) -> Iterator[Tuple[int, ObjectSignature, np.ndarray, Dict[str, str]]]:
        """Yield ``(object_id, signature, sketches, attributes)`` for all
        objects, in object-id order.  This is the engine's reload path:
        one ordered, paged scan of the object rows merged by key with
        one of the attribute rows (an object without an attribute row
        gets ``{}``)."""
        attributes_of = _merge_lookup(self._scan(_T_ATTRIBUTES))
        for key, raw in self._scan(_T_OBJECTS):
            object_id = parse_object_key(key)
            sketches = decode_sketches(raw, _sketch_offset(raw, object_id))
            at_raw = attributes_of(key)
            yield (
                object_id,
                decode_object(raw, object_id),
                sketches,
                decode_attributes(at_raw) if at_raw is not None else {},
            )

    def _scan(self, table: str) -> Iterator[Tuple[bytes, bytes]]:
        """All rows of ``table`` in key order, ``_SCAN_PAGE`` at a time."""
        start = None
        while True:
            rows = self.store.items(table, start=start, limit=_SCAN_PAGE)
            yield from rows
            if len(rows) < _SCAN_PAGE:
                return
            start = rows[-1][0] + b"\0"  # the smallest key after the last

    def iter_attributes(self) -> Iterator[Tuple[int, Dict[str, str]]]:
        for key, raw in self.store.items(_T_ATTRIBUTES):
            yield parse_object_key(key), decode_attributes(raw)

    def num_objects(self) -> int:
        return self.store.count(_T_OBJECTS)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def checkpoint(self) -> None:
        self.store.checkpoint()

    def close(self) -> None:
        if self._owns_store:
            self.store.close()

    def __enter__(self) -> "MetadataManager":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

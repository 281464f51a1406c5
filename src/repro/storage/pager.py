"""Page file with copy-on-write allocation and double-buffered meta blocks.

The store's durable state is a single page file.  Pages are never
overwritten in place within a checkpoint epoch (shadow paging): updated
B-tree nodes are written to freshly allocated pages, and a checkpoint
becomes visible by atomically writing one of two small, checksummed meta
blocks at the front of the file.  A crash mid-checkpoint therefore leaves
the previous checkpoint fully intact — recovery picks the newest meta
block whose CRC validates.

Layout::

    [meta block 0][meta block 1][page 0][page 1]...

Meta blocks are ``META_SIZE`` bytes each; pages are ``page_size`` bytes.
Page ids index the page area (page 0 starts at ``2 * META_SIZE``).

B-tree nodes are serialized at checkpoint, not per put: the tree hands
the pager a live node with :meth:`Pager.stage`, and the node becomes
page bytes once, when the page is flushed or first read back.  Overflow
and free-list pages are written eagerly with :meth:`Pager.write_page`.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from .errors import CorruptionError, StorageError
from .fs import OS_FS, FileSystem

__all__ = ["Meta", "Pager", "DEFAULT_PAGE_SIZE", "META_SIZE"]

DEFAULT_PAGE_SIZE = 4096
META_SIZE = 256
_META_MAGIC = b"FERRETDB"
# magic(8) checkpoint_id(Q) page_size(I) next_page_id(Q) catalog_root(q)
# freelist_root(q) wal_seq(Q) crc(I)
_META_FMT = "<8sQIQqqQ"
_PAGE_HEADER_FMT = "<IQ"  # crc32(payload), payload length is implicit
_PAGE_HEADER_SIZE = struct.calcsize(_PAGE_HEADER_FMT)


@dataclass
class Meta:
    """Durable root of one checkpoint."""

    checkpoint_id: int = 0
    page_size: int = DEFAULT_PAGE_SIZE
    next_page_id: int = 0
    catalog_root: int = -1  # -1 = empty tree
    freelist_root: int = -1
    wal_seq: int = 0

    def pack(self) -> bytes:
        body = struct.pack(
            _META_FMT,
            _META_MAGIC,
            self.checkpoint_id,
            self.page_size,
            self.next_page_id,
            self.catalog_root,
            self.freelist_root,
            self.wal_seq,
        )
        crc = zlib.crc32(body)
        return (body + struct.pack("<I", crc)).ljust(META_SIZE, b"\0")

    @classmethod
    def unpack(cls, raw: bytes) -> Optional["Meta"]:
        body_size = struct.calcsize(_META_FMT)
        if len(raw) < body_size + 4:
            return None
        body = raw[:body_size]
        (crc,) = struct.unpack_from("<I", raw, body_size)
        if zlib.crc32(body) != crc:
            return None
        magic, ckpt, psize, nxt, cat, free, wal = struct.unpack(_META_FMT, body)
        if magic != _META_MAGIC:
            return None
        return cls(ckpt, psize, nxt, cat, free, wal)


class Pager:
    """Page allocator + cache over the page file.

    Allocation discipline (shadow paging): pages on the free list were
    released by an already-durable checkpoint and may be reused; pages
    freed during the current epoch go to ``pending_free`` and only join
    the free list once the next checkpoint is durable.
    """

    def __init__(
        self,
        path: str,
        page_size: int = DEFAULT_PAGE_SIZE,
        fs: Optional[FileSystem] = None,
    ) -> None:
        self.path = path
        self.fs = fs if fs is not None else OS_FS
        create = not self.fs.exists(path) or self.fs.getsize(path) == 0
        self._file = self.fs.open(path, "r+b" if not create else "w+b")
        self.page_size = page_size
        self._cache: Dict[int, bytes] = {}
        # Staged nodes not yet turned into bytes: page id -> (serialize, node).
        self._pending: Dict[int, Tuple[Callable[[Any], bytes], Any]] = {}
        self.staged: Set[int] = set()  # written since last flush
        self.pending_free: List[int] = []
        self._freelist_chain: List[int] = []
        if create:
            self.meta = Meta(page_size=page_size)
            self.free_list: List[int] = []
            self._write_meta_block(0, self.meta)
            self._write_meta_block(1, self.meta)
            self._file.flush()
            self.fs.fsync(self._file)
        else:
            self.meta = self._load_newest_meta()
            self.page_size = self.meta.page_size
            self.free_list = self._load_freelist(self.meta.freelist_root)

    # -- meta blocks ---------------------------------------------------
    def _write_meta_block(self, slot: int, meta: Meta) -> None:
        self._file.seek(slot * META_SIZE)
        self._file.write(meta.pack())

    def _load_newest_meta(self) -> Meta:
        metas = []
        for slot in (0, 1):
            self._file.seek(slot * META_SIZE)
            meta = Meta.unpack(self._file.read(META_SIZE))
            if meta is not None:
                metas.append(meta)
        if not metas:
            raise CorruptionError(f"{self.path}: no valid meta block")
        return max(metas, key=lambda m: m.checkpoint_id)

    # -- page io -------------------------------------------------------
    def _offset(self, page_id: int) -> int:
        return 2 * META_SIZE + page_id * self.page_size

    def allocate(self) -> int:
        """Allocate a page id for this epoch (free list, then file growth)."""
        if self.free_list:
            return self.free_list.pop()
        page_id = self.meta.next_page_id
        self.meta.next_page_id += 1
        return page_id

    def free(self, page_id: int) -> None:
        """Release a page; reusable only after the next durable checkpoint."""
        self.pending_free.append(page_id)

    def _check_capacity(self, payload: bytes) -> None:
        if len(payload) > self.max_payload:
            raise StorageError(
                f"payload of {len(payload)} bytes exceeds page capacity "
                f"{self.max_payload}"
            )

    def write_page(self, page_id: int, payload: bytes) -> None:
        """Stage a page payload; it reaches disk at the next flush."""
        self._check_capacity(payload)
        self._pending.pop(page_id, None)
        self._cache[page_id] = payload
        self.staged.add(page_id)

    def stage(self, page_id: int, serialize: Callable[[Any], bytes], node: Any) -> None:
        """Stage a live ``node`` for ``page_id``; ``serialize(node)`` runs
        once, when the page is flushed or first read back."""
        self._pending[page_id] = (serialize, node)
        self._cache.pop(page_id, None)
        self.staged.add(page_id)

    def materialize(self, page_id: int) -> Optional[bytes]:
        """Turn a pending staged node into the page's bytes now (None if
        nothing is pending for ``page_id``)."""
        pending = self._pending.get(page_id)
        if pending is None:
            return None
        serialize, node = pending
        payload = serialize(node)
        self._check_capacity(payload)
        del self._pending[page_id]
        self._cache[page_id] = payload
        return payload

    def read_page(self, page_id: int) -> bytes:
        """Return a page payload, from cache or disk (CRC-verified)."""
        cached = self._cache.get(page_id)
        if cached is not None:
            return cached
        staged = self.materialize(page_id)
        if staged is not None:
            return staged
        self._file.seek(self._offset(page_id))
        raw = self._file.read(self.page_size)
        if len(raw) < _PAGE_HEADER_SIZE:
            raise CorruptionError(f"page {page_id}: short read")
        crc, length = struct.unpack_from(_PAGE_HEADER_FMT, raw)
        payload = raw[_PAGE_HEADER_SIZE : _PAGE_HEADER_SIZE + length]
        if len(payload) != length or zlib.crc32(payload) != crc:
            raise CorruptionError(f"page {page_id}: checksum mismatch")
        self._cache[page_id] = payload
        return payload

    @property
    def max_payload(self) -> int:
        return self.page_size - _PAGE_HEADER_SIZE

    def flush_pages(self, page_ids: Set[int]) -> None:
        """Write the given staged pages to disk (no meta flip, no fsync)."""
        for page_id in sorted(page_ids):
            payload = self.materialize(page_id) or self._cache[page_id]
            header = struct.pack(_PAGE_HEADER_FMT, zlib.crc32(payload), len(payload))
            block = (header + payload).ljust(self.page_size, b"\0")
            self._file.seek(self._offset(page_id))
            self._file.write(block)
            self.staged.discard(page_id)

    # -- freelist persistence -------------------------------------------
    # The free list is stored as a chain of pages: each page holds
    # [next_page(-1 terminates)] [count] [page ids...].
    def _freelist_capacity(self) -> int:
        return (self.max_payload - 16) // 8

    def write_freelist(self, ids: List[int]) -> int:
        """Persist ``ids`` as a fresh page chain; returns the head page id.

        Chain pages are always allocated from file growth (never from the
        free list) so the persisted ids and the chain's own pages cannot
        overlap.
        """
        if not ids:
            return -1
        cap = self._freelist_capacity()
        chunks = [ids[i : i + cap] for i in range(0, len(ids), cap)]
        head = -1
        for chunk in reversed(chunks):
            page_id = self.meta.next_page_id
            self.meta.next_page_id += 1
            payload = struct.pack("<qq", head, len(chunk)) + struct.pack(
                f"<{len(chunk)}q", *chunk
            )
            self.write_page(page_id, payload)
            head = page_id
        return head

    def _load_freelist(self, head: int) -> List[int]:
        ids: List[int] = []
        page_id = head
        while page_id >= 0:
            payload = self.read_page(page_id)
            nxt, count = struct.unpack_from("<qq", payload)
            ids.extend(struct.unpack_from(f"<{count}q", payload, 16))
            # The chain's own pages are immediately reusable next epoch.
            self.pending_free.append(page_id)
            page_id = nxt
        return ids

    def commit_checkpoint(self, catalog_root: int, wal_seq: int) -> Meta:
        """Make the current state durable: flush pages, flip meta, fsync.

        Ordering is the whole point: (1) all data pages hit disk and are
        fsynced, (2) the meta block naming them is written and fsynced.
        A crash between the two leaves the previous meta valid.
        """
        # The previous chain written this session (if any) is superseded.
        self.pending_free.extend(self._freelist_chain)
        self._freelist_chain = []
        # Persist the new free list: still-allocatable survivors plus the
        # pages freed during this epoch (safe to reuse once this meta is
        # durable, which is exactly when this list becomes readable).
        to_persist = list(self.free_list) + list(self.pending_free)
        freelist_root = self.write_freelist(to_persist)
        chain = freelist_root
        while chain >= 0:
            self._freelist_chain.append(chain)
            nxt, _count = struct.unpack_from("<qq", self._cache[chain])
            chain = nxt
        self.flush_pages(set(self.staged))
        self._file.flush()
        self.fs.fsync(self._file)

        new_meta = Meta(
            checkpoint_id=self.meta.checkpoint_id + 1,
            page_size=self.page_size,
            next_page_id=self.meta.next_page_id,
            catalog_root=catalog_root,
            freelist_root=freelist_root,
            wal_seq=wal_seq,
        )
        self._write_meta_block(new_meta.checkpoint_id % 2, new_meta)
        self._file.flush()
        self.fs.fsync(self._file)
        self.meta = new_meta
        # Pages freed during the finished epoch are now safe to reuse.
        self.free_list = self.free_list + self.pending_free
        self.pending_free = []
        return new_meta

    def close(self) -> None:
        if not self._file.closed:
            self._file.close()

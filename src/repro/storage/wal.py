"""Write-ahead log of logical operations.

A commit appends one record holding every operation of the transaction
to the current WAL segment *before* the corresponding B-tree pages are
considered durable; that record is the commit.  A checkpoint flips to a
fresh segment and deletes the old one, so the log only ever covers
operations since the last durable checkpoint.

Durability is deliberately relaxed, as in the paper (section 4.1.3):
``sync_policy`` controls whether each commit fsyncs the log
(``"commit"``), fsyncs are batched every N commits (``"batch"``), or
left to the OS (``"none"``).  After a crash, recovery replays only
whole records — a torn tail record is ignored, which yields
consistency with possibly a few seconds of lost updates, exactly the
Berkeley DB configuration the paper describes.

All file I/O goes through an injectable :class:`~repro.storage.fs.FileSystem`
so the fault-injection framework (:mod:`repro.faults`) can exercise the
log under crashes, torn writes, dropped fsyncs, and I/O errors.

Record framing: ``<length:u32><crc32:u32><payload>``.  The payload is
``<type:u8 = 5><txid:u64><n_ops:u32>`` and then ``n_ops`` operations,
each ``<op:u8><tree_len:u16><key_len:u32><value_len:u64>`` followed by
the tree name (UTF-8), the key and the value (empty for a delete).

Older stores logged a transaction as BEGIN, one frame per operation and
COMMIT (payload type bytes 1–4).  A CRC-valid frame of that layout is
refused with :class:`StorageError` rather than replayed or cut off as a
torn tail.
"""

from __future__ import annotations

import os
import struct
import time
import zlib
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Sequence, Tuple

from ..observability import metrics as _metrics
from .errors import StorageError
from .fs import OS_FS, FileSystem

__all__ = [
    "OP_DELETE",
    "OP_PUT",
    "SegmentScan",
    "WalTransaction",
    "WriteAheadLog",
]

OP_PUT = 2
OP_DELETE = 3

_M_APPENDS = _metrics.counter("wal.appends")
_M_COMMITS = _metrics.counter("wal.commits")
_M_FSYNCS = _metrics.counter("wal.fsyncs")
_M_FSYNC_SECONDS = _metrics.histogram("wal.fsync_seconds")
_M_ROLLBACKS = _metrics.counter("wal.rollbacks")
_M_TAIL_REPAIRS = _metrics.counter("wal.tail_repairs")
_M_ROTATIONS = _metrics.counter("wal.rotations")
_M_BROKEN = _metrics.counter("wal.broken")

_FRAME = struct.Struct("<II")  # payload length, crc32
_FRAME_SIZE = _FRAME.size
_TXN_RECORD = 5
_TXN_HEAD = struct.Struct("<BQI")  # type, txid, number of ops
_OP_HEAD = struct.Struct("<BHIQ")  # op, tree, key and value lengths
# Payload type bytes of the per-operation layout (BEGIN, PUT, DELETE,
# COMMIT) that older stores wrote.
_OLD_LAYOUT_TYPES = frozenset((1, 2, 3, 4))


class WalTransaction(NamedTuple):
    """One logged transaction: ``ops`` are ``(op, tree, key, value)``."""

    txid: int
    ops: List[Tuple[int, str, bytes, bytes]]


def _pack_transaction(
    txid: int, ops: Sequence[Tuple[int, bytes, bytes, bytes]]
) -> bytes:
    parts = [_TXN_HEAD.pack(_TXN_RECORD, txid, len(ops))]
    for op, tree, key, value in ops:
        parts += (_OP_HEAD.pack(op, len(tree), len(key), len(value)), tree, key, value)
    return b"".join(parts)


def _unpack_transaction(payload: bytes) -> WalTransaction:
    """Parse one record; raises ``ValueError`` / ``struct.error`` if it
    does not hold exactly the operations its header declares."""
    kind, txid, n_ops = _TXN_HEAD.unpack_from(payload)
    if kind != _TXN_RECORD:
        raise ValueError(f"unknown record type {kind}")
    offset = _TXN_HEAD.size
    ops = []
    for _ in range(n_ops):
        op, tree_len, key_len, value_len = _OP_HEAD.unpack_from(payload, offset)
        if op != OP_PUT and op != OP_DELETE:
            raise ValueError(f"unknown operation {op}")
        tree_at = offset + _OP_HEAD.size
        key_at = tree_at + tree_len
        value_at = key_at + key_len
        offset = value_at + value_len
        tree = payload[tree_at:key_at].decode("utf-8")
        ops.append((op, tree, payload[key_at:value_at], payload[value_at:offset]))
    if offset != len(payload):
        raise ValueError("record payload length disagrees with its operations")
    return WalTransaction(txid, ops)


@dataclass
class SegmentScan:
    """Result of scanning one WAL segment.

    ``torn_tail`` is set when the scan stopped *because of* a damaged
    record — a partial frame header, short payload, CRC mismatch, or an
    unparseable payload — rather than a clean end-of-file at a record
    boundary.  ``valid_bytes`` is the offset of the first byte past the
    last intact record (i.e. where a repair could truncate to).
    """

    transactions: List[WalTransaction] = field(default_factory=list)
    torn_tail: bool = False
    valid_bytes: int = 0


class WriteAheadLog:
    """Append-only log over segment files ``<prefix>.<seq>``."""

    def __init__(
        self,
        directory: str,
        seq: int,
        sync_policy: str = "batch",
        batch_size: int = 16,
        fs: Optional[FileSystem] = None,
    ) -> None:
        if sync_policy not in ("commit", "batch", "none"):
            raise StorageError(f"unknown sync policy {sync_policy!r}")
        self.directory = directory
        self.seq = seq
        self.sync_policy = sync_policy
        self.batch_size = max(1, batch_size)
        self.fs = fs if fs is not None else OS_FS
        self._unsynced_commits = 0
        self._broken = False
        path = self.segment_path(seq)
        self._size = self.fs.getsize(path) if self.fs.exists(path) else 0
        self._file = self.fs.open(path, "ab")

    def segment_path(self, seq: int) -> str:
        return os.path.join(self.directory, f"wal.{seq:08d}")

    @property
    def size(self) -> int:
        """Logical size of the current segment (bytes appended so far)."""
        return self._size

    @property
    def broken(self) -> bool:
        return self._broken

    def _check_usable(self) -> None:
        if self._broken:
            raise StorageError(
                "WAL is broken: a failed append could not be rolled back; "
                "close and reopen the store to recover"
            )

    def _fsync(self) -> None:
        fsync_started = time.perf_counter()
        self.fs.fsync(self._file)
        _M_FSYNCS.inc()
        _M_FSYNC_SECONDS.observe(time.perf_counter() - fsync_started)

    def append_transaction(
        self, txid: int, ops: Sequence[Tuple[int, bytes, bytes, bytes]]
    ) -> None:
        """Append one transaction as one record; the record is its commit.

        Each op is a plain ``(op, tree_utf8, key, value)`` tuple
        (``value`` is ``b""`` for an ``OP_DELETE``).  The frame goes out
        in one ``write`` — the crash-torture scans count on every record
        being its own I/O operation — then the log is flushed and
        fsynced per the policy.

        If the append fails (ENOSPC, EIO, ...), the partial record is
        rolled back by truncating the segment to its size before the
        append, so a later transaction cannot land after a half-written
        frame.  If even the truncate fails, the log is marked broken and
        refuses further appends — recovery on reopen ignores the torn
        record either way.
        """
        self._check_usable()
        start_size = self._size
        payload = _pack_transaction(txid, ops)
        try:
            self._file.write(_FRAME.pack(len(payload), zlib.crc32(payload)) + payload)
            self._size += _FRAME_SIZE + len(payload)
            _M_APPENDS.inc()
            _M_COMMITS.inc()
            self._file.flush()
            if self.sync_policy == "commit":
                self._fsync()
            elif self.sync_policy == "batch":
                self._unsynced_commits += 1
                if self._unsynced_commits >= self.batch_size:
                    self._fsync()
                    self._unsynced_commits = 0
        except Exception:
            _M_ROLLBACKS.inc()
            try:
                self._file.truncate(start_size)
                self._size = start_size
            except OSError:
                # Only an I/O failure of the truncate itself latches the
                # log broken; any other exception here would be a bug in
                # this rollback path and must surface alongside the
                # original append failure.
                self._broken = True
                _M_BROKEN.inc()
            raise

    def sync(self) -> None:
        self._file.flush()
        self._fsync()
        self._unsynced_commits = 0

    def truncate_to(self, size: int) -> None:
        """Cut the current segment back to ``size`` bytes (torn-tail repair).

        Recovery calls this when the segment scan found a damaged tail.
        The segment stays open append-mode across recovery, so without
        the cut new commits would land *after* the torn frame — and the
        next recovery, which stops at the first damaged record, would
        silently drop every one of them.  If the truncate itself fails
        the log is marked broken (writes refuse) rather than risk that
        silent loss.
        """
        self._check_usable()
        if size >= self._size:
            return
        try:
            self._file.truncate(size)
            self._size = size
            _M_TAIL_REPAIRS.inc()
        except OSError:
            self._broken = True
            _M_BROKEN.inc()
            raise

    def rotate(self, new_seq: int) -> None:
        """Switch to a fresh segment and delete all older ones.

        Called only after the checkpoint naming ``new_seq`` is durable,
        so the old segment's content is already superseded — no sync is
        needed (or wanted: it could fail and block the switch).  If the
        new segment cannot be opened, the log is marked broken: logging
        on into the old segment while a durable meta block references
        the new one would silently lose every subsequent commit.
        """
        try:
            self._file.close()
            old_seq, self.seq = self.seq, new_seq
            self._size = 0
            self._unsynced_commits = 0
            self._file = self.fs.open(self.segment_path(new_seq), "ab")
            _M_ROTATIONS.inc()
        except OSError:
            self._broken = True
            _M_BROKEN.inc()
            raise
        for seq in range(old_seq, new_seq):
            try:
                self.fs.unlink(self.segment_path(seq))
            except FileNotFoundError:
                pass

    def close(self, sync: bool = True) -> None:
        """Close the segment, fsyncing first unless ``sync`` is False.

        A failed store passes ``sync=False``: after a botched checkpoint
        the segment's tail is unreliable, and forcing it to disk on the
        way out would only make the garbage durable.
        """
        if not self._file.closed:
            if sync and not self._broken:
                self.sync()
            self._file.close()

    # -- replay ---------------------------------------------------------
    @classmethod
    def scan_segment(cls, path: str, fs: Optional[FileSystem] = None) -> SegmentScan:
        """Scan a segment, stopping cleanly at the first damaged record.

        A partially written tail (crash mid-append) is expected and
        terminates the scan; anything before it is intact because frames
        carry CRCs.  Damage never propagates as ``struct.error`` — the
        scan reports it via :attr:`SegmentScan.torn_tail` instead.  A
        CRC-valid frame of the older per-operation layout raises
        :class:`StorageError`: it is a whole record this version cannot
        replay, not damage to cut off.
        """
        fs = fs if fs is not None else OS_FS
        scan = SegmentScan()
        if not fs.exists(path):
            return scan
        with fs.open(path, "rb") as fh:
            offset = 0
            while True:
                frame = fh.read(_FRAME_SIZE)
                if len(frame) == 0:
                    return scan  # clean EOF at a record boundary
                if len(frame) < _FRAME_SIZE:
                    scan.torn_tail = True
                    return scan
                length, crc = _FRAME.unpack(frame)
                payload = fh.read(length)
                if len(payload) < length or zlib.crc32(payload) != crc:
                    scan.torn_tail = True
                    return scan
                if payload[:1] and payload[0] in _OLD_LAYOUT_TYPES:
                    raise StorageError(
                        f"{path}: record at offset {offset} uses the older "
                        "per-operation WAL layout (BEGIN / op / COMMIT "
                        "frames); this version cannot replay it and will "
                        "not discard it"
                    )
                try:
                    transaction = _unpack_transaction(payload)
                except (struct.error, UnicodeDecodeError, ValueError):
                    scan.torn_tail = True
                    return scan
                offset += _FRAME_SIZE + length
                scan.transactions.append(transaction)
                scan.valid_bytes = offset

"""Write-ahead log of logical operations.

Commits append BEGIN / PUT / DELETE / COMMIT records to the current WAL
segment *before* the corresponding B-tree pages are considered durable.
A checkpoint flips to a fresh segment and deletes the old one, so the log
only ever covers operations since the last durable checkpoint.

Durability is deliberately relaxed, as in the paper (section 4.1.3):
``sync_policy`` controls whether each commit fsyncs the log
(``"commit"``), fsyncs are batched every N commits (``"batch"``), or
left to the OS (``"none"``).  After a crash, recovery replays only
complete, committed transactions — a torn tail record or a transaction
missing its COMMIT is ignored, which yields consistency with possibly a
few seconds of lost updates, exactly the Berkeley DB configuration the
paper describes.

All file I/O goes through an injectable :class:`~repro.storage.fs.FileSystem`
so the fault-injection framework (:mod:`repro.faults`) can exercise the
log under crashes, torn writes, dropped fsyncs, and I/O errors.

Record framing: ``<length:u32><crc32:u32><payload>``; payload starts
with a record-type byte and a transaction id.
"""

from __future__ import annotations

import os
import struct
import time
import zlib
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple

from ..observability import metrics as _metrics
from .errors import StorageError
from .fs import OS_FS, FileSystem

__all__ = [
    "WalRecord",
    "WriteAheadLog",
    "SegmentScan",
    "REC_BEGIN",
    "REC_PUT",
    "REC_DELETE",
    "REC_COMMIT",
]

REC_BEGIN = 1
REC_PUT = 2
REC_DELETE = 3
REC_COMMIT = 4

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
# Payload: <rec_type:u8><txid:u64><tree_len:u16> tree <key_len:u32> key
# <value_len:u64> value; BEGIN and COMMIT leave the last three empty.
_HEAD = struct.Struct("<BQH")
_KEY_LEN = struct.Struct("<I")
_VALUE_LEN = struct.Struct("<Q")


def _pack_payload(
    rec_type: int, txid: int, tree: bytes, key: bytes, value: bytes
) -> bytes:
    return b"".join((
        _HEAD.pack(rec_type, txid, len(tree)), tree,
        _KEY_LEN.pack(len(key)), key,
        _VALUE_LEN.pack(len(value)), value,
    ))


@dataclass(frozen=True)
class WalRecord:
    """One logical log record."""

    rec_type: int
    txid: int
    tree: str = ""
    key: bytes = b""
    value: bytes = b""

    def pack(self) -> bytes:
        return _pack_payload(
            self.rec_type, self.txid, self.tree.encode("utf-8"), self.key, self.value
        )

    @classmethod
    def unpack(cls, payload: bytes) -> "WalRecord":
        rec_type, txid, tree_len = _HEAD.unpack_from(payload)
        offset = _HEAD.size
        tree = payload[offset : offset + tree_len].decode("utf-8")
        if len(tree.encode("utf-8")) != tree_len:
            raise ValueError("truncated tree name")
        offset += tree_len
        (key_len,) = _KEY_LEN.unpack_from(payload, offset)
        offset += _KEY_LEN.size
        key = payload[offset : offset + key_len]
        offset += key_len
        (value_len,) = _VALUE_LEN.unpack_from(payload, offset)
        offset += _VALUE_LEN.size
        value = payload[offset : offset + value_len]
        if len(key) != key_len or len(value) != value_len:
            raise ValueError("record payload shorter than declared lengths")
        return cls(rec_type, txid, tree, key, value)


@dataclass
class SegmentScan:
    """Result of scanning one WAL segment.

    ``torn_tail`` is set when the scan stopped *because of* a damaged
    record — a partial frame header, short payload, CRC mismatch, or an
    unparseable payload — rather than a clean end-of-file at a record
    boundary.  ``valid_bytes`` is the offset of the first byte past the
    last intact record (i.e. where a repair could truncate to).
    """

    records: List[WalRecord] = field(default_factory=list)
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

    def _write_frame(self, payload: bytes) -> None:
        # One write per frame: the crash-torture scans count on every
        # frame being its own I/O operation.
        self._file.write(_FRAME.pack(len(payload), zlib.crc32(payload)) + payload)
        self._size += _FRAME_SIZE + len(payload)

    def _committed(self) -> None:
        # A COMMIT frame was written: flush, then fsync per the policy.
        _M_COMMITS.inc()
        self._file.flush()
        if self.sync_policy == "commit":
            self._fsync()
        elif self.sync_policy == "batch":
            self._unsynced_commits += 1
            if self._unsynced_commits >= self.batch_size:
                self._fsync()
                self._unsynced_commits = 0

    def append(self, record: WalRecord) -> None:
        self._check_usable()
        self._write_frame(record.pack())
        _M_APPENDS.inc()
        if record.rec_type == REC_COMMIT:
            self._committed()

    def append_transaction(
        self, txid: int, ops: Sequence[Tuple[int, bytes, bytes, bytes]]
    ) -> None:
        """Append BEGIN, the given ops, COMMIT as one contiguous burst.

        Each op is a plain ``(rec_type, tree_utf8, key, value)`` tuple
        (``value`` is ``b""`` for a DELETE); the frames are exactly those
        of the matching :class:`WalRecord` s, one ``write`` each.

        If any append fails mid-burst (ENOSPC, EIO, ...), the partial
        transaction is rolled back by truncating the segment to its
        pre-burst size, so a later transaction cannot append after
        half-written frames.  If even the truncate fails, the log is
        marked broken and refuses further appends — recovery on reopen
        ignores the unterminated transaction either way.
        """
        self._check_usable()
        start_size = self._size
        try:
            self._write_frame(_pack_payload(REC_BEGIN, txid, b"", b"", b""))
            for rec_type, tree, key, value in ops:
                self._write_frame(_pack_payload(rec_type, txid, tree, key, value))
            self._write_frame(_pack_payload(REC_COMMIT, txid, b"", b"", b""))
            _M_APPENDS.inc(len(ops) + 2)
            self._committed()
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
        scan reports it via :attr:`SegmentScan.torn_tail` instead.
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
                try:
                    record = WalRecord.unpack(payload)
                except (struct.error, UnicodeDecodeError, ValueError):
                    scan.torn_tail = True
                    return scan
                offset += _FRAME_SIZE + length
                scan.records.append(record)
                scan.valid_bytes = offset

    @classmethod
    def read_segment(
        cls, path: str, fs: Optional[FileSystem] = None
    ) -> Iterator[WalRecord]:
        """Yield the intact records of a segment (compat wrapper)."""
        yield from cls.scan_segment(path, fs=fs).records

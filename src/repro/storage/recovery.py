"""Crash recovery: replay committed WAL transactions onto the checkpoint.

On open, the store's page file reflects the last durable checkpoint
(shadow paging guarantees it is internally consistent).  Everything that
committed afterwards lives only in the WAL, one record per transaction.
Recovery scans the current segment and re-applies every whole record's
operations in log order; a torn tail record was never acknowledged and
is skipped.  Replay is idempotent — puts and deletes of final values —
so crashing during or after recovery and replaying again converges to
the same state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .fs import FileSystem
from .wal import OP_PUT, WriteAheadLog

__all__ = ["RecoveryReport", "replay_segment"]


@dataclass
class RecoveryReport:
    """What recovery found and did."""

    transactions_replayed: int = 0
    operations_applied: int = 0
    max_txid: int = 0
    #: The segment ended in a damaged record (partial frame, bad CRC,
    #: unparseable payload) rather than at a clean record boundary.
    torn_tail: bool = False
    #: Offset of the first byte past the last intact record.
    valid_bytes: int = 0


def replay_segment(
    path: str,
    apply_put: Callable[[str, bytes, bytes], None],
    apply_delete: Callable[[str, bytes], None],
    fs: Optional[FileSystem] = None,
) -> RecoveryReport:
    """Replay one WAL segment through the given apply callbacks.

    Commit order is the order records appear in the log, which is the
    serialization order the commit lock enforced before the crash.
    Raises :class:`~repro.storage.errors.StorageError` for a segment in
    the older per-operation layout (see :meth:`WriteAheadLog.scan_segment`).
    """
    scan = WriteAheadLog.scan_segment(path, fs=fs)
    report = RecoveryReport(torn_tail=scan.torn_tail, valid_bytes=scan.valid_bytes)
    for txid, ops in scan.transactions:
        for op, tree, key, value in ops:
            if op == OP_PUT:
                apply_put(tree, key, value)
            else:
                apply_delete(tree, key)
        report.operations_applied += len(ops)
        report.transactions_replayed += 1
        report.max_txid = max(report.max_txid, txid)
    return report

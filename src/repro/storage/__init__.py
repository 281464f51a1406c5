"""Embedded transactional storage — the toolkit's Berkeley DB substitute.

Provides named B-trees with transactions, a write-ahead log with relaxed
durability, shadow-paging checkpoints, and crash recovery (section 4.1.3
of the paper).
"""

from .btree import BTree
from .errors import (
    CorruptionError,
    KeyTooLargeError,
    StorageError,
    StoreClosedError,
    TransactionError,
)
from .fs import OS_FS, FileSystem, OsFileSystem
from .kvstore import KVStore
from .pager import Meta, Pager
from .recovery import RecoveryReport, replay_segment
from .transaction import Transaction, TxnState
from .wal import SegmentScan, WalTransaction, WriteAheadLog

__all__ = [
    "BTree",
    "CorruptionError",
    "FileSystem",
    "KVStore",
    "KeyTooLargeError",
    "Meta",
    "OS_FS",
    "OsFileSystem",
    "Pager",
    "RecoveryReport",
    "SegmentScan",
    "StorageError",
    "StoreClosedError",
    "Transaction",
    "TransactionError",
    "TxnState",
    "WalTransaction",
    "WriteAheadLog",
    "replay_segment",
]

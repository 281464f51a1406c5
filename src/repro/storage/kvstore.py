"""Transactional embedded key-value store — the Berkeley DB substitute.

A :class:`KVStore` is a directory holding one page file (``data.db``)
and the current WAL segment.  It exposes named B-trees ("tables" in the
paper's metadata manager), transactions protecting multi-tree updates,
periodic checkpointing, and automatic crash recovery on open.

Durability model (matching section 4.1.3): commits are logged to the WAL
with a relaxed fsync policy; checkpoints make the B-trees durable via
shadow paging and truncate the log.  After a crash the store recovers to
a consistent state containing every checkpointed update plus all
WAL-complete committed transactions.

Concurrency: operations are serialized by a reentrant store lock.  The
toolkit's workloads are read-heavy scans plus occasional ingest bursts,
for which coarse locking is both correct and, in CPython, as fast as
anything finer-grained.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from typing import Dict, Iterator, List, Optional, Tuple

from ..observability import metrics as _metrics
from .btree import MAX_KEY_SIZE, BTree
from .errors import KeyTooLargeError, StoreClosedError, StorageError
from .fs import OS_FS, FileSystem
from .pager import DEFAULT_PAGE_SIZE, Pager
from .recovery import RecoveryReport, replay_segment
from .transaction import TOMBSTONE, Transaction
from .wal import OP_DELETE, OP_PUT, WriteAheadLog

__all__ = ["KVStore"]

_CATALOG = "__catalog__"

_M_RECOVERIES = _metrics.counter("store.recoveries")
_M_RECOVERED_TXNS = _metrics.counter("store.recovered_txns")
_M_RECOVERED_OPS = _metrics.counter("store.recovered_ops")
_M_TORN_TAILS = _metrics.counter("store.torn_tails_repaired")
_M_CHECKPOINTS = _metrics.counter("store.checkpoints")
_M_CHECKPOINT_SECONDS = _metrics.histogram("store.checkpoint_seconds")
_M_CHECKPOINT_FAILURES = _metrics.counter("store.checkpoint_failures")
_M_ERR_FAILED_CLOSE = _metrics.counter("errors_absorbed.store.failed_close")


class KVStore:
    """Open (creating if necessary) the store in ``directory``.

    Parameters
    ----------
    directory:
        Store location; created if missing.
    page_size:
        Page size for a newly created store (existing stores keep theirs).
    sync_policy / sync_batch:
        WAL fsync policy: ``"commit"`` (fsync every commit), ``"batch"``
        (every ``sync_batch`` commits — the paper's relaxed mode), or
        ``"none"``.
    auto_checkpoint_ops:
        Checkpoint automatically after this many committed operations;
        ``0`` disables (checkpoint explicitly or on close).
    fs:
        Filesystem implementation for all file I/O (defaults to the real
        OS).  The fault-injection framework passes a
        :class:`~repro.faults.fs.FaultyFilesystem` here to exercise the
        store under crashes, torn writes, and I/O errors.
    """

    def __init__(
        self,
        directory: str,
        page_size: int = DEFAULT_PAGE_SIZE,
        sync_policy: str = "batch",
        sync_batch: int = 16,
        auto_checkpoint_ops: int = 10000,
        fs: Optional[FileSystem] = None,
    ) -> None:
        os.makedirs(directory, exist_ok=True)
        self.directory = directory
        self.fs = fs if fs is not None else OS_FS
        self._lock = threading.RLock()
        self._closed = False
        self._failed: Optional[str] = None  # reason, once the store fails
        self._pager = Pager(os.path.join(directory, "data.db"), page_size, fs=self.fs)
        self._epoch = self._pager.meta.checkpoint_id + 1
        self._trees: Dict[str, BTree] = {}
        self._catalog = self._open_tree_at(self._pager.meta.catalog_root)
        self._load_catalog()
        self._wal = WriteAheadLog(
            directory, self._pager.meta.wal_seq, sync_policy, sync_batch, fs=self.fs
        )
        self.last_recovery: Optional[RecoveryReport] = None
        self._next_txid = 1
        self._ops_since_checkpoint = 0
        self.auto_checkpoint_ops = auto_checkpoint_ops
        try:
            self._recover()
        except StorageError:
            # A segment recovery refuses (an older WAL layout) is left
            # exactly as it is on disk: close without syncing anything.
            self._wal.close(sync=False)
            self._pager.close()
            raise

    # ------------------------------------------------------------------
    # Setup / recovery
    # ------------------------------------------------------------------
    def _open_tree_at(self, root: int) -> BTree:
        tree = BTree(self._pager, root)
        tree.begin_epoch(self._epoch)
        return tree

    def _load_catalog(self) -> None:
        for name_b, root_b in self._catalog.items():
            root = int.from_bytes(root_b, "little", signed=True)
            self._trees[name_b.decode("utf-8")] = self._open_tree_at(root)

    def _recover(self) -> None:
        path = self._wal.segment_path(self._pager.meta.wal_seq)
        report = replay_segment(
            path,
            apply_put=lambda tree, k, v: self._tree(tree).put(k, v),
            apply_delete=lambda tree, k: self._tree(tree).delete(k),
            fs=self.fs,
        )
        self.last_recovery = report
        self._next_txid = report.max_txid + 1
        _M_RECOVERIES.inc()
        _M_RECOVERED_TXNS.inc(report.transactions_replayed)
        _M_RECOVERED_OPS.inc(report.operations_applied)
        if report.torn_tail:
            _M_TORN_TAILS.inc()
            # Repair the tail before accepting any write, even when no
            # committed transaction was replayed: the segment reopens
            # append-mode, so new fsynced commits would otherwise land
            # after the torn frame and the next recovery — which stops
            # at the first damaged record — would silently lose them.
            self._wal.truncate_to(report.valid_bytes)
        if report.operations_applied:
            # Make the recovered state durable immediately so a second
            # crash cannot double the window of vulnerability.
            self.checkpoint()

    # ------------------------------------------------------------------
    # Tree access
    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise StoreClosedError("store is closed")

    def _check_writable(self) -> None:
        self._check_open()
        if self._failed is None and self._wal.broken:
            self._failed = "WAL rollback failed"
        if self._failed is not None:
            raise StorageError(
                f"store is in failed state ({self._failed}); reads still "
                "work, reopen the store to restore write access"
            )

    @property
    def failed(self) -> Optional[str]:
        """Failure reason once the store degraded to read-only, else None."""
        return self._failed

    def _tree(self, name: str) -> BTree:
        if name == _CATALOG:
            raise StorageError("reserved tree name")
        tree = self._trees.get(name)
        if tree is None:
            tree = self._open_tree_at(-1)
            self._trees[name] = tree
        return tree

    def tree_names(self) -> List[str]:
        with self._lock:
            return sorted(self._trees)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def get(self, tree: str, key: bytes) -> Optional[bytes]:
        with self._lock:
            self._check_open()
            return self._tree(tree).get(key)

    def items(
        self,
        tree: str,
        start: Optional[bytes] = None,
        end: Optional[bytes] = None,
        prefix: Optional[bytes] = None,
        limit: Optional[int] = None,
    ) -> List[Tuple[bytes, bytes]]:
        """Materialized ordered scan (a snapshot under the store lock).

        ``limit`` bounds the number of returned pairs, enabling paged
        scans over tables larger than memory (iteration stops as soon as
        the bound is hit; it does not materialize the rest).
        """
        with self._lock:
            self._check_open()
            iterator = self._tree(tree).items(start=start, end=end, prefix=prefix)
            if limit is None:
                return list(iterator)
            return list(itertools.islice(iterator, max(0, limit)))

    def count(self, tree: str) -> int:
        with self._lock:
            self._check_open()
            return len(self._tree(tree))

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def begin(self) -> Transaction:
        with self._lock:
            self._check_writable()
            txn = Transaction(self, self._next_txid)
            self._next_txid += 1
            return txn

    def put(self, tree: str, key: bytes, value: bytes) -> None:
        """Autocommit single put."""
        with self.begin() as txn:
            txn.put(tree, key, value)

    def delete(self, tree: str, key: bytes) -> None:
        """Autocommit single delete."""
        with self.begin() as txn:
            txn.delete(tree, key)

    def _commit_transaction(self, txn: Transaction) -> None:
        with self._lock:
            self._check_writable()
            ops = []
            staged = []
            for name, key, value in txn.pending_writes():
                # Validate everything the B-trees could reject *before*
                # the WAL append: a transaction that is durable in the
                # log but unapplied in memory would resurrect on reopen.
                if len(key) > MAX_KEY_SIZE:
                    raise KeyTooLargeError(
                        f"key of {len(key)} bytes exceeds {MAX_KEY_SIZE}"
                    )
                if name == _CATALOG:
                    raise StorageError("reserved tree name")
                if value is TOMBSTONE:
                    # Deleting an absent key changes nothing, so nothing
                    # is logged or applied.  Commits are serialized
                    # under this lock, so replay finds the key absent
                    # at this point of the log too.
                    tree = self._trees.get(name)
                    if tree is None or key not in tree:
                        continue
                    ops.append((OP_DELETE, name.encode("utf-8"), key, b""))
                else:
                    ops.append((OP_PUT, name.encode("utf-8"), key, value))
                staged.append((name, key, value))
            if not ops:
                return
            # WAL first (write-ahead), then the in-memory trees.
            self._wal.append_transaction(txn.txid, ops)
            for name, key, value in staged:
                if value is TOMBSTONE:
                    self._tree(name).delete(key)
                else:
                    self._tree(name).put(key, value)  # type: ignore[arg-type]
            self._ops_since_checkpoint += len(ops)
            if (
                self.auto_checkpoint_ops
                and self._ops_since_checkpoint >= self.auto_checkpoint_ops
            ):
                self.checkpoint()

    def drop_tree(self, tree: str) -> int:
        """Delete every key of a tree; returns how many were removed.

        Implemented as logged deletions (one transaction per batch), so
        the drop is crash-safe like any other write: a crash mid-drop
        recovers to a prefix of the batches.
        """
        removed = 0
        with self._lock:
            self._check_open()
            while True:
                batch = [k for k, _v in self.items(tree, limit=512)]
                if not batch:
                    break
                with self.begin() as txn:
                    for key in batch:
                        txn.delete(tree, key)
                removed += len(batch)
        return removed

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def checkpoint(self) -> None:
        """Flush all trees to the page file, flip meta, truncate the WAL.

        A checkpoint that fails part-way is unresumable: the new meta
        block (naming a fresh WAL segment) may or may not be durable, so
        continuing to log into the old segment could silently lose every
        later commit.  The store therefore latches into a read-only
        *failed* state — reads keep working, writes raise
        :class:`StorageError` — until it is reopened, at which point
        recovery picks whichever checkpoint is durable.
        """
        with self._lock:
            self._check_writable()
            checkpoint_started = time.perf_counter()
            try:
                for name, tree in self._trees.items():
                    self._catalog.put(
                        name.encode("utf-8"),
                        tree.root.to_bytes(8, "little", signed=True),
                    )
                new_seq = self._pager.meta.wal_seq + 1
                self._pager.commit_checkpoint(self._catalog.root, new_seq)
                self._wal.rotate(new_seq)
            except Exception as exc:
                # Breadth is intentional: *any* failure here leaves the
                # checkpoint unresumable, and the error is re-raised as
                # StorageError rather than absorbed.
                _M_CHECKPOINT_FAILURES.inc()
                self._failed = f"checkpoint failed: {exc}"
                raise StorageError(self._failed) from exc
            self._epoch = self._pager.meta.checkpoint_id + 1
            self._catalog.begin_epoch(self._epoch)
            for tree in self._trees.values():
                tree.begin_epoch(self._epoch)
            self._ops_since_checkpoint = 0
            _M_CHECKPOINTS.inc()
            _M_CHECKPOINT_SECONDS.observe(
                time.perf_counter() - checkpoint_started
            )

    def close(self, checkpoint: bool = True) -> None:
        with self._lock:
            if self._closed:
                return
            if self._failed is None and not self._wal.broken:
                if checkpoint:
                    self.checkpoint()
                self._wal.close()
                self._pager.close()
            else:
                # Best-effort teardown of a failed store: never sync, a
                # failed checkpoint already poisoned the write path.
                # Only I/O and storage-state errors are expected here;
                # anything else is a bug and propagates.
                try:
                    self._wal.close(sync=False)
                except (OSError, StorageError, ValueError):
                    _M_ERR_FAILED_CLOSE.inc()
                try:
                    self._pager.close()
                except (OSError, StorageError, ValueError):
                    _M_ERR_FAILED_CLOSE.inc()
            self._closed = True

    def __enter__(self) -> "KVStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def checkpoint_id(self) -> int:
        return self._pager.meta.checkpoint_id

    @property
    def wal_seq(self) -> int:
        return self._wal.seq

    @property
    def wal_size(self) -> int:
        """Bytes appended to the current WAL segment."""
        return self._wal.size

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "trees": len(self._trees),
                "checkpoint_id": self._pager.meta.checkpoint_id,
                "next_page_id": self._pager.meta.next_page_id,
                "free_pages": len(self._pager.free_list),
                "pending_free_pages": len(self._pager.pending_free),
                "ops_since_checkpoint": self._ops_since_checkpoint,
            }

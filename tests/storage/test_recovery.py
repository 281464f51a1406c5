"""Crash-recovery tests: killed processes, torn logs, replay idempotence."""

import os
import subprocess
import sys
import textwrap

import pytest

from repro.storage import KVStore, WriteAheadLog
from repro.storage.errors import StorageError
from repro.storage.recovery import replay_segment
from repro.storage.wal import OP_DELETE, OP_PUT


def _crash_process(code: str) -> None:
    """Run python code in a child that os._exit(1)s at the end."""
    result = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 1, result.stderr


class TestReplaySegment:
    def _write(self, tmp_path, transactions):
        wal = WriteAheadLog(str(tmp_path), 0, sync_policy="none")
        for txid, ops in transactions:
            wal.append_transaction(txid, ops)
        wal.close()
        return wal.segment_path(0)

    def _replay(self, path):
        applied = []
        report = replay_segment(
            path,
            apply_put=lambda t, k, v: applied.append(("put", t, k, v)),
            apply_delete=lambda t, k: applied.append(("del", t, k)),
        )
        return report, applied

    def test_committed_txn_replayed(self, tmp_path):
        path = self._write(tmp_path, [
            (1, [(OP_PUT, b"t", b"a", b"1"), (OP_DELETE, b"t", b"b", b"")]),
        ])
        report, applied = self._replay(path)
        assert report.transactions_replayed == 1
        assert report.operations_applied == 2
        assert applied == [("put", "t", b"a", b"1"), ("del", "t", b"b")]

    def test_uncommitted_txn_skipped(self, tmp_path):
        # Crashed mid-append: the second record is on disk only in part.
        path = self._write(tmp_path, [
            (1, [(OP_PUT, b"t", b"a", b"1")]),
            (2, [(OP_PUT, b"t", b"b", b"2")]),
        ])
        with open(path, "r+b") as fh:
            fh.truncate(os.path.getsize(path) - 3)
        report, applied = self._replay(path)
        assert report.transactions_replayed == 1
        assert report.torn_tail
        assert applied == [("put", "t", b"a", b"1")]

    def test_interleaved_transactions(self, tmp_path):
        # Commit order, not txid order: txn 2 committed first, so txn
        # 1's value wins.
        path = self._write(tmp_path, [
            (2, [(OP_PUT, b"t", b"a", b"two")]),
            (1, [(OP_PUT, b"t", b"a", b"one")]),
        ])
        _report, applied = self._replay(path)
        assert applied == [("put", "t", b"a", b"two"), ("put", "t", b"a", b"one")]

    def test_orphan_ops_without_begin_dropped(self, tmp_path):
        """Ops not covered by a whole record are never applied: a
        CRC-valid record whose header declares more ops than its body
        holds is damage, and no op of it is replayed."""
        import struct
        import zlib

        path = self._write(tmp_path, [(4, [(OP_PUT, b"t", b"w", b"z")])])
        good = os.path.getsize(path)
        op = struct.pack("<BHIQ", OP_PUT, 1, 1, 1) + b"t" + b"x" + b"y"
        payload = struct.pack("<BQI", 5, 5, 2) + op
        with open(path, "ab") as fh:
            fh.write(struct.pack("<II", len(payload), zlib.crc32(payload)) + payload)
        report, applied = self._replay(path)
        assert applied == [("put", "t", b"w", b"z")]
        assert report.transactions_replayed == 1
        assert report.torn_tail and report.valid_bytes == good

    def test_max_txid_tracked(self, tmp_path):
        path = self._write(tmp_path, [(17, []), (3, [])])
        report, _ = self._replay(path)
        assert report.max_txid == 17


class TestCrashedProcessRecovery:
    def test_commits_after_checkpoint_survive_crash(self, tmp_path):
        path = str(tmp_path / "crash1")
        _crash_process(f"""
            import os
            from repro.storage import KVStore
            s = KVStore({path!r}, sync_policy="commit", auto_checkpoint_ops=0)
            for i in range(40):
                s.put("t", f"pre{{i:03d}}".encode(), b"x")
            s.checkpoint()
            for i in range(30):
                s.put("t", f"post{{i:03d}}".encode(), b"y")
            os._exit(1)
        """)
        with KVStore(path) as s:
            assert s.count("t") == 70
            assert s.last_recovery.transactions_replayed == 30
            assert s.get("t", b"post029") == b"y"

    def test_open_transaction_lost_on_crash(self, tmp_path):
        path = str(tmp_path / "crash2")
        _crash_process(f"""
            import os
            from repro.storage import KVStore
            s = KVStore({path!r}, sync_policy="commit", auto_checkpoint_ops=0)
            s.put("t", b"committed", b"1")
            txn = s.begin()
            txn.put("t", b"uncommitted", b"2")
            # crash before commit
            os._exit(1)
        """)
        with KVStore(path) as s:
            assert s.get("t", b"committed") == b"1"
            assert s.get("t", b"uncommitted") is None

    def test_double_crash_recovery_idempotent(self, tmp_path):
        """Crash, recover, crash again immediately: state converges."""
        path = str(tmp_path / "crash3")
        _crash_process(f"""
            import os
            from repro.storage import KVStore
            s = KVStore({path!r}, sync_policy="commit", auto_checkpoint_ops=0)
            for i in range(20):
                s.put("t", f"k{{i:02d}}".encode(), str(i).encode())
            os._exit(1)
        """)
        # First recovery (also crashes right after opening).
        _crash_process(f"""
            import os
            from repro.storage import KVStore
            s = KVStore({path!r})
            assert s.count("t") == 20
            os._exit(1)
        """)
        with KVStore(path) as s:
            assert s.count("t") == 20
            assert dict(s.items("t")) == {
                f"k{i:02d}".encode(): str(i).encode() for i in range(20)
            }

    def test_crash_with_deletes_and_overwrites(self, tmp_path):
        path = str(tmp_path / "crash4")
        _crash_process(f"""
            import os
            from repro.storage import KVStore
            s = KVStore({path!r}, sync_policy="commit", auto_checkpoint_ops=0)
            for i in range(10):
                s.put("t", f"k{{i}}".encode(), b"v1")
            s.checkpoint()
            s.delete("t", b"k0")
            s.put("t", b"k1", b"v2")
            with s.begin() as txn:
                txn.delete("t", b"k2")
                txn.put("t", b"k3", b"v3")
            os._exit(1)
        """)
        with KVStore(path) as s:
            assert s.get("t", b"k0") is None
            assert s.get("t", b"k1") == b"v2"
            assert s.get("t", b"k2") is None
            assert s.get("t", b"k3") == b"v3"
            assert s.get("t", b"k4") == b"v1"

    def test_recovery_checkpoint_truncates_wal(self, tmp_path):
        """After recovery the store checkpoints, so a reopen replays nothing."""
        path = str(tmp_path / "crash5")
        _crash_process(f"""
            import os
            from repro.storage import KVStore
            s = KVStore({path!r}, sync_policy="commit", auto_checkpoint_ops=0)
            s.put("t", b"k", b"v")
            os._exit(1)
        """)
        with KVStore(path) as s:
            assert s.last_recovery.transactions_replayed == 1
        with KVStore(path) as s:
            assert s.last_recovery.transactions_replayed == 0
            assert s.get("t", b"k") == b"v"


class TestTornTailRepairOnOpen:
    def _wal_path(self, store_dir):
        wals = sorted(n for n in os.listdir(store_dir) if n.startswith("wal."))
        assert len(wals) == 1, wals
        return os.path.join(store_dir, wals[0])

    def test_commits_after_torn_only_txn_survive_next_crash(self, tmp_path):
        """Torn tail with zero replayable transactions must be repaired.

        Regression: recovery used to repair (via checkpoint) only when
        it had replayed operations, so a segment whose *first*
        transaction was torn reopened append-mode at full size.  New
        acknowledged, fsynced commits then landed after the torn frame,
        and the next recovery — which stops at the first damaged
        record — silently lost all of them.
        """
        path = str(tmp_path / "torn")
        with KVStore(path, sync_policy="commit", auto_checkpoint_ops=0) as s:
            s.put("t", b"base", b"0")
        # The close checkpointed, so the current segment is empty.  Tear
        # its very first frame: a few bytes shorter than a frame header.
        with open(self._wal_path(path), "ab") as fh:
            fh.write(b"\x9c\xff\xff")
        s = KVStore(path, sync_policy="commit", auto_checkpoint_ops=0)
        assert s.last_recovery.torn_tail
        assert s.last_recovery.operations_applied == 0
        s.put("t", b"after", b"1")  # acknowledged and fsynced
        s.close(checkpoint=False)  # crash stand-in: no rotation
        with KVStore(path) as s2:
            assert s2.last_recovery.transactions_replayed == 1
            assert s2.get("t", b"after") == b"1"
            assert s2.get("t", b"base") == b"0"

    def test_torn_tail_truncated_to_last_intact_record(self, tmp_path):
        """Damage after an intact record is cut precisely."""
        path = str(tmp_path / "torn2")
        with KVStore(path, sync_policy="commit", auto_checkpoint_ops=0) as s:
            s.put("t", b"base", b"0")
        wal_path = self._wal_path(path)
        # Hand-craft a segment: one intact record (no ops, so recovery
        # does not checkpoint it away), then garbage.
        wal = WriteAheadLog(os.path.dirname(wal_path), int(wal_path[-8:]),
                            sync_policy="none")
        wal.append_transaction(7, [])
        intact = wal.size
        wal.close()
        with open(wal_path, "ab") as fh:
            fh.write(b"\x01\x02")
        s = KVStore(path, sync_policy="commit", auto_checkpoint_ops=0)
        assert s.last_recovery.torn_tail
        assert s.last_recovery.valid_bytes == intact
        assert os.path.getsize(wal_path) == intact
        # Replay after the repair sees only clean frames again.
        s.put("t", b"k", b"v")
        s.close(checkpoint=False)
        with KVStore(path) as s2:
            assert s2.get("t", b"k") == b"v"


# The per-operation layout older stores wrote, packed as they packed it:
# <len><crc32> frames of <type:u8><txid:u64><tree_len:u16> tree
# <key_len:u32> key <value_len:u64> value, with BEGIN = 1, PUT = 2,
# DELETE = 3 and COMMIT = 4.
def _old_layout_frame(rec_type, txid, tree=b"", key=b"", value=b""):
    import struct
    import zlib

    payload = b"".join((
        struct.pack("<BQH", rec_type, txid, len(tree)), tree,
        struct.pack("<I", len(key)), key,
        struct.pack("<Q", len(value)), value,
    ))
    return struct.pack("<II", len(payload), zlib.crc32(payload)) + payload


class TestOlderLayoutRefused:
    def test_per_operation_segment_refused_and_left_untouched(self, tmp_path):
        path = str(tmp_path / "old")
        with KVStore(path, auto_checkpoint_ops=0) as s:
            s.put("t", b"base", b"0")
        wals = [n for n in os.listdir(path) if n.startswith("wal.")]
        wal_path = os.path.join(path, wals[0])
        old = (
            _old_layout_frame(1, 2)
            + _old_layout_frame(2, 2, b"t", b"k", b"v")
            + _old_layout_frame(4, 2)
        )
        with open(wal_path, "wb") as fh:
            fh.write(old)
        with open(os.path.join(path, "data.db"), "rb") as fh:
            data_before = fh.read()
        with pytest.raises(StorageError, match="older"):
            KVStore(path)
        with open(wal_path, "rb") as fh:
            assert fh.read() == old  # neither replayed nor cut as a torn tail
        with open(os.path.join(path, "data.db"), "rb") as fh:
            assert fh.read() == data_before
        assert sorted(os.listdir(path)) == sorted(["data.db"] + wals)

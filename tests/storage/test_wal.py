"""Tests for the write-ahead log."""

import errno
import os
import random
import struct
import tempfile
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultyFilesystem
from repro.observability import metrics as _metrics
from repro.storage.errors import StorageError
from repro.storage.wal import (
    OP_DELETE,
    OP_PUT,
    WalTransaction,
    WriteAheadLog,
    _pack_transaction,
    _unpack_transaction,
)


def _encoded(ops):
    return [(op, tree.encode("utf-8"), key, value) for op, tree, key, value in ops]


def _roundtrip(txid, ops):
    return _unpack_transaction(_pack_transaction(txid, _encoded(ops)))


def _transactions(path):
    return WriteAheadLog.scan_segment(path).transactions


class TestRecordCodec:
    def test_roundtrip(self):
        ops = [(OP_PUT, "objects", b"key\x00bytes", b"value" * 100), (OP_DELETE, "t", b"k", b"")]
        assert _roundtrip(42, ops) == WalTransaction(42, ops)

    def test_empty_fields(self):
        assert _roundtrip(1, []) == WalTransaction(1, [])
        assert _roundtrip(2, [(OP_PUT, "", b"", b"")]) == WalTransaction(2, [(OP_PUT, "", b"", b"")])

    def test_unicode_tree_name(self):
        ops = [(OP_DELETE, "tabela-ąć", b"k", b"")]
        assert _roundtrip(3, ops) == WalTransaction(3, ops)


class TestAppendRead:
    def test_roundtrip_through_file(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path), 0, sync_policy="none")
        logged = [
            WalTransaction(1, [(OP_PUT, "t", b"a", b"1")]),
            WalTransaction(2, [(OP_DELETE, "t", b"a", b""), (OP_PUT, "u", b"b", b"2")]),
        ]
        for txid, ops in logged:
            wal.append_transaction(txid, _encoded(ops))
        wal.close()
        assert _transactions(wal.segment_path(0)) == logged

    def test_append_transaction_envelope(self, tmp_path):
        # The record is the whole transaction: one frame, no BEGIN/COMMIT.
        wal = WriteAheadLog(str(tmp_path), 0, sync_policy="none")
        wal.append_transaction(9, [(OP_PUT, b"t", b"k", b"v"), (OP_PUT, b"t", b"l", b"w")])
        wal.close()
        scan = WriteAheadLog.scan_segment(wal.segment_path(0))
        assert scan.transactions == [
            WalTransaction(9, [(OP_PUT, "t", b"k", b"v"), (OP_PUT, "t", b"l", b"w")])
        ]
        assert scan.valid_bytes == os.path.getsize(wal.segment_path(0))

    def test_missing_segment_yields_nothing(self, tmp_path):
        assert _transactions(str(tmp_path / "absent")) == []

    def test_torn_tail_ignored(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path), 0, sync_policy="none")
        wal.append_transaction(1, [(OP_PUT, b"t", b"k", b"v")])
        wal.close()
        path = wal.segment_path(0)
        # Append garbage that looks like the start of a frame.
        with open(path, "ab") as fh:
            fh.write(b"\x50\x00\x00\x00\x12\x34")
        scan = WriteAheadLog.scan_segment(path)
        assert scan.torn_tail
        assert [t.txid for t in scan.transactions] == [1]  # intact, tail dropped

    def test_corrupt_mid_record_stops_scan(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path), 0, sync_policy="none")
        for txid in (1, 2):
            wal.append_transaction(txid, [(OP_PUT, b"t", b"k", b"v")])
        wal.close()
        path = wal.segment_path(0)
        size = os.path.getsize(path)
        with open(path, "r+b") as fh:
            fh.seek(size * 3 // 4)
            fh.write(b"\xff\xff\xff\xff")
        # Only records before the corruption survive; nothing blows up.
        assert [t.txid for t in _transactions(path)] == [1]

    def test_bad_sync_policy(self, tmp_path):
        with pytest.raises(StorageError):
            WriteAheadLog(str(tmp_path), 0, sync_policy="yolo")


class TestRotation:
    def test_rotate_deletes_old_segments(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path), 0, sync_policy="none")
        wal.append_transaction(1, [(OP_PUT, b"t", b"k", b"v")])
        old_path = wal.segment_path(0)
        wal.rotate(1)
        assert not os.path.exists(old_path)
        assert os.path.exists(wal.segment_path(1))
        wal.append_transaction(2, [(OP_PUT, b"t", b"k2", b"v")])
        wal.close()
        assert [t.txid for t in _transactions(wal.segment_path(1))] == [2]

    def test_batch_sync_counts_commits(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path), 0, sync_policy="batch", batch_size=3)
        for txid in range(1, 8):
            wal.append_transaction(txid, [])
        # 7 commits with batch of 3: last fsync at 6, one unsynced commit left.
        assert wal._unsynced_commits == 1
        wal.close()


class TestTornTailRepair:
    def test_truncate_to_cuts_damage_and_appends_cleanly(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path), 0, sync_policy="none")
        wal.append_transaction(1, [(OP_PUT, b"t", b"k", b"v")])
        good = wal.size
        wal.close()
        path = wal.segment_path(0)
        with open(path, "ab") as fh:
            fh.write(b"\xff\xff\xff")  # partial frame header
        reopened = WriteAheadLog(str(tmp_path), 0, sync_policy="none")
        assert reopened.size == good + 3
        reopened.truncate_to(good)
        assert reopened.size == good
        reopened.append_transaction(2, [(OP_PUT, b"t", b"k2", b"v2")])
        reopened.close()
        scan = WriteAheadLog.scan_segment(path)
        assert not scan.torn_tail
        assert [t.txid for t in scan.transactions] == [1, 2]

    def test_truncate_to_never_grows_the_segment(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path), 0, sync_policy="none")
        wal.append_transaction(1, [])
        size = wal.size
        wal.truncate_to(size)
        wal.truncate_to(size + 100)
        assert wal.size == size
        wal.close()

    def test_close_without_sync_skips_fsync(self, tmp_path):
        from repro.faults import FaultyFilesystem

        ffs = FaultyFilesystem()
        wal = WriteAheadLog(str(tmp_path), 0, sync_policy="none", fs=ffs)
        wal.append_transaction(1, [(OP_PUT, b"t", b"k", b"v")])
        wal.close(sync=False)
        assert ffs.fsync_log == []
        # The default close of a healthy log still syncs.
        ffs2 = FaultyFilesystem()
        wal2 = WriteAheadLog(str(tmp_path), 1, sync_policy="none", fs=ffs2)
        wal2.append_transaction(2, [])
        wal2.close()
        assert len(ffs2.fsync_log) == 1


# -- record framing ---------------------------------------------------------
# A commit hands the log plain (op, tree_utf8, key, value) tuples; the
# bytes on disk must be exactly one frame holding all of them, written
# with one write, and replay must read the same operations back.
_small_values = st.binary(max_size=64)
_large_values = st.tuples(st.integers(9 * 1024, 12 * 1024), st.integers(0, 2**32)).map(
    lambda t: random.Random(t[1]).randbytes(t[0])
)
_ops = st.one_of(
    st.tuples(
        st.just(OP_PUT),
        st.text(max_size=12),
        st.binary(max_size=24),
        st.one_of(_small_values, _large_values),
    ),
    st.tuples(st.just(OP_DELETE), st.text(max_size=12), st.binary(max_size=24), st.just(b"")),
)


def _reference_frame(txid, ops):
    # The record layout written out field by field, independent of wal.py.
    body = b""
    for op, tree, key, value in ops:
        tree_b = tree.encode("utf-8")
        body += struct.pack("<BHIQ", op, len(tree_b), len(key), len(value)) + tree_b + key + value
    payload = struct.pack("<BQI", 5, txid, len(ops)) + body
    return struct.pack("<II", len(payload), zlib.crc32(payload)) + payload


def _counter(name):
    return _metrics.get_registry().value(name)


class _EnospcAfter:
    """File proxy whose next write puts ``keep`` bytes down, then fails
    with ENOSPC, as a full disk can mid-write."""

    def __init__(self, inner, keep):
        self._inner = inner
        self._keep = keep

    def write(self, data):
        self._inner.write(data[: self._keep])
        raise OSError(errno.ENOSPC, "No space left on device")

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestFraming:
    @settings(max_examples=60, deadline=None)
    @given(txid=st.integers(1, 2**63), ops=st.lists(_ops, max_size=6))
    def test_burst_writes_exactly_the_record_frames(self, txid, ops):
        with tempfile.TemporaryDirectory() as directory:
            ffs = FaultyFilesystem()
            wal = WriteAheadLog(directory, 0, sync_policy="none", fs=ffs)
            appends, commits = _counter("wal.appends"), _counter("wal.commits")
            wal.append_transaction(txid, _encoded(ops))
            assert _counter("wal.appends") - appends == 1
            assert _counter("wal.commits") - commits == 1
            assert ffs.op_count == 1  # one write for the whole transaction
            wal.close(sync=False)
            path = wal.segment_path(0)
            with open(path, "rb") as fh:
                assert fh.read() == _reference_frame(txid, ops)
            assert wal.size == os.path.getsize(path)
            assert _transactions(path) == [WalTransaction(txid, list(ops))]

    @pytest.mark.parametrize("quarters", [0, 1, 2, 3])
    def test_enospc_mid_burst_truncates_to_pre_burst_size(self, tmp_path, quarters):
        """ENOSPC after ``quarters`` quarters of the frame reached the
        file: the segment is cut back to its size before the commit."""
        wal = WriteAheadLog(str(tmp_path), 0, sync_policy="none")
        wal.append_transaction(1, [(OP_PUT, b"t", b"k", b"v")])
        before = wal.size
        ops = [(OP_PUT, "tabela-ąć".encode("utf-8"), b"", b"x" * 9216), (OP_DELETE, b"t", b"k", b"")]
        frame = len(_pack_transaction(2, ops)) + 8
        real_file = wal._file
        wal._file = _EnospcAfter(real_file, frame * quarters // 4)
        appends = _counter("wal.appends")
        with pytest.raises(OSError) as exc_info:
            wal.append_transaction(2, ops)
        assert exc_info.value.errno == errno.ENOSPC
        assert _counter("wal.appends") == appends
        wal._file = real_file
        assert wal.size == before == os.path.getsize(wal.segment_path(0))
        assert not wal.broken
        # The log stays usable, and only whole transactions are on disk.
        wal.append_transaction(3, [(OP_PUT, b"t", b"k3", b"v3")])
        wal.close()
        scan = WriteAheadLog.scan_segment(wal.segment_path(0))
        assert not scan.torn_tail
        assert [t.txid for t in scan.transactions] == [1, 3]

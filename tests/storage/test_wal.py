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

from repro.faults import FaultPlan, FaultyFilesystem
from repro.observability import metrics as _metrics
from repro.storage.errors import StorageError
from repro.storage.wal import (
    REC_BEGIN,
    REC_COMMIT,
    REC_DELETE,
    REC_PUT,
    WalRecord,
    WriteAheadLog,
)


class TestRecordCodec:
    def test_roundtrip(self):
        rec = WalRecord(REC_PUT, 42, "objects", b"key\x00bytes", b"value" * 100)
        assert WalRecord.unpack(rec.pack()) == rec

    def test_empty_fields(self):
        rec = WalRecord(REC_BEGIN, 1)
        assert WalRecord.unpack(rec.pack()) == rec

    def test_unicode_tree_name(self):
        rec = WalRecord(REC_DELETE, 3, "tabela-ąć", b"k")
        assert WalRecord.unpack(rec.pack()) == rec


class TestAppendRead:
    def test_roundtrip_through_file(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path), 0, sync_policy="none")
        records = [
            WalRecord(REC_BEGIN, 1),
            WalRecord(REC_PUT, 1, "t", b"a", b"1"),
            WalRecord(REC_COMMIT, 1),
        ]
        for rec in records:
            wal.append(rec)
        wal.close()
        read = list(WriteAheadLog.read_segment(wal.segment_path(0)))
        assert read == records

    def test_append_transaction_envelope(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path), 0, sync_policy="none")
        wal.append_transaction(9, [(REC_PUT, b"t", b"k", b"v")])
        wal.close()
        read = list(WriteAheadLog.read_segment(wal.segment_path(0)))
        assert [r.rec_type for r in read] == [REC_BEGIN, REC_PUT, REC_COMMIT]
        assert all(r.txid == 9 for r in read)

    def test_missing_segment_yields_nothing(self, tmp_path):
        assert list(WriteAheadLog.read_segment(str(tmp_path / "absent"))) == []

    def test_torn_tail_ignored(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path), 0, sync_policy="none")
        wal.append_transaction(1, [(REC_PUT, b"t", b"k", b"v")])
        wal.close()
        path = wal.segment_path(0)
        # Append garbage that looks like the start of a frame.
        with open(path, "ab") as fh:
            fh.write(b"\x50\x00\x00\x00\x12\x34")
        read = list(WriteAheadLog.read_segment(path))
        assert len(read) == 3  # complete transaction intact, tail dropped

    def test_corrupt_mid_record_stops_scan(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path), 0, sync_policy="none")
        for txid in (1, 2):
            wal.append_transaction(txid, [(REC_PUT, b"t", b"k", b"v")])
        wal.close()
        path = wal.segment_path(0)
        size = os.path.getsize(path)
        with open(path, "r+b") as fh:
            fh.seek(size // 2)
            fh.write(b"\xff\xff\xff\xff")
        read = list(WriteAheadLog.read_segment(path))
        # Only records before the corruption survive; nothing blows up.
        assert all(r.txid == 1 for r in read)

    def test_bad_sync_policy(self, tmp_path):
        with pytest.raises(StorageError):
            WriteAheadLog(str(tmp_path), 0, sync_policy="yolo")


class TestRotation:
    def test_rotate_deletes_old_segments(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path), 0, sync_policy="none")
        wal.append_transaction(1, [(REC_PUT, b"t", b"k", b"v")])
        old_path = wal.segment_path(0)
        wal.rotate(1)
        assert not os.path.exists(old_path)
        assert os.path.exists(wal.segment_path(1))
        wal.append_transaction(2, [(REC_PUT, b"t", b"k2", b"v")])
        wal.close()
        read = list(WriteAheadLog.read_segment(wal.segment_path(1)))
        assert all(r.txid == 2 for r in read)

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
        wal.append_transaction(1, [(REC_PUT, b"t", b"k", b"v")])
        good = wal.size
        wal.close()
        path = wal.segment_path(0)
        with open(path, "ab") as fh:
            fh.write(b"\xff\xff\xff")  # partial frame header
        reopened = WriteAheadLog(str(tmp_path), 0, sync_policy="none")
        assert reopened.size == good + 3
        reopened.truncate_to(good)
        assert reopened.size == good
        reopened.append_transaction(2, [(REC_PUT, b"t", b"k2", b"v2")])
        reopened.close()
        scan = WriteAheadLog.scan_segment(path)
        assert not scan.torn_tail
        assert sorted({r.txid for r in scan.records}) == [1, 2]

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
        wal.append_transaction(1, [(REC_PUT, b"t", b"k", b"v")])
        wal.close(sync=False)
        assert ffs.fsync_log == []
        # The default close of a healthy log still syncs.
        ffs2 = FaultyFilesystem()
        wal2 = WriteAheadLog(str(tmp_path), 1, sync_policy="none", fs=ffs2)
        wal2.append_transaction(2, [])
        wal2.close()
        assert len(ffs2.fsync_log) == 1


# -- frame packing ----------------------------------------------------------
# A commit hands the log plain (rec_type, tree_utf8, key, value) tuples;
# the bytes on disk must be exactly the frames of the WalRecords replay
# reads back, one write per frame.
_small_values = st.binary(max_size=64)
_large_values = st.tuples(st.integers(9 * 1024, 12 * 1024), st.integers(0, 2**32)).map(
    lambda t: random.Random(t[1]).randbytes(t[0])
)
_ops = st.one_of(
    st.tuples(
        st.just(REC_PUT),
        st.text(max_size=12),
        st.binary(max_size=24),
        st.one_of(_small_values, _large_values),
    ),
    st.tuples(st.just(REC_DELETE), st.text(max_size=12), st.binary(max_size=24), st.just(b"")),
)


def _reference_pack(record):
    # The record layout written out field by field, independent of wal.py.
    tree_b = record.tree.encode("utf-8")
    return (
        struct.pack("<BQH", record.rec_type, record.txid, len(tree_b))
        + tree_b
        + struct.pack("<I", len(record.key))
        + record.key
        + struct.pack("<Q", len(record.value))
        + record.value
    )


def _frames(records):
    payloads = [r.pack() for r in records]
    assert payloads == [_reference_pack(r) for r in records]
    return b"".join(struct.pack("<II", len(p), zlib.crc32(p)) + p for p in payloads)


def _counter(name):
    return _metrics.get_registry().value(name)


class TestFraming:
    @settings(max_examples=60, deadline=None)
    @given(txid=st.integers(1, 2**63), ops=st.lists(_ops, max_size=6))
    def test_burst_writes_exactly_the_record_frames(self, txid, ops):
        records = (
            [WalRecord(REC_BEGIN, txid)]
            + [WalRecord(t, txid, tree, key, value) for t, tree, key, value in ops]
            + [WalRecord(REC_COMMIT, txid)]
        )
        with tempfile.TemporaryDirectory() as directory:
            ffs = FaultyFilesystem()
            wal = WriteAheadLog(directory, 0, sync_policy="none", fs=ffs)
            appends, commits = _counter("wal.appends"), _counter("wal.commits")
            wal.append_transaction(
                txid, [(t, tree.encode("utf-8"), k, v) for t, tree, k, v in ops]
            )
            assert _counter("wal.appends") - appends == len(ops) + 2
            assert _counter("wal.commits") - commits == 1
            assert ffs.op_count == len(records)  # one write per frame
            wal.close(sync=False)
            path = wal.segment_path(0)
            with open(path, "rb") as fh:
                assert fh.read() == _frames(records)
            assert wal.size == os.path.getsize(path)
            assert WriteAheadLog.scan_segment(path).records == records

    @pytest.mark.parametrize("fail_at", [0, 1, 2, 3])
    def test_enospc_mid_burst_truncates_to_pre_burst_size(self, tmp_path, fail_at):
        ffs = FaultyFilesystem()
        wal = WriteAheadLog(str(tmp_path), 0, sync_policy="none", fs=ffs)
        wal.append_transaction(1, [(REC_PUT, b"t", b"k", b"v")])
        before = wal.size
        ffs.plan = FaultPlan.error_at(ffs.op_count + fail_at, err=errno.ENOSPC)
        ops = [(REC_PUT, "tabela-ąć".encode("utf-8"), b"", b"x" * 9216), (REC_DELETE, b"t", b"k", b"")]
        with pytest.raises(OSError) as exc_info:
            wal.append_transaction(2, ops)
        assert exc_info.value.errno == errno.ENOSPC
        assert wal.size == before == os.path.getsize(wal.segment_path(0))
        assert not wal.broken
        # The log stays usable, and only whole transactions are on disk.
        wal.append_transaction(3, [(REC_PUT, b"t", b"k3", b"v3")])
        wal.close()
        scan = WriteAheadLog.scan_segment(wal.segment_path(0))
        assert not scan.torn_tail
        assert [r.txid for r in scan.records] == [1, 1, 1, 3, 3, 3]

"""Regression tests for the narrowed exception handlers.

Each formerly-broad ``except Exception`` site now absorbs only the
specific failures it exists for (and counts them in an
``errors_absorbed.*`` metric); everything else — a TypeError from a
plug-in bug, an arithmetic error in a handler — must propagate.  These
tests pin both halves of that contract per site.
"""

import os

import numpy as np
import pytest

from repro.acquisition import DirectoryScanner
from repro.core import (
    DataTypePlugin,
    FeatureMeta,
    SimilaritySearchEngine,
    SketchParams,
)
from repro.observability import metrics as _metrics
from repro.server.client import ClientError
from repro.storage.errors import StorageError
from repro.storage.wal import WriteAheadLog
from repro.web.webserver import WebApp


def _value(name):
    return _metrics.get_registry().value(name)


# ---------------------------------------------------------------------------
# acquisition/scanner.scan_once: a bad file fails that file, a bug fails loud
# ---------------------------------------------------------------------------
class _BoomPlugin:
    @staticmethod
    def make_engine(exc):
        meta = FeatureMeta(4, np.zeros(4), np.ones(4))

        def extract(path):
            raise exc

        plugin = DataTypePlugin("npy", meta, seg_extract=extract)
        return SimilaritySearchEngine(plugin, SketchParams(64, meta, seed=0))


def _stage_stable_file(tmp_path):
    path = os.path.join(str(tmp_path), "obj.npy")
    np.save(path, np.random.default_rng(0).random((2, 4)))
    return path


class TestScannerNarrowing:
    def test_bad_file_absorbed_and_counted(self, tmp_path):
        engine = _BoomPlugin.make_engine(ValueError("malformed file"))
        scanner = DirectoryScanner(engine, str(tmp_path), extensions=(".npy",))
        path = _stage_stable_file(tmp_path)
        scanner.scan_once()  # first sighting: size not yet stable
        before = _value("errors_absorbed.acquisition.import")
        report = scanner.scan_once()
        assert path in report.failed
        assert "ValueError" in report.failed[path]
        assert _value("errors_absorbed.acquisition.import") == before + 1

    def test_storage_error_absorbed(self, tmp_path):
        engine = _BoomPlugin.make_engine(StorageError("disk full"))
        scanner = DirectoryScanner(engine, str(tmp_path), extensions=(".npy",))
        path = _stage_stable_file(tmp_path)
        scanner.scan_once()
        report = scanner.scan_once()
        assert path in report.failed

    def test_foreign_exception_propagates(self, tmp_path):
        engine = _BoomPlugin.make_engine(TypeError("plug-in bug"))
        scanner = DirectoryScanner(engine, str(tmp_path), extensions=(".npy",))
        _stage_stable_file(tmp_path)
        scanner.scan_once()
        with pytest.raises(TypeError):
            scanner.scan_once()


# ---------------------------------------------------------------------------
# web/webserver.WebApp.handle: request failures -> 500, bugs -> propagate
# ---------------------------------------------------------------------------
class _RaisingBackend:
    def __init__(self, exc):
        self.exc = exc

    def send(self, line):
        raise self.exc


class TestWebAppNarrowing:
    def test_client_error_becomes_500(self):
        app = WebApp(_RaisingBackend(ClientError("server gone")))
        before = _value("errors_absorbed.web.handle")
        status, body = app.handle("/")
        assert status == 500
        assert "server gone" in body
        assert _value("errors_absorbed.web.handle") == before + 1

    def test_value_error_becomes_500(self):
        app = WebApp(_RaisingBackend(ValueError("bad parameter")))
        status, _ = app.handle("/query?id=1")
        assert status == 500

    def test_foreign_exception_propagates(self):
        app = WebApp(_RaisingBackend(ZeroDivisionError("handler bug")))
        with pytest.raises(ZeroDivisionError):
            app.handle("/")


# ---------------------------------------------------------------------------
# storage/wal: only an I/O failure of the repair truncate latches the log
# broken; a foreign exception propagates with the log still usable
# ---------------------------------------------------------------------------
class _TruncateRaises:
    """File proxy whose truncate raises a chosen exception."""

    def __init__(self, inner, exc):
        self._inner = inner
        self._exc = exc

    def truncate(self, size):
        raise self._exc

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestWalTruncateNarrowing:
    def _wal_with_bytes(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path), seq=0, sync_policy="none")
        wal.append_transaction(1, [])
        return wal

    def test_os_error_latches_broken(self, tmp_path):
        wal = self._wal_with_bytes(tmp_path)
        wal._file = _TruncateRaises(wal._file, OSError("EIO"))
        before = _value("wal.broken")
        with pytest.raises(OSError):
            wal.truncate_to(0)
        assert wal.broken
        assert _value("wal.broken") == before + 1
        with pytest.raises(StorageError):
            wal.truncate_to(0)  # refuses while broken

    def test_foreign_exception_propagates_without_latching(self, tmp_path):
        wal = self._wal_with_bytes(tmp_path)
        real_file = wal._file
        wal._file = _TruncateRaises(real_file, RuntimeError("rollback bug"))
        with pytest.raises(RuntimeError):
            wal.truncate_to(0)
        # The log did NOT latch broken for a non-I/O bug: it stays usable.
        assert not wal.broken
        wal._file = real_file
        wal.truncate_to(0)
        assert wal.size == 0
        wal.close()

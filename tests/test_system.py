"""Tests for the FerretSystem facade (the assembled toolkit)."""

import numpy as np
import pytest

from repro.core import FeatureMeta, ObjectSignature, SearchMethod, SketchParams
from repro.core.plugin import DataTypePlugin
from repro.system import FerretSystem


def _plugin():
    meta = FeatureMeta(6, np.zeros(6), np.ones(6))

    def extract(path):
        return ObjectSignature(np.load(path), [1.0, 1.0])

    return DataTypePlugin("sys-test", meta, seg_extract=extract)


def _signature(rng, k=2):
    return ObjectSignature(rng.random((k, 6)), np.ones(k))


class TestLifecycle:
    def test_open_insert_search_close(self, tmp_path):
        rng = np.random.default_rng(0)
        with FerretSystem(_plugin(), str(tmp_path / "sys")) as system:
            base = _signature(rng)
            oid = system.insert(base, {"tag": "seed"})
            system.insert(
                ObjectSignature(base.features + 0.01, base.weights, normalize=False)
            )
            for _ in range(20):
                system.insert(_signature(rng))
            hits = system.search(oid, top_k=3)
            assert hits[0].object_id == 1  # the planted near-duplicate
            assert len(system) == 22

    def test_reopen_restores_everything(self, tmp_path):
        path = str(tmp_path / "sys")
        rng = np.random.default_rng(1)
        with FerretSystem(_plugin(), path) as system:
            oid = system.insert(_signature(rng), {"color": "red", "name": "one"})
            for _ in range(10):
                system.insert(_signature(rng))
            before = [r.object_id for r in system.search(oid, top_k=5)]

        with FerretSystem(_plugin(), path) as system:
            assert system.loaded == 11
            after = [r.object_id for r in system.search(oid, top_k=5)]
            assert before == after
            assert system.attribute_search("color:red") == [oid]
            assert system.attributes_of(oid) == {"color": "red", "name": "one"}

    def test_sketch_params_pinned(self, tmp_path):
        path = str(tmp_path / "sys")
        plugin = _plugin()
        params = SketchParams(128, plugin.meta, k_xor=2, seed=7)
        with FerretSystem(plugin, path, sketch_params=params):
            pass
        # Reopening without params reuses the stored triple.
        with FerretSystem(plugin, path) as system:
            assert system.engine.sketcher.n_bits == 128
            assert system.engine.sketcher.params.k_xor == 2
            assert system.engine.sketcher.params.seed == 7
        # Conflicting params are rejected.
        with pytest.raises(ValueError):
            FerretSystem(plugin, path,
                         sketch_params=SketchParams(64, plugin.meta, seed=9))


class TestSearch:
    def test_attr_restricted_search(self, tmp_path):
        rng = np.random.default_rng(2)
        with FerretSystem(_plugin(), str(tmp_path / "sys")) as system:
            ids = {}
            for group in ("a", "b"):
                for _ in range(8):
                    oid = system.insert(_signature(rng), {"group": group})
                    ids.setdefault(group, []).append(oid)
            hits = system.search(ids["a"][0], top_k=20, attr_query="group:a")
            assert {h.object_id for h in hits} <= set(ids["a"])

    def test_fresh_signature_as_seed(self, tmp_path):
        rng = np.random.default_rng(3)
        with FerretSystem(_plugin(), str(tmp_path / "sys")) as system:
            for _ in range(10):
                system.insert(_signature(rng))
            probe = _signature(rng)
            hits = system.search(probe, top_k=5)
            assert len(hits) == 5

    def test_all_methods(self, tmp_path):
        rng = np.random.default_rng(4)
        with FerretSystem(_plugin(), str(tmp_path / "sys")) as system:
            for _ in range(15):
                system.insert(_signature(rng))
            for method in SearchMethod:
                assert system.search(0, top_k=3, method=method)


class TestAcquisition:
    def test_watch_directory_indexes_attributes(self, tmp_path):
        rng = np.random.default_rng(5)
        incoming = tmp_path / "incoming"
        incoming.mkdir()
        for i in range(3):
            np.save(str(incoming / f"item{i}.npy"), rng.random((2, 6)))
        with FerretSystem(_plugin(), str(tmp_path / "sys")) as system:
            scanner = system.watch_directory(
                str(incoming), extensions=(".npy",),
                attribute_fn=lambda p: {"source": "scan"},
            )
            scanner.scan_once()
            scanner.scan_once()
            assert len(system) == 3
            assert len(system.attribute_search("source:scan")) == 3

    def test_crash_recovery_of_system(self, tmp_path):
        import os
        import subprocess
        import sys
        import textwrap

        path = str(tmp_path / "sys")
        code = textwrap.dedent(f"""
            import os
            import numpy as np
            from repro.core import FeatureMeta, ObjectSignature
            from repro.core.plugin import DataTypePlugin
            from repro.system import FerretSystem

            meta = FeatureMeta(6, np.zeros(6), np.ones(6))
            system = FerretSystem(
                DataTypePlugin("sys-test", meta), {path!r},
                sync_policy="commit", auto_checkpoint_ops=0,
            )
            rng = np.random.default_rng(0)
            for i in range(12):
                system.insert(
                    ObjectSignature(rng.random((2, 6)), [1, 1]),
                    {{"idx": str(i)}},
                )
            os._exit(1)  # crash without close/checkpoint
        """)
        result = subprocess.run([sys.executable, "-c", code], capture_output=True)
        assert result.returncode == 1, result.stderr
        with FerretSystem(_plugin(), path) as system:
            assert len(system) == 12
            assert system.attribute_search("idx:7")

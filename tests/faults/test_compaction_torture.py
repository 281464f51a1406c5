"""SIGKILL-mid-compaction torture: the maintenance PR's crash drill.

Spawns :mod:`repro.faults.churn_drill` as a real child process —
aggressive background arena compaction plus sustained insert/remove
churn against write-through metadata — kills it with SIGKILL at an
operation-count trigger, and verifies the reopened store through the
recovery oracle:

* the recovered object set (and every object's *contents*) equals the
  state after a prefix of the acknowledged ops, optionally extended by
  the one in-flight op (atomicity);
* the prefix covers every acknowledged op (durability — the drill
  fsyncs per commit);
* the rebuilt arena is internally consistent and answers queries
  bit-identically to a fresh engine built from the surviving objects
  (the "consistent, query-identical arena" acceptance criterion).

Opt in with ``pytest -m torture``.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.core import (
    DataTypePlugin,
    FeatureMeta,
    SimilaritySearchEngine,
    SketchParams,
)
from repro.faults.churn_drill import DIM, build_engine, drill_signature
from repro.faults.oracle import check_durable_floor, match_prefix
from repro.metadata.serialization import decode_object, encode_object, object_key

pytestmark = pytest.mark.torture

_REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _digest(signature) -> bytes:
    """Content digest in the storage codec's precision.

    Features persist as float32 (see metadata/serialization.py), so the
    digest compares what the store *promises* to keep — the f32
    round-trip — not the transient f64 the child generated."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(signature.features, dtype="<f4").tobytes())
    h.update(np.ascontiguousarray(signature.weights, dtype="<f8").tobytes())
    return h.digest()


def _run_drill_until_killed(directory: str, seed: int, kill_after_lines: int):
    """Spawn the drill child, SIGKILL it once the ledger reaches
    ``kill_after_lines`` announcements, return the captured ledger."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(_REPO, "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.faults.churn_drill", directory, str(seed)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        cwd=_REPO,
    )
    lines: list = []

    def pump():
        for raw in proc.stdout:
            lines.append(raw.decode().strip())

    reader = threading.Thread(target=pump, daemon=True)
    reader.start()
    deadline = time.monotonic() + 60.0
    while len(lines) < kill_after_lines:
        if proc.poll() is not None:
            stderr = proc.stderr.read().decode()
            raise AssertionError(f"drill child died on its own:\n{stderr}")
        if time.monotonic() > deadline:
            proc.kill()
            raise AssertionError(
                f"drill produced only {len(lines)} lines in 60s"
            )
        time.sleep(0.002)
    proc.kill()
    proc.wait()
    reader.join(timeout=10.0)
    return lines


def _parse_ledger(lines):
    """Ledger -> (ops, acked indices, in-flight index or None)."""
    ops = []
    acked = []
    pending = None
    for line in lines:
        phase, op, oid = line.split()
        oid = int(oid)
        if phase == "START":
            assert pending is None, f"two ops in flight at once: {line}"
            pending = (op, oid)
            ops.append((op, oid))
        else:
            assert phase == "ACK" and pending == (op, oid), line
            acked.append(len(ops) - 1)
            pending = None
    in_flight = len(ops) - 1 if pending is not None else None
    return ops, acked, in_flight


class _Rows:
    """Metadata stand-in whose ``iter_objects`` yields fixed rows."""

    def __init__(self, rows) -> None:
        self.rows = rows

    def iter_objects(self):
        return iter(self.rows)


def _fresh_engine_from(seed: int, oids) -> SimilaritySearchEngine:
    """From-scratch engine holding exactly what recovery should hold.

    Mirrors the drill child's write path: sketches are computed from the
    original f64 features (that's what the child stored), while the
    signature itself goes through the storage codec's f32 round-trip
    (that's what recovery decodes).  ``load`` takes both as given."""
    meta = FeatureMeta(DIM, np.zeros(DIM), np.ones(DIM))
    engine = SimilaritySearchEngine(
        DataTypePlugin("drill", meta),
        sketch_params=SketchParams(64, meta, seed=7),
    )
    rows = []
    for oid in sorted(oids):
        original = drill_signature(seed, oid)
        stored = decode_object(encode_object(original), oid)
        rows.append((oid, stored, engine.sketcher.sketch_many(original.features), {}))
    engine.metadata = _Rows(rows)
    engine.load()
    engine.metadata = None
    return engine


@pytest.mark.parametrize("round_no", range(4))
def test_sigkill_mid_compaction_recovers_consistent_arena(tmp_path, round_no):
    seed = 1000 + round_no
    directory = str(tmp_path / f"drill{round_no}")
    # Spread the kill points across compaction cadences: early rounds die
    # during warm-up churn, later ones deep into compaction cycles.
    kill_after = 40 + round_no * 170
    lines = _run_drill_until_killed(directory, seed, kill_after)
    ops, acked, in_flight = _parse_ledger(lines)
    assert acked, "no acknowledged ops before the kill"

    # -- oracle: recovered state is an acked prefix (+ the in-flight op)
    txns = []
    for op, oid in ops:
        value = _digest(drill_signature(seed, oid)) if op == "insert" else None
        txns.append([("objects", object_key(oid), value)])

    recovered = build_engine(directory)
    try:
        loaded = recovered.load()
        recovered_state = {
            "objects": {
                object_key(oid): _digest(sig)
                for oid, sig in recovered._objects.items()
            }
        }
        matched = match_prefix(recovered_state, txns, acked, in_flight)
        # fsync-per-commit: every acknowledged op was promised durable.
        check_durable_floor(matched, len(acked))

        # -- arena consistency after the rebuild
        owners, sketches = recovered._store.snapshot()
        info = recovered._store.arena_info()
        assert loaded == len(recovered._objects)
        assert info["dead_rows"] == 0
        assert info["rows"] == owners.shape[0] == sketches.shape[0]
        assert set(owners.tolist()) == set(recovered._objects)
        for oid, sig in recovered._objects.items():
            assert int((owners == oid).sum()) == sig.num_segments

        # -- query-identical to a from-scratch engine over the survivors
        fresh = _fresh_engine_from(seed, recovered._objects)
        try:
            probe_rng = np.random.default_rng(seed + 9)
            for oid in list(sorted(recovered._objects))[:3]:
                probe = drill_signature(seed, oid)
                a = [
                    (r.object_id, r.distance)
                    for r in recovered.query(probe, top_k=5)
                ]
                b = [
                    (r.object_id, r.distance)
                    for r in fresh.query(probe, top_k=5)
                ]
                assert a == b
            for _ in range(3):
                segs = int(probe_rng.integers(1, 4))
                from repro.core import ObjectSignature

                probe = ObjectSignature(
                    probe_rng.random((segs, DIM)), probe_rng.random(segs) + 0.1
                )
                a = [
                    (r.object_id, r.distance)
                    for r in recovered.query(probe, top_k=5)
                ]
                b = [
                    (r.object_id, r.distance)
                    for r in fresh.query(probe, top_k=5)
                ]
                assert a == b
        finally:
            fresh.close()
    finally:
        recovered.close()
        recovered.metadata.close()

"""The systems under test, built through ``repro``'s public constructors.

Every builder times itself from its first call into ``repro`` to its
first *correct* answer (``setup_seconds``) and returns an object whose
``close()`` releases every thread, socket, subprocess and directory it
created.
"""

from __future__ import annotations

import os
import select
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.coordinator import ClusterConfig, FerretCoordinator
from repro.cluster.service import ClusterCommandProcessor
from repro.core import (
    FeatureMeta,
    FilterParams,
    ObjectSignature,
    SimilaritySearchEngine,
    SketchParams,
    rank_candidates,
    sketch_filter,
)
from repro.core.plugin import DataTypePlugin
from repro.datatypes.image import make_image_plugin
from repro.datatypes.shape import make_shape_plugin
from repro.server.client import FerretClient
from repro.server.commands import CommandProcessor
from repro.server.server import FerretServer
from repro.system import FerretSystem

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
#: Scratch space for store directories: inside the checkout, ignored by git.
WORK_DIR = HERE / ".work"

TOP_K = 10
CLIENT_DEADLINE_SECONDS = 5.0
CLUSTER_SHARDS = 2
CLUSTER_BACKENDS = 2
CLUSTER_REPLICATION = 2
BACKEND_READY_SECONDS = 120.0

Answer = List[Tuple[int, float]]


@dataclass(frozen=True)
class EngineSpec:
    """Everything needed to build one engine the same way twice."""

    plugin: DataTypePlugin
    sketch: SketchParams
    filter: FilterParams

    def engine(self) -> SimilaritySearchEngine:
        return SimilaritySearchEngine(self.plugin, self.sketch, self.filter)


def image_spec() -> EngineSpec:
    plugin = make_image_plugin()
    return EngineSpec(
        plugin,
        SketchParams(256, plugin.meta, seed=0),
        FilterParams(num_query_segments=4, candidates_per_segment=32),
    )


def shape_spec(meta: FeatureMeta) -> EngineSpec:
    plugin = make_shape_plugin(meta)
    return EngineSpec(
        plugin,
        SketchParams(800, meta, seed=0),
        FilterParams(num_query_segments=1, candidates_per_segment=64),
    )


def answers_match(got: Answer, expected: Answer) -> bool:
    """Same ids in the same order, distances equal to 1e-6 (the wire
    format prints six decimals)."""
    return len(got) == len(expected) and all(
        g[0] == e[0] and abs(g[1] - e[1]) <= 1e-6
        for g, e in zip(got, expected)
    )


def well_formed(answer: Answer, query_id: int) -> bool:
    """What every answer must satisfy even without an oracle entry:
    1..TOP_K results, nearest first, distinct ids, the seed excluded."""
    ids = [oid for oid, _ in answer]
    dists = [d for _, d in answer]
    return (
        0 < len(answer) <= TOP_K
        and len(set(ids)) == len(ids)
        and query_id not in ids
        and all(a <= b for a, b in zip(dists, dists[1:]))
    )


def reference_answers(
    engine: SimilaritySearchEngine, ids: Sequence[int]
) -> Dict[int, Answer]:
    """Oracle answers for seeds ``ids``, computed layer by layer over
    ``engine``'s objects with the plain functions — the serial
    ``sketch_filter`` scan and the exact ``rank_candidates`` — so no
    pool, no result cache, no ranking cascade, no engine glue and no
    wire format takes part."""
    answers = {}
    for oid in ids:
        query = engine.get_object(int(oid))
        candidates = sketch_filter(
            query, engine.sketcher.sketch_many(query.features), engine._store,
            engine.filter_params, engine.sketcher.n_bits,
        )
        ranked = rank_candidates(
            query, candidates, engine.objects, engine.plugin.obj_distance,
            top_k=TOP_K, exclude_self=True,
        )
        answers[int(oid)] = [(r.object_id, r.distance) for r in ranked]
    return answers


def _serve(processor) -> Tuple[FerretServer, threading.Thread]:
    server = FerretServer(processor, "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread


def _stop(server: FerretServer, thread: threading.Thread) -> None:
    server.shutdown()
    server.server_close()
    thread.join()


class _Wire:
    """A system reached through ``FerretClient`` connections."""

    host = "127.0.0.1"
    port = 0

    def __init__(self) -> None:
        self._clients: List[FerretClient] = []

    def clients(self, count: int) -> List[FerretClient]:
        """The first ``count`` connections, opened on first use."""
        while len(self._clients) < count:
            self._clients.append(
                FerretClient(self.host, self.port, timeout=CLIENT_DEADLINE_SECONDS)
            )
        return self._clients[:count]

    @property
    def client(self) -> FerretClient:
        return self.clients(1)[0]

    def ask(self, object_id: int) -> Answer:
        return self.client.query(object_id, top=TOP_K)

    def _close_clients(self) -> None:
        for client in self._clients:
            client.close()
        self._clients.clear()


class ServerSystem(_Wire):
    """One engine behind one in-process ``FerretServer`` on loopback."""

    def __init__(
        self,
        spec: EngineSpec,
        signatures: Sequence[ObjectSignature],
        first_query: int,
    ) -> None:
        super().__init__()
        started = time.perf_counter()
        self.engine = spec.engine()
        self.engine.insert_many(signatures)
        self.insert_many_seconds = time.perf_counter() - started
        self.processor = CommandProcessor(self.engine)
        self._server, self._thread = _serve(self.processor)
        self.port = self._server.server_address[1]
        self.first_answer = self.ask(first_query)
        self.setup_seconds = time.perf_counter() - started

    def close(self) -> None:
        self._close_clients()
        _stop(self._server, self._thread)
        self.engine.close()


class ClusterSystem(_Wire):
    """Two backend subprocesses, a coordinator and its front-end server
    in this process.  Each backend builds the whole corpus from the seed
    (replication = backends, so each is primary for one shard)."""

    def __init__(self, objects: int, seed: int, first_query: int) -> None:
        super().__init__()
        self._backends: List[subprocess.Popen] = []
        self.coordinator: Optional[FerretCoordinator] = None
        self._server = None
        started = time.perf_counter()
        try:
            env = dict(os.environ)
            env["PYTHONPATH"] = os.pathsep.join(
                [str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
            )
            for index in range(CLUSTER_BACKENDS):
                self._backends.append(subprocess.Popen(
                    [
                        sys.executable, str(HERE / "backend.py"),
                        "--index", str(index), "--objects", str(objects),
                        "--seed", str(seed),
                    ],
                    stdout=subprocess.PIPE, env=env, text=True,
                ))
            endpoints = [("127.0.0.1", _await_ready(p)) for p in self._backends]
            self.coordinator = FerretCoordinator(
                endpoints,
                num_shards=CLUSTER_SHARDS,
                config=ClusterConfig(replication=CLUSTER_REPLICATION),
            )
            self._server, self._thread = _serve(
                ClusterCommandProcessor(self.coordinator)
            )
            self.port = self._server.server_address[1]
            self.first_answer = self.ask(first_query)
            self.setup_seconds = time.perf_counter() - started
        except BaseException:
            self.close()
            raise

    def backend_peak_rss_mb(self) -> float:
        """Sum of the live backends' peak resident sets (VmHWM)."""
        total_kb = 0
        for proc in self._backends:
            with open(f"/proc/{proc.pid}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def close(self) -> None:
        self._close_clients()
        if self._server is not None:
            _stop(self._server, self._thread)
            self._server = None
        if self.coordinator is not None:
            self.coordinator.close()
            self.coordinator = None
        for proc in self._backends:
            proc.terminate()
        for proc in self._backends:
            proc.wait()
            proc.stdout.close()
        self._backends.clear()


def _await_ready(proc: subprocess.Popen) -> int:
    """Block until the backend prints ``READY <port>``; a backend that
    dies or stays silent is an error, not a hang."""
    ready, _, _ = select.select([proc.stdout], [], [], BACKEND_READY_SECONDS)
    line = proc.stdout.readline() if ready else ""
    if not line.startswith("READY "):
        raise RuntimeError(f"backend {proc.pid} did not become ready: {line!r}")
    return int(line.split()[1])


class DurableSystem:
    """``FerretSystem`` in a fresh directory under ``WORK_DIR`` with the
    store's default flush policy (sync_policy="batch", sync_batch=16,
    auto-checkpoint every 10k operations)."""

    def __init__(
        self,
        spec: EngineSpec,
        preload: Sequence[ObjectSignature],
        first_query: int,
    ) -> None:
        self.spec = spec
        WORK_DIR.mkdir(exist_ok=True)
        self.directory = tempfile.mkdtemp(dir=WORK_DIR)
        started = time.perf_counter()
        self.system = self.open()
        for signature in preload:
            self.system.insert(signature)
        self.first_answer = self.ask(first_query)
        self.setup_seconds = time.perf_counter() - started

    def open(self) -> FerretSystem:
        return FerretSystem(
            self.spec.plugin, self.directory, self.spec.sketch, self.spec.filter
        )

    def ask(self, object_id: int) -> Answer:
        return [
            (r.object_id, r.distance)
            for r in self.system.search(object_id, top_k=TOP_K)
        ]

    def reopen(self) -> None:
        self.system.close()
        self.system = self.open()

    def directory_bytes(self) -> int:
        return sum(entry.stat().st_size for entry in os.scandir(self.directory))

    def close(self) -> None:
        self.system.close()
        shutil.rmtree(self.directory, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass  # another run's store is still in there

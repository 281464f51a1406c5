"""Real-process backend supervision: spawn, kill, hang, restart.

The node-kill drills need *actual* process failures — a SIGKILLed
backend drops its TCP connections with a reset, a SIGSTOPped one keeps
accepting (kernel backlog) but never answers, and a restarted one comes
back empty-handed of in-flight state.  In-process fault injection cannot
produce those failure shapes, so :class:`ClusterSupervisor` runs each
backend as a subprocess of :mod:`repro.cluster.backend` and manipulates
it with signals:

- :meth:`BackendProcess.kill` — SIGKILL: connection resets, port closed
  (the coordinator sees :class:`~repro.server.client.ConnectionLost`);
- :meth:`BackendProcess.hang` / :meth:`~BackendProcess.resume` —
  SIGSTOP / SIGCONT: accepts but never answers (the coordinator sees
  :class:`~repro.server.client.ClientTimeout`), the classic gray
  failure;
- :meth:`BackendProcess.restart` — relaunch on the *same* port with the
  same deterministic corpus, which is what lets a cluster recover to
  full answers without a resharding protocol.
"""

from __future__ import annotations

import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from ..observability.events import get_event_log
from ..observability.log import get_logger
from .topology import ShardMap

__all__ = ["BackendProcess", "ClusterSupervisor", "SupervisorError"]

_LOG = get_logger("cluster.supervisor")

#: Building a synthetic corpus + binding takes a couple of seconds on a
#: loaded CI box; generous, the wait returns as soon as READY arrives.
_READY_TIMEOUT = 60.0


class SupervisorError(RuntimeError):
    """A backend process failed to come up."""


class BackendProcess:
    """One supervised backend subprocess."""

    def __init__(
        self,
        index: int,
        shard_map: ShardMap,
        datatype: str = "sensor",
        size: int = 48,
        seed: int = 42,
        host: str = "127.0.0.1",
    ) -> None:
        self.index = index
        self.shard_map = shard_map
        self.datatype = datatype
        self.size = size
        self.seed = seed
        self.host = host
        self.port: Optional[int] = None
        self._proc: Optional[subprocess.Popen] = None
        self._stopped = False  # SIGSTOPped (hung), not dead

    # -- lifecycle -------------------------------------------------------
    def _argv(self) -> List[str]:
        return [
            sys.executable, "-m", "repro.cluster.backend",
            "--index", str(self.index),
            "--backends", str(self.shard_map.num_backends),
            "--shards", str(self.shard_map.num_shards),
            "--replication", str(self.shard_map.replication),
            "--datatype", self.datatype,
            "--size", str(self.size),
            "--seed", str(self.seed),
            "--host", self.host,
            "--port", str(self.port if self.port is not None else 0),
        ]

    @staticmethod
    def _env() -> dict:
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2])
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = f"{src}{os.pathsep}{existing}" if existing else src
        return env

    def start(self, timeout: float = _READY_TIMEOUT) -> None:
        """Launch the backend and block until it prints ``READY <port>``."""
        self.spawn()
        self.wait_ready(time.monotonic() + timeout)

    def spawn(self) -> None:
        """Launch the backend process without waiting for it;
        :meth:`wait_ready` completes the start."""
        if self._proc is not None and self._proc.poll() is None:
            raise SupervisorError(f"backend {self.index} already running")
        self._proc = subprocess.Popen(
            self._argv(),
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=self._env(),
        )
        self._stopped = False

    def wait_ready(self, deadline: float) -> None:
        """Block until the spawned backend prints ``READY <port>`` or the
        :func:`time.monotonic` ``deadline`` passes (the child is then
        killed and :class:`SupervisorError` raised)."""
        assert self._proc is not None and self._proc.stdout is not None
        fd = self._proc.stdout.fileno()
        buf = b""
        while b"\n" not in buf:
            left = deadline - time.monotonic()
            if left <= 0 or self._proc.poll() is not None:
                self.kill()
                raise SupervisorError(
                    f"backend {self.index} did not become ready by its deadline"
                )
            readable, _, _ = select.select([fd], [], [], min(left, 0.25))
            if readable:
                chunk = os.read(fd, 4096)
                if not chunk:
                    self.kill()
                    raise SupervisorError(
                        f"backend {self.index} exited before READY"
                    )
                buf += chunk
        line = buf.split(b"\n", 1)[0].decode("utf-8", errors="replace").strip()
        if not line.startswith("READY "):
            self.kill()
            raise SupervisorError(
                f"backend {self.index} printed {line!r}, expected READY <port>"
            )
        self.port = int(line.split()[1])
        _LOG.info(
            "backend_started",
            index=self.index,
            pid=self._proc.pid,
            port=self.port,
        )
        get_event_log().record(
            "node_start", node=self.index, pid=self._proc.pid, port=self.port
        )

    # -- fault injection -------------------------------------------------
    @property
    def alive(self) -> bool:
        return (
            self._proc is not None
            and self._proc.poll() is None
            and not self._stopped
        )

    @property
    def pid(self) -> Optional[int]:
        return self._proc.pid if self._proc is not None else None

    def kill(self) -> None:
        """SIGKILL: abrupt node death. Connections reset, port closes."""
        if self._proc is None:
            return
        if self._stopped:
            # A stopped process cannot die until it is continued.
            try:
                self._proc.send_signal(signal.SIGCONT)
            except (OSError, ProcessLookupError):
                pass
            self._stopped = False
        try:
            self._proc.kill()
        except (OSError, ProcessLookupError):
            pass
        self._proc.wait()
        _LOG.info("backend_killed", index=self.index)
        get_event_log().record("node_kill", node=self.index)

    def hang(self) -> None:
        """SIGSTOP: gray failure — accepts connections, never answers."""
        if self._proc is None or self._proc.poll() is not None:
            raise SupervisorError(f"backend {self.index} is not running")
        self._proc.send_signal(signal.SIGSTOP)
        self._stopped = True
        _LOG.info("backend_hung", index=self.index)
        get_event_log().record("node_hang", node=self.index)

    def resume(self) -> None:
        """SIGCONT: un-hang a SIGSTOPped backend."""
        if self._proc is None or self._proc.poll() is not None:
            raise SupervisorError(f"backend {self.index} is not running")
        self._proc.send_signal(signal.SIGCONT)
        self._stopped = False
        _LOG.info("backend_resumed", index=self.index)
        get_event_log().record("node_resume", node=self.index)

    def restart(self, timeout: float = _READY_TIMEOUT) -> None:
        """Kill (if needed) and relaunch on the *same* port."""
        self.kill()
        self.start(timeout=timeout)
        get_event_log().record("node_restart", node=self.index, port=self.port)

    def close(self) -> None:
        self.kill()
        if self._proc is not None and self._proc.stdout is not None:
            try:
                self._proc.stdout.close()
            except OSError:
                pass
        self._proc = None


class ClusterSupervisor:
    """Spawn and manage a whole backend fleet for one :class:`ShardMap`.

    Usable as a context manager; ``endpoints`` feeds straight into
    :class:`~repro.cluster.coordinator.FerretCoordinator`.
    """

    def __init__(
        self,
        num_backends: int,
        num_shards: Optional[int] = None,
        replication: int = 2,
        datatype: str = "sensor",
        size: int = 48,
        seed: int = 42,
        host: str = "127.0.0.1",
    ) -> None:
        self.shard_map = ShardMap(
            num_shards if num_shards is not None else num_backends,
            num_backends,
            replication,
        )
        self.backends = [
            BackendProcess(
                index, self.shard_map,
                datatype=datatype, size=size, seed=seed, host=host,
            )
            for index in range(num_backends)
        ]

    def start(self, timeout: float = _READY_TIMEOUT) -> "ClusterSupervisor":
        """Spawn every backend, then wait for each ``READY`` in index
        order under one shared deadline, so bring-up costs the slowest
        backend rather than the sum.  On any failure, interrupts
        included, every spawned child is killed before the error
        propagates."""
        deadline = time.monotonic() + timeout
        spawned: List[BackendProcess] = []
        try:
            for backend in self.backends:
                backend.spawn()
                spawned.append(backend)
            for backend in spawned:
                backend.wait_ready(deadline)
        except BaseException:
            for backend in spawned:
                backend.close()
            raise
        return self

    @property
    def endpoints(self) -> List[Tuple[str, int]]:
        return [(b.host, int(b.port)) for b in self.backends]

    def close(self) -> None:
        for backend in self.backends:
            backend.close()

    def __enter__(self) -> "ClusterSupervisor":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

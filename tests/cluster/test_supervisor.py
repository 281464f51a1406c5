"""``ClusterSupervisor.start`` spawns every backend before it waits.

Bring-up then costs the slowest backend, not the sum of all of them.
The concurrency is pinned through the wait step (every child exists
when the first ``READY`` is awaited), not through timing; a failed
bring-up, interrupts included, leaves no child alive.
"""

from __future__ import annotations

import sys

import pytest

from repro.cluster.supervisor import (
    BackendProcess,
    ClusterSupervisor,
    SupervisorError,
)
from repro.observability.events import EventLog, get_event_log, set_event_log
from repro.server.client import ClientError, FerretClient


@pytest.fixture()
def journal():
    previous = set_event_log(EventLog())
    try:
        yield get_event_log()
    finally:
        set_event_log(previous)


@pytest.fixture()
def spawned(monkeypatch):
    """Every ``Popen`` the supervisor creates, in spawn order."""
    procs = []
    real_spawn = BackendProcess.spawn

    def spawn(self):
        real_spawn(self)
        procs.append(self._proc)

    monkeypatch.setattr(BackendProcess, "spawn", spawn)
    return procs


def _script(supervisor, scripts):
    """Replace each backend's command line with a tiny Python script."""
    for backend, code in zip(supervisor.backends, scripts):
        backend._argv = lambda code=code: [sys.executable, "-c", code]


_READY_THEN_SLEEP = "print('READY 1', flush=True); import time; time.sleep(60)"
_SLEEP = "import time; time.sleep(60)"
_EXIT = "raise SystemExit(3)"


def test_every_backend_spawned_before_first_wait(monkeypatch, journal):
    supervisor = ClusterSupervisor(3, replication=1, size=48)
    alive_at_wait = []
    real_wait = BackendProcess.wait_ready

    def wait_ready(self, deadline):
        alive_at_wait.append(
            [b._proc is not None and b._proc.poll() is None
             for b in supervisor.backends]
        )
        real_wait(self, deadline)

    monkeypatch.setattr(BackendProcess, "wait_ready", wait_ready)
    with supervisor:
        assert alive_at_wait[0] == [True, True, True]
        assert len(alive_at_wait) == 3

        starts = [e for e in journal.tail() if e.kind == "node_start"]
        assert [e.fields["node"] for e in starts] == [0, 1, 2]
        assert [e.fields["port"] for e in starts] == [
            port for _, port in supervisor.endpoints
        ]
        # At R=1 object i lives only on backend i % 3: endpoint j must
        # hand out the signature of object j and refuse the others.
        for j, (host, port) in enumerate(supervisor.endpoints):
            with FerretClient(host, port) as client:
                for object_id in range(3):
                    if object_id == j:
                        assert client.send(f"getsig {object_id}")
                    else:
                        with pytest.raises(ClientError):
                            client.send(f"getsig {object_id}")


@pytest.mark.parametrize("scripts", [
    (_EXIT, _SLEEP, _SLEEP),
    (_READY_THEN_SLEEP, _READY_THEN_SLEEP, _EXIT),
], ids=["first-exits", "last-exits"])
def test_backend_exiting_before_ready_kills_every_child(spawned, scripts):
    supervisor = ClusterSupervisor(3)
    _script(supervisor, scripts)
    with pytest.raises(SupervisorError, match="before READY|did not become ready"):
        supervisor.start(timeout=30.0)
    assert len(spawned) == 3
    assert all(proc.poll() is not None for proc in spawned)


def test_interrupt_during_wait_kills_every_child(monkeypatch, spawned):
    supervisor = ClusterSupervisor(3)
    _script(supervisor, [_READY_THEN_SLEEP] * 3)
    real_wait = BackendProcess.wait_ready

    def wait_ready(self, deadline):
        if self.index == 1:
            raise KeyboardInterrupt
        real_wait(self, deadline)

    monkeypatch.setattr(BackendProcess, "wait_ready", wait_ready)
    with pytest.raises(KeyboardInterrupt):
        supervisor.start(timeout=30.0)
    assert len(spawned) == 3
    assert all(proc.poll() is not None for proc in spawned)

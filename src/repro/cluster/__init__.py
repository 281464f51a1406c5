"""Fault-tolerant multi-node tier: sharded coordinator over backend servers.

The paper frames Ferret as a *server* for content-based similarity
search; this package takes the single-process server to a cluster.  A
:class:`FerretCoordinator` object-id-shards the corpus across N backend
:class:`~repro.server.server.FerretServer` processes (each speaking the
existing line protocol), scatter-gathers queries with the same
deterministic tie-breaking merge the in-process sharded scan uses, and
routes writes to every replica of the owning shard.

Robustness is the core of the design, not an add-on:

- per-backend **circuit breakers** (:mod:`repro.cluster.breaker`) fed by
  error/timeout telemetry: closed → open → half-open with probe
  requests;
- **replica failover**: each shard lives on R backends; a timeout,
  connection loss, or ``ServerDegraded`` answer re-plans the failed
  backend's shards over the replicas still live;
- **partial results**: a query that loses every replica of a shard
  returns the live shards' merged answer tagged ``PARTIAL`` instead of
  erroring (:class:`~repro.server.client.PartialResultWarning`
  client-side);
- **background health probing** re-admits recovered backends
  automatically.

:mod:`repro.cluster.supervisor` spawns real backend subprocesses and can
kill / hang / restart them mid-query, which is how the node-kill drills
in ``tests/cluster`` prove the invariants (see docs/ROBUSTNESS.md §5).
"""

from .breaker import BreakerState, CircuitBreaker
from .coordinator import (
    BackendUnavailable,
    ClusterConfig,
    ClusterError,
    ClusterResult,
    FerretCoordinator,
    ShardUnavailable,
)
from .service import ClusterCommandProcessor
from .supervisor import BackendProcess, ClusterSupervisor
from .topology import ShardMap

__all__ = [
    "BackendProcess",
    "BackendUnavailable",
    "BreakerState",
    "CircuitBreaker",
    "ClusterCommandProcessor",
    "ClusterConfig",
    "ClusterError",
    "ClusterResult",
    "ClusterSupervisor",
    "FerretCoordinator",
    "ShardMap",
    "ShardUnavailable",
]

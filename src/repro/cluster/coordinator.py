"""FerretCoordinator: health-aware scatter-gather over sharded backends.

One coordinator owns a cluster of backend ``FerretServer`` processes.
The corpus is object-id-sharded (:class:`~repro.cluster.topology.
ShardMap`).  A query goes to a *plan*: a greedy minimal cover of the
shards by live backends, one call per backend (:meth:`FerretCoordinator.
_plan`).  A backend that answers every shard it hosts gets the query
unrestricted; one that answers only some of them gets a ``mod=/
residue=`` restriction.  A backend that hosts the seed's shard gets the
seed by id; any other gets its signature (:meth:`FerretCoordinator.
_scatter_seeded`).  The per-call top-k lists are merged through the
engine's own deterministic ``select_k_smallest`` tie-breaking rule, and
when one backend hosts every shard (R = B) its answer is the single
engine's.

Failure handling (docs/ROBUSTNESS.md §5):

- every backend round-trip runs through that backend's
  :class:`~repro.cluster.breaker.CircuitBreaker`; connection loss,
  timeouts, and ``ServerDegraded`` answers count as failures and
  eventually stop traffic to the backend entirely;
- a failed call re-plans its shards over the backends that have not
  failed this request (*failover*);
- a shard whose every replica is down makes the query **partial**, not
  failed: the merged answer of the live shards is returned with the
  missing shard ids attached;
- a background prober pings non-closed backends and re-admits them the
  moment they answer again.

Everything is observable: ``cluster.*`` counters/gauges, per-backend
``cluster.backend.<i>.*`` series, a reused :class:`~repro.system.
HealthState` ledger, and per-query ``span.scatter`` / ``span.gather``
trace spans through the standard :class:`~repro.observability.tracing.
TraceRecorder`.

The cluster telemetry plane (docs/OBSERVABILITY.md, "Cluster
telemetry") adds three cross-node facilities:

- **trace propagation** — a traced query forwards a child
  :class:`~repro.observability.context.TraceContext` on every scatter
  line; each backend piggybacks its engine-level span tree on the reply,
  and the coordinator stitches the subtrees under
  ``node.<s1>+<s2>.<backend>`` with the derived network/queue vs engine
  time split, naming the laggard node and any missing shards;
- **federated metrics** — :meth:`FerretCoordinator.collect_node_metrics`
  pulls every backend's snapshot (``metrics -s``), folds the *delta*
  since the last pull under ``node.<i>.*``, and derives rollups
  (``cluster.nodes_up``, per-shard QPS, per-node p99);
- **event journal** — breaker transitions, failovers, re-admissions,
  and under-replicated writes are recorded in the
  process :class:`~repro.observability.events.EventLog` so a failure
  drill leaves a provable postmortem timeline.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Collection, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.filtering import select_k_smallest
from ..core.parallel import QueryResultCache
from ..core.ranking import SearchResult
from ..observability import context as _trace_context
from ..observability import metrics as _metrics
from ..observability.context import TraceContext, TraceStore
from ..observability.events import get_event_log
from ..observability.log import get_logger
from ..observability.tracing import QueryTrace, TraceRecorder
from ..server.client import (
    ClientError,
    ClientTimeout,
    ConnectionLost,
    FerretClient,
    ServerDegraded,
)
from ..server.protocol import quote
from ..system import HealthState
from .breaker import BreakerState, CircuitBreaker
from .topology import ShardMap

__all__ = [
    "BackendHandle",
    "BackendUnavailable",
    "ClusterConfig",
    "ClusterError",
    "ClusterResult",
    "FerretCoordinator",
    "ShardUnavailable",
]

_LOG = get_logger("cluster")

_M_QUERIES = _metrics.counter("cluster.queries")
_M_QUERY_SECONDS = _metrics.histogram("cluster.query_seconds")
_M_SCATTER_SECONDS = _metrics.histogram("cluster.scatter_seconds")
_M_GATHER_SECONDS = _metrics.histogram("cluster.gather_seconds")
_M_PARTIAL = _metrics.counter("cluster.partial_results")
_M_MISSING_SHARDS = _metrics.counter("cluster.missing_shards")
_M_FAILOVERS = _metrics.counter("cluster.failovers")
_M_PROBES = _metrics.counter("cluster.probes")
_M_READMITTED = _metrics.counter("cluster.backends_readmitted")
_M_WRITES = _metrics.counter("cluster.writes")
_M_UNDER_REPLICATED = _metrics.counter("cluster.under_replicated_writes")
_M_AVAILABLE = _metrics.gauge("cluster.backends_available")
_M_NODES_UP = _metrics.gauge("cluster.nodes_up")
_M_FEDERATIONS = _metrics.counter("cluster.metric_federations")


class ClusterError(RuntimeError):
    """The cluster could not answer at all (e.g. the seed's shard is gone)."""


class BackendUnavailable(ClientError):
    """The backend's circuit breaker refused the request (no I/O done)."""

    def __init__(self, backend_id: int, state: BreakerState) -> None:
        super().__init__(f"backend {backend_id} unavailable (breaker {state.value})")
        self.backend_id = backend_id
        self.state = state


class ShardUnavailable(ClusterError):
    """Every replica of one shard failed or was refused."""

    def __init__(self, shard: int, failures: Sequence[Tuple[int, Exception]]) -> None:
        detail = "; ".join(
            f"backend {bid}: {type(exc).__name__}: {exc}" for bid, exc in failures
        )
        super().__init__(f"shard {shard} unavailable ({detail or 'no replicas'})")
        self.shard = shard
        self.failures = list(failures)


#: Exception types that mean "this backend failed us" — eligible for
#: failover to a replica and counted against the breaker.  A plain
#: :class:`ClientError` outside this set is a well-formed ``ERR`` answer
#: (bad request, unknown object): the backend is healthy and the error
#: propagates to the caller instead of being retried elsewhere.
FAILOVER_ERRORS = (BackendUnavailable, ClientTimeout, ConnectionLost, ServerDegraded)


@dataclass(frozen=True)
class ClusterConfig:
    """Coordinator tuning knobs (all robustness-relevant)."""

    replication: int = 2
    backend_timeout: float = 5.0
    #: Breaker: consecutive failures to open, and open-state cooldown.
    breaker_failures: int = 2
    breaker_cooldown: float = 1.0
    #: Background prober cadence and per-probe budget.
    probe_interval: float = 0.25
    probe_timeout: float = 1.0
    #: Coordinator-side query-result LRU capacity (0 disables).  Entries
    #: are invalidated by the coordinator's write epoch (every
    #: acknowledged insert) *and* its topology epoch (every breaker
    #: transition — a different replica may serve the next scatter);
    #: PARTIAL results are never cached.
    cache_entries: int = 128


@dataclass
class ClusterResult:
    """One cluster query's answer plus its degradation facts."""

    results: List[SearchResult]
    #: Shards whose every replica failed; empty means a full answer.
    missing_shards: Tuple[int, ...] = ()
    #: shard -> backend id that served it (live shards only).
    served_by: Dict[int, int] = field(default_factory=dict)

    @property
    def partial(self) -> bool:
        return bool(self.missing_shards)


class BackendHandle:
    """One backend endpoint: pooled connections plus its circuit breaker.

    :class:`~repro.server.client.FerretClient` is a blocking
    single-connection client, so concurrent scatter threads each borrow
    a pooled connection (created on demand) and return it after a clean
    round trip.  A connection that failed mid-flight is closed, not
    pooled — it may be desynchronized.
    """

    def __init__(
        self,
        backend_id: int,
        host: str,
        port: int,
        timeout: float,
        breaker: CircuitBreaker,
    ) -> None:
        self.backend_id = backend_id
        self.host = host
        self.port = port
        self.timeout = timeout
        self.breaker = breaker
        self._lock = threading.Lock()
        self._idle: List[FerretClient] = []
        self.requests = _metrics.counter(f"cluster.backend.{backend_id}.requests")
        self.errors = _metrics.counter(f"cluster.backend.{backend_id}.errors")
        #: Round-trip latency of requests *this backend answered*.
        self.latency = _metrics.histogram(f"cluster.backend.{backend_id}.seconds")

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def _checkout(self) -> FerretClient:
        with self._lock:
            if self._idle:
                return self._idle.pop()
        return FerretClient(self.host, self.port, timeout=self.timeout)

    def _checkin(self, client: FerretClient) -> None:
        with self._lock:
            self._idle.append(client)

    def send(self, line: str, timeout: Optional[float] = None) -> List[str]:
        """One round trip on a pooled connection; never retries itself
        (failover policy lives in the coordinator).  Latency is observed
        against *this* backend, so failed-over reads attribute to the
        replica that answered."""
        self.requests.inc()
        client = self._checkout()
        started = time.perf_counter()
        try:
            lines = client.send(line, timeout=timeout)
        except (ServerDegraded, ClientError) as exc:
            # A still-connected client produced a complete response
            # (ERR/DEGRADED): the connection is clean, keep it pooled.
            if client.connected:
                self._checkin(client)
            else:
                client.close()
            raise exc
        self.latency.observe(time.perf_counter() - started)
        self._checkin(client)
        return lines

    def close(self) -> None:
        with self._lock:
            idle, self._idle = self._idle, []
        for client in idle:
            client.close()


class FerretCoordinator:
    """Sharded, replicated, health-aware front end for backend servers.

    Parameters
    ----------
    endpoints:
        ``[(host, port), ...]`` — one entry per backend, in backend-id
        order (the order must match the shard layout the backends were
        loaded with; see :class:`~repro.cluster.topology.ShardMap`).
    num_shards:
        Defaults to one shard per backend.
    config:
        Robustness tuning; see :class:`ClusterConfig`.
    """

    def __init__(
        self,
        endpoints: Sequence[Tuple[str, int]],
        num_shards: Optional[int] = None,
        config: Optional[ClusterConfig] = None,
    ) -> None:
        if not endpoints:
            raise ValueError("a cluster needs at least one backend")
        self.config = config or ClusterConfig()
        self.shard_map = ShardMap(
            num_shards if num_shards is not None else len(endpoints),
            len(endpoints),
            self.config.replication,
        )
        #: Shards each backend hosts, for planning.
        self._hosted = [
            frozenset(self.shard_map.shards_on(b)) for b in range(len(endpoints))
        ]
        self.health = HealthState()
        self.tracer = TraceRecorder()
        self.handles: List[BackendHandle] = []
        for backend_id, (host, port) in enumerate(endpoints):
            breaker = CircuitBreaker(
                failure_threshold=self.config.breaker_failures,
                cooldown_seconds=self.config.breaker_cooldown,
                on_transition=self._transition_recorder(backend_id),
            )
            self.handles.append(
                BackendHandle(
                    backend_id, host, int(port), self.config.backend_timeout, breaker
                )
            )
            _metrics.gauge(f"cluster.backend.{backend_id}.breaker_state").set(0)
        _M_AVAILABLE.set(len(self.handles))
        _M_NODES_UP.set(len(self.handles))
        self._id_lock = threading.Lock()
        self._next_id: Optional[int] = None
        self._stop = threading.Event()
        self._prober: Optional[threading.Thread] = None
        # Stitched cross-node traces, fetchable via `trace get <id>`.
        self.trace_store = TraceStore()
        # Federation state: the last snapshot pulled from each backend
        # (merge_snapshot accumulates counters, so only *deltas* fold
        # in) plus per-shard counter readings for the QPS rollup.
        self._federation_lock = threading.Lock()
        self._node_snapshots: Dict[int, Dict[str, tuple]] = {}
        self._shard_query_marks: Dict[int, Tuple[float, int]] = {}
        # Result cache: epoch = (write, topology).  Writes move the
        # write epoch; breaker transitions move the topology epoch, so a
        # failover or re-admission (which may change which replica — and
        # therefore exactly which objects — answers a shard) flushes
        # every cached result.  Reuses the engine's QueryResultCache
        # under the ``cluster.cache.*`` metric series.
        self._write_epoch = 0
        self._topology_epoch = 0
        self._cache = QueryResultCache(
            self.config.cache_entries, metrics_prefix="cluster.cache"
        )

    # ------------------------------------------------------------------
    # Breaker bookkeeping
    # ------------------------------------------------------------------
    def _transition_recorder(self, backend_id: int):
        gauge = _metrics.gauge(f"cluster.backend.{backend_id}.breaker_state")

        def on_transition(old: BreakerState, new: BreakerState) -> None:
            gauge.set(new.gauge_value)
            self._topology_epoch += 1
            _LOG.warning(
                "breaker_transition",
                backend=backend_id,
                old=old.value,
                new=new.value,
            )
            get_event_log().record(
                "breaker_transition",
                backend=backend_id,
                old=old.value,
                new=new.value,
                topology_epoch=self._topology_epoch,
            )
            if new is BreakerState.CLOSED:
                # Re-admitted: by the prober's ping, or by a request
                # that took the half-open trial first.
                address = self.handles[backend_id].address
                _M_READMITTED.inc()
                _LOG.info("backend_readmitted", backend=backend_id, address=address)
                get_event_log().record(
                    "backend_readmitted", backend=backend_id, address=address
                )
            self._refresh_available()

        return on_transition

    def _cache_epoch(self) -> Tuple[int, int]:
        """Validity token of the result cache: any write or any breaker
        transition produces a new epoch and flushes it."""
        return (self._write_epoch, self._topology_epoch)

    def _refresh_available(self) -> None:
        _M_AVAILABLE.set(
            sum(
                1
                for handle in self.handles
                if handle.breaker.state is BreakerState.CLOSED
            )
        )

    # ------------------------------------------------------------------
    # Backend calls
    # ------------------------------------------------------------------
    def _call_backend(
        self, backend_id: int, line: str, timeout: Optional[float] = None
    ) -> List[str]:
        """One breaker-gated round trip to a specific backend.

        Raises one of :data:`FAILOVER_ERRORS` when the backend failed
        (recorded against its breaker), or a plain :class:`ClientError`
        when the backend *answered* with ``ERR`` (recorded as success:
        a backend that rejects a malformed request is healthy).
        """
        handle = self.handles[backend_id]
        breaker = handle.breaker
        if not breaker.allow():
            raise BackendUnavailable(backend_id, breaker.state)
        try:
            lines = handle.send(line, timeout=timeout)
        except FAILOVER_ERRORS as exc:
            handle.errors.inc()
            breaker.record_failure()
            self.health.record_error(f"backend.{backend_id}", exc)
            raise
        except ClientError as exc:
            if isinstance(exc, ConnectionLost):  # pragma: no cover - ordered above
                raise
            breaker.record_success()
            raise
        breaker.record_success()
        self.health.mark_healthy(f"backend.{backend_id}")
        return lines

    def _plan(
        self, shards: Sequence[int], failed: Collection[int] = ()
    ) -> Tuple[Dict[int, Tuple[int, ...]], Tuple[int, ...]]:
        """Which backend answers which of ``shards``: a greedy set cover.

        Repeatedly takes the live backend (breaker not open, not in
        ``failed``) that hosts the most still-unassigned shards, the
        lowest id on ties, and gives it all of them.  The plan is a pure
        function of which backends are live, so a topology answers
        deterministically.  Returns ``(backend -> its shards, shards no
        live backend hosts)``.
        """
        todo = set(shards)
        live = [
            handle.backend_id
            for handle in self.handles
            if handle.backend_id not in failed
            and handle.breaker.state is not BreakerState.OPEN
        ]
        plan: Dict[int, Tuple[int, ...]] = {}
        while todo and live:
            best = max(live, key=lambda b: (len(self._hosted[b] & todo), -b))
            gain = self._hosted[best] & todo
            if not gain:
                break
            plan[best] = tuple(sorted(gain))
            todo -= gain
            live.remove(best)
        return plan, tuple(sorted(todo))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @staticmethod
    def merge_ranked(
        shard_results: Sequence[Sequence[Tuple[int, float]]], top_k: int
    ) -> List[SearchResult]:
        """Merge per-call top-k lists under the engine's tie-break rule.

        The calls of a plan answer disjoint sets of shards, hence
        disjoint id spaces, so the merge is a pure selection:
        ``select_k_smallest`` admits boundary ties in ascending-id order
        — the same rule every in-process filter path uses — which makes
        the merged set independent of shard count and arrival order.
        """
        flat = [pair for results in shard_results for pair in results]
        if not flat:
            return []
        ids = np.array([oid for oid, _ in flat], dtype=np.uint64)
        dists = np.array([dist for _, dist in flat], dtype=np.float64)
        cols = select_k_smallest(dists[None, :], top_k, ids=ids[None, :])[0]
        chosen = sorted((dists[c], int(ids[c])) for c in cols)
        return [SearchResult(distance=d, object_id=oid) for d, oid in chosen]

    def _fetch_signature(self, object_id: int) -> str:
        """The lossless base64 signature of ``object_id`` from a live
        replica of its owning shard."""
        shard = self.shard_map.shard_of(object_id)
        found, missing, _, _ = self._scatter(
            lambda backend_id, shards: f"getsig {object_id}",
            lambda lines, line: lines[0],
            None,
            shards=(shard,),
        )
        if missing:
            raise ClusterError(
                f"cannot fetch seed {object_id}: shard {shard} unavailable"
            )
        return found[(shard,)]

    def _scatter_seeded(
        self,
        seeds: Sequence[int],
        by_id: str,
        by_signature,
        parse,
        trace,
        trace_ctx: Optional[TraceContext],
    ):
        """:meth:`_scatter` for a query seeded by the indexed objects
        ``seeds``.

        A backend that hosts every seed's shard holds the seeds and gets
        the line ``by_id``.  Any other backend gets ``by_signature(b64s)``,
        built from the seeds' lossless signatures: they are fetched on
        the first such call, at most once per request, and a failed
        fetch is re-raised to every call that needs it.  A backend that
        answers only some of the shards it hosts gets the line limited
        to them (``mod=/residue=``; unrestricted, two backends would
        answer overlapping sets).  If a seed's shard is missing after
        the scatter, the seeds are fetched anyway, so a seed that no
        replica can produce raises :class:`ClusterError` as before.
        """
        seed_shards = {self.shard_map.shard_of(oid) for oid in seeds}
        modulus = self.shard_map.num_shards
        fetch_lock = threading.Lock()
        fetched: List[object] = []

        def signature_line() -> str:
            with fetch_lock:
                if not fetched:
                    try:
                        fetched.append(by_signature(
                            [self._fetch_signature(oid) for oid in seeds]
                        ))
                    except (ClientError, ClusterError) as exc:
                        fetched.append(exc)
                outcome = fetched[0]
            if isinstance(outcome, Exception):
                raise outcome
            return outcome  # type: ignore[return-value]

        def line_for(backend_id: int, shards: Tuple[int, ...]) -> str:
            hosted = self._hosted[backend_id]
            line = by_id if seed_shards <= hosted else signature_line()
            if hosted == set(shards):
                return line
            return f"{line} mod={modulus} residue={','.join(map(str, shards))}"

        scattered = self._scatter(line_for, parse, trace, trace_ctx=trace_ctx)
        if seed_shards.intersection(scattered[1]):
            signature_line()
        return scattered

    def _scatter(
        self,
        line_for,
        parse,
        trace,
        trace_ctx: Optional[TraceContext] = None,
        shards: Optional[Sequence[int]] = None,
    ) -> Tuple[
        Dict[Tuple[int, ...], object],
        Tuple[int, ...],
        Dict[int, int],
        Dict[str, Dict[str, object]],
    ]:
        """Answer ``shards`` (default: all) with one call per planned backend.

        ``line_for(backend_id, shards)`` builds the wire line for that
        backend answering the tuple ``shards``; ``parse(lines, line)``
        decodes its response to ``line``.  A call failing with one
        of :data:`FAILOVER_ERRORS` re-plans its shards over the live
        backends that have not failed this request (``cluster.failovers``
        and one ``failover`` event per shard moved); a shard left with
        no replica is *missing*.  A well-formed ``ERR`` answer, or a
        :class:`ClientError` / :class:`ClusterError` raised by
        ``line_for``, is raised once every call has finished.  A
        one-call plan runs in the calling thread; every further call
        gets a thread of its own.

        Returns ``(payload per shard tuple, missing_shards, served_by,
        node_subtrees)``.  With ``trace_ctx`` set, every line carries the
        child context (``trace=``), the piggybacked ``TRACE`` reply line
        is stripped before ``parse`` sees the data, and the decoded
        subtree is keyed ``<s1>+<s2>.<backend>`` and annotated with the
        call's round-trip time (``rpc_seconds``), from which the
        stitcher derives the network/queue share.
        """
        results: Dict[Tuple[int, ...], object] = {}
        served_by: Dict[int, int] = {}
        subtrees: Dict[str, Dict[str, object]] = {}
        missing: List[int] = []
        failed: set = set()
        errors: List[Exception] = []
        lock = threading.Lock()
        child = trace_ctx.child() if trace_ctx is not None else None

        def call(backend_id: int, assigned: Tuple[int, ...]) -> None:
            started = time.perf_counter()
            try:
                line = line_for(backend_id, assigned)
            except (ClientError, ClusterError) as exc:
                errors.append(exc)
                return
            if child is not None:
                line = f"{line} trace={child.to_wire()}"
            try:
                lines = self._call_backend(backend_id, line)
            except FAILOVER_ERRORS:
                with lock:
                    failed.add(backend_id)
                    plan, lost = self._plan(assigned, failed)
                    missing.extend(lost)
                    tried = ",".join(map(str, sorted(failed)))
                for new_id, moved in plan.items():
                    for shard in moved:
                        _M_FAILOVERS.inc()
                        get_event_log().record(
                            "failover", shard=shard, backend=new_id,
                            primary=backend_id, failed=tried,
                        )
                run(plan)
                return
            except ClientError as exc:
                errors.append(exc)  # a real answer: propagate, don't mask
                return
            rpc_seconds = time.perf_counter() - started
            subtree: Optional[Dict[str, object]] = None
            if child is not None:
                try:
                    lines, subtree = _trace_context.split_trace_line(lines)
                except ValueError:
                    subtree = None  # junk payload: keep the data lines
            payload = parse(lines, line)
            key = "+".join(map(str, assigned))
            with lock:
                results[assigned] = payload
                served_by.update(dict.fromkeys(assigned, backend_id))
                if subtree is not None:
                    subtree["rpc_seconds"] = rpc_seconds
                    subtrees[f"{key}.{backend_id}"] = subtree
            if trace is not None:
                trace.add_span(f"scatter.shard.{key}", seconds=rpc_seconds)

        def run(plan: Dict[int, Tuple[int, ...]]) -> None:
            calls = list(plan.items())
            threads = [
                threading.Thread(target=call, args=args, daemon=True)
                for args in calls[1:]
            ]
            for thread in threads:
                thread.start()
            if calls:
                call(*calls[0])
            for thread in threads:
                thread.join()

        plan, lost = self._plan(
            range(self.shard_map.num_shards) if shards is None else shards
        )
        missing.extend(lost)
        run(plan)
        if errors:
            raise errors[0]
        return results, tuple(sorted(missing)), served_by, subtrees

    def _effective_context(
        self, trace_context: Optional[TraceContext], trace: Optional[QueryTrace]
    ) -> Optional[TraceContext]:
        """The context to propagate: the caller's, or a fresh one when
        coordinator-local tracing is on (so backends get traced too)."""
        if trace_context is not None:
            return trace_context if trace_context.sampled else None
        if trace is not None:
            return TraceContext.generate()
        return None

    def _stitch_trace(
        self,
        trace: QueryTrace,
        ctx: TraceContext,
        subtrees: Dict[str, Dict[str, object]],
        missing: Tuple[int, ...],
    ) -> Dict[str, object]:
        """Fold per-node subtrees into the coordinator trace.

        Each call contributes one ``node.<s1>+<s2>.<backend>`` span
        (the shards it answered, then the backend) splitting its round trip into engine time (the subtree's
        own total) and the derived network/queue remainder; the node
        with the largest round trip is named the *laggard* (the one a
        slow-query postmortem should look at first), and a PARTIAL
        answer names its missing shards.  The full stitched tree —
        coordinator stages plus every node's engine-level subtree — is
        stored under the trace id for ``trace get <id>``.
        """
        if missing:
            trace.note("missing_shards", ",".join(str(s) for s in missing))
        laggard: Optional[str] = None
        laggard_rpc = -1.0
        for key in sorted(subtrees):
            sub = subtrees[key]
            rpc = float(sub.get("rpc_seconds", 0.0))
            engine = float(sub.get("total_seconds", 0.0))
            trace.add_span(
                f"node.{key}",
                rpc=rpc,
                engine=engine,
                net_queue=max(0.0, rpc - engine),
            )
            if rpc > laggard_rpc:
                laggard, laggard_rpc = key, rpc
        if laggard is not None:
            trace.note("laggard", laggard)
        tree = trace.to_dict()
        tree["trace_id"] = ctx.trace_id
        tree["nodes"] = dict(subtrees)
        self.trace_store.put(ctx.trace_id, tree)
        return tree

    def _account_missing(self, missing: Tuple[int, ...]) -> None:
        if missing:
            _M_PARTIAL.inc()
            _M_MISSING_SHARDS.inc(len(missing))
            self.health.record_fallback(
                "cluster", f"partial result, shards {missing} unreachable"
            )
        else:
            self.health.mark_healthy("cluster")

    def query(
        self,
        object_id: int,
        top_k: int = 10,
        method: str = "filtering",
        trace_context: Optional[TraceContext] = None,
    ) -> ClusterResult:
        """Cluster-wide similarity search seeded by an indexed object:
        :meth:`query_many` with a batch of one."""
        return self.query_many([object_id], top_k, method, trace_context)[0]

    def query_many(
        self,
        object_ids: Sequence[int],
        top_k: int = 10,
        method: str = "filtering",
        trace_context: Optional[TraceContext] = None,
    ) -> List[ClusterResult]:
        """Cluster-wide similarity search seeded by indexed objects: one
        result per id, through the backends' fused pipeline.

        The coordinator's one query pipeline (:meth:`query` is a batch
        of one).  Every backend of the plan (:meth:`_plan`) receives
        *one* call carrying the whole batch, so the per-command overhead
        is paid per backend, not per query: ``querymany`` by id where
        the backend hosts every seed's shard, else ``querysigmany`` with
        the seeds' signatures (:meth:`_scatter_seeded`).  Each seed's
        per-call top-k lists are merged deterministically
        (:meth:`merge_ranked`).  Shards that are entirely unreachable
        are reported in ``missing_shards`` rather than failing the
        query; losing a *seed's* shard (no replica can even produce the
        signature) raises :class:`ClusterError`.

        A sampled ``trace_context`` makes this an explicitly traced
        batch: the context is forwarded on every scatter line, the
        per-node subtrees are stitched under the context's trace id
        (:meth:`_stitch_trace`), and the result cache is bypassed so
        the trace reflects real cluster work, not a coordinator-local
        cache hit.
        """
        object_ids = list(object_ids)
        if not object_ids:
            return []
        started = time.perf_counter()
        _M_QUERIES.inc(len(object_ids))
        traced = trace_context is not None and trace_context.sampled
        epoch = self._cache_epoch()
        keys = [("query", int(oid), int(top_k), method) for oid in object_ids]
        out: List[Optional[ClusterResult]] = [None] * len(object_ids)
        if not traced:
            for i, key in enumerate(keys):
                hit = self._cache.lookup(epoch, key)
                if hit is not None:
                    merged, served_by = hit
                    out[i] = ClusterResult(list(merged), (), dict(served_by))
        miss = [i for i in range(len(object_ids)) if out[i] is None]
        if not miss:
            self.tracer.observe_total(
                "cluster", len(object_ids), time.perf_counter() - started
            )
            return out  # type: ignore[return-value]
        miss_ids = [object_ids[i] for i in miss]
        trace = self.tracer.begin("cluster", len(miss_ids))
        if trace is None and traced:
            trace = QueryTrace("cluster", len(miss_ids))
        ctx = self._effective_context(trace_context, trace)
        # One query per distinct seed; ``querymany`` and
        # ``querysigmany`` both key each answer line by query position.
        seeds = list(dict.fromkeys(miss_ids))
        position = {oid: pos for pos, oid in enumerate(seeds)}
        ids = ",".join(map(str, seeds))
        options = f"top={int(top_k)} method={quote(method)}"

        def parse(lines: Sequence[str], line: str) -> List[List[Tuple[int, float]]]:
            batches: List[List[Tuple[int, float]]] = [[] for _ in seeds]
            for raw in lines:
                pos, oid, dist = raw.split()
                batches[int(pos)].append((int(oid), float(dist)))
            return batches

        scatter_started = time.perf_counter()
        per_call, missing, served_by, subtrees = self._scatter_seeded(
            seeds,
            f"querymany {ids} {options}",
            lambda b64s: f"querysigmany {','.join(b64s)} {options} exclude={ids}",
            parse,
            trace,
            ctx,
        )
        scatter_seconds = time.perf_counter() - scatter_started
        _M_SCATTER_SECONDS.observe(scatter_seconds)
        for shard in served_by:
            _metrics.counter(f"cluster.shard.{shard}.queries").inc(len(miss_ids))
        gather_started = time.perf_counter()
        cacheable = not traced and not missing and self._cache_epoch() == epoch
        for i in miss:
            pos = position[object_ids[i]]
            merged = self.merge_ranked(
                [batches[pos] for batches in per_call.values()], top_k
            )
            out[i] = ClusterResult(merged, missing, dict(served_by))
            if cacheable:
                self._cache.store(
                    epoch, keys[i], (tuple(merged), dict(served_by))
                )
        gather_seconds = time.perf_counter() - gather_started
        _M_GATHER_SECONDS.observe(gather_seconds)
        self._account_missing(missing)
        elapsed = time.perf_counter() - started
        _M_QUERY_SECONDS.observe(elapsed)
        if trace is not None:
            trace.add_span("scatter", seconds=scatter_seconds)
            trace.add_span("gather", seconds=gather_seconds)
            trace.add_count("shards_answered", len(served_by))
            trace.add_count("shards_missing", len(missing))
            self.tracer.finish(trace, elapsed)
            if ctx is not None:
                self._stitch_trace(trace, ctx, subtrees, missing)
        else:
            self.tracer.observe_total("cluster", len(object_ids), elapsed)
        return out  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def _seed_next_id(self) -> int:
        """Initialize the global id counter from the backends' maxima."""
        next_id = 0
        for handle in self.handles:
            try:
                lines = self._call_backend(handle.backend_id, "maxid")
            except FAILOVER_ERRORS:
                continue
            next_id = max(next_id, int(lines[0]))
        return next_id

    def insert_file(
        self, path: str, attributes: Optional[Dict[str, str]] = None
    ) -> int:
        """Ingest a file: assign the next global id, write to the owning
        shard's replicas.

        The write succeeds if at least one replica acknowledged; fewer
        than R acks counts an under-replicated write and records a
        degradation (the shard survives only R-1 further failures).
        """
        with self._id_lock:
            if self._next_id is None:
                self._next_id = self._seed_next_id()
            object_id = self._next_id
            self._next_id += 1
        shard = self.shard_map.shard_of(object_id)
        parts = [f"insertfile {quote(path)} id={object_id}"]
        for key, value in (attributes or {}).items():
            parts.append(f"attr.{key}={quote(value)}")
        line = " ".join(parts)
        acks = 0
        failures: List[Tuple[int, Exception]] = []
        for backend_id in self.shard_map.replicas(shard):
            try:
                self._call_backend(backend_id, line)
            except FAILOVER_ERRORS as exc:
                failures.append((backend_id, exc))
                continue
            acks += 1
        if acks == 0:
            raise ShardUnavailable(shard, failures)
        # Any acknowledged write may change any query's answer: move the
        # write epoch so the result cache flushes on its next access.
        self._write_epoch += 1
        _M_WRITES.inc()
        if acks < self.shard_map.replication:
            _M_UNDER_REPLICATED.inc()
            self.health.record_fallback(
                "replication",
                f"object {object_id} on {acks}/{self.shard_map.replication} replicas",
            )
            get_event_log().record(
                "under_replicated_write",
                object_id=object_id,
                shard=shard,
                acks=acks,
                replication=self.shard_map.replication,
            )
        return object_id

    # ------------------------------------------------------------------
    # Cluster introspection
    # ------------------------------------------------------------------
    def count(self) -> Tuple[int, Tuple[int, ...]]:
        """Total objects across shards (replicas counted once) plus the
        shards that could not be counted."""
        modulus = self.shard_map.num_shards
        per_call, missing, _, _ = self._scatter(
            lambda backend_id, shards: (
                f"countmod {modulus} {','.join(map(str, shards))}"
            ),
            lambda lines, line: int(lines[0]),
            None,
        )
        return sum(per_call.values()), missing

    # ------------------------------------------------------------------
    # Federated metrics
    # ------------------------------------------------------------------
    def collect_node_metrics(self) -> int:
        """Pull every backend's metrics snapshot and fold it in.

        Each reachable backend answers ``metrics -s`` with its full
        registry snapshot; the coordinator keeps the previous snapshot
        per backend and merges only the :func:`~repro.observability.
        metrics.delta_snapshots` *delta* under ``node.<i>.*`` —
        ``merge_snapshot`` accumulates counters, so re-merging full
        snapshots would double-count.  Derived rollups:

        - ``cluster.nodes_up`` — backends that answered this pull;
        - ``cluster.shard.<s>.qps`` — per-shard query rate since the
          previous pull (from the coordinator's own per-shard counters);
        - ``cluster.node.<i>.query_p99_ms`` — each node's engine-level
          p99 from its federated ``engine.query_seconds`` histogram.

        A node that is down is simply skipped (its ``node.<i>.*`` series
        go stale and ``cluster.nodes_up`` drops); no exception escapes.
        Returns the number of nodes that answered.
        """
        registry = _metrics.get_registry()
        up = 0
        with self._federation_lock:
            for handle in self.handles:
                try:
                    lines = self._call_backend(
                        handle.backend_id, "metrics -s",
                        timeout=self.config.probe_timeout,
                    )
                    snapshot = _metrics.decode_snapshot(lines[0])
                except FAILOVER_ERRORS + (ClientError, ValueError, IndexError):
                    continue
                up += 1
                previous = self._node_snapshots.get(handle.backend_id, {})
                delta = _metrics.delta_snapshots(previous, snapshot)
                self._node_snapshots[handle.backend_id] = snapshot
                registry.merge_snapshot(delta, prefix=f"node.{handle.backend_id}.")
                hist = registry.get(f"node.{handle.backend_id}.engine.query_seconds")
                if hist is not None and getattr(hist, "count", 0):
                    _metrics.gauge(
                        f"cluster.node.{handle.backend_id}.query_p99_ms"
                    ).set(hist.quantile(0.99) * 1000.0)
            now = time.monotonic()
            for shard in range(self.shard_map.num_shards):
                counter = registry.get(f"cluster.shard.{shard}.queries")
                total = int(counter.value) if counter is not None else 0
                mark = self._shard_query_marks.get(shard)
                self._shard_query_marks[shard] = (now, total)
                if mark is None:
                    continue
                then, before = mark
                window = now - then
                if window > 0:
                    _metrics.gauge(f"cluster.shard.{shard}.qps").set(
                        (total - before) / window
                    )
        _M_NODES_UP.set(up)
        _M_FEDERATIONS.inc()
        return up

    def status_lines(self) -> List[str]:
        """``key value`` lines for the ``cluster`` protocol command."""
        cache = self._cache.stats()
        lines = [
            f"shards {self.shard_map.num_shards}",
            f"replication {self.shard_map.replication}",
            f"backends {len(self.handles)}",
            f"partial_results {_M_PARTIAL.value}",
            f"failovers {_M_FAILOVERS.value}",
            f"cache_entries {cache['entries']}/{cache['capacity']}",
            f"cache_hits {cache['hits']}",
            f"cache_misses {cache['misses']}",
            f"cache_invalidations {cache['invalidations']}",
        ]
        for handle in self.handles:
            breaker = handle.breaker
            shards = ",".join(
                str(s) for s in self.shard_map.shards_on(handle.backend_id)
            )
            lines.append(
                f"backend.{handle.backend_id} {handle.address} "
                f"state={breaker.state.value} shards={shards} "
                f"failures={breaker.total_failures} opens={breaker.times_opened}"
            )
        return lines

    # ------------------------------------------------------------------
    # Health probing
    # ------------------------------------------------------------------
    def probe_once(self) -> int:
        """Probe every non-closed backend once; returns re-admissions.

        Success flows through the breaker's half-open gate, so a probe
        is only sent when the breaker permits one; a succeeding probe
        closes the breaker and the backend immediately takes traffic
        again.
        """
        readmitted = 0
        for handle in self.handles:
            breaker = handle.breaker
            if breaker.state is BreakerState.CLOSED:
                continue
            if not breaker.allow():
                continue
            _M_PROBES.inc()
            try:
                handle.send("ping", timeout=self.config.probe_timeout)
            except ClientError:
                breaker.record_failure()
                continue
            breaker.record_success()
            self.health.mark_healthy(f"backend.{handle.backend_id}")
            readmitted += 1
        return readmitted

    def start_probes(self) -> None:
        """Start the background health prober (idempotent)."""
        if self._prober is not None and self._prober.is_alive():
            return
        self._stop.clear()

        def loop() -> None:
            while not self._stop.wait(self.config.probe_interval):
                self.probe_once()

        self._prober = threading.Thread(
            target=loop, name="cluster-prober", daemon=True
        )
        self._prober.start()

    def close(self) -> None:
        self._stop.set()
        if self._prober is not None:
            self._prober.join(timeout=2.0)
            self._prober = None
        for handle in self.handles:
            handle.close()

    def __enter__(self) -> "FerretCoordinator":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

"""Client library for the command-line query protocol.

Beyond the blocking single-connection client the paper's tools need,
:class:`FerretClient` offers an opt-in resilience layer for production
use:

- **Per-command deadlines** — the socket timeout is applied to every
  command round-trip (not just connect), and an expired deadline raises
  :class:`ClientTimeout`, a distinct subclass of :class:`ClientError`,
  so callers can tell a retryable timeout from a protocol error.
- **Automatic reconnect + retry** — with a :class:`RetryPolicy`, broken
  connections and timeouts are retried with exponential backoff and
  deterministic jitter, but only for *idempotent* commands (queries,
  stats, health): an ``insertfile`` is never replayed blindly.  Even
  without a policy, a torn connection (ECONNRESET / BrokenPipeError —
  typically a restarted server or an idle-timeout disconnect) earns one
  free immediate reconnect for idempotent commands, counted in
  ``errors_absorbed.client_reconnect``.
- **Degradation awareness** — an ``ERR DEGRADED <reason>`` response
  (see ``docs/ROBUSTNESS.md``) raises :class:`ServerDegraded`, again
  distinguishable from plain command failures.
- **Multi-endpoint awareness** — constructed with
  ``endpoints=[(host, port), ...]`` the client cycles to the next
  endpoint on reconnect, so a coordinator replica set behind it keeps
  answering while one address is down.
- **Partial-result surfacing** — a coordinator answer whose first data
  line is ``PARTIAL <shards>`` (some shards unreachable; see
  :mod:`repro.cluster`) is stripped, recorded in
  ``last_partial_shards`` and reported as a
  :class:`PartialResultWarning` rather than silently mistaken for a
  complete answer.
"""

from __future__ import annotations

import random
import socket
import time
import warnings
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..observability import metrics as _metrics
from .protocol import quote

__all__ = [
    "ClientError",
    "ClientTimeout",
    "ConnectionLost",
    "ServerDegraded",
    "PartialResultWarning",
    "RetryPolicy",
    "FerretClient",
    "IDEMPOTENT_COMMANDS",
]

_M_RECONNECTS = _metrics.counter("errors_absorbed.client_reconnect")


class ClientError(RuntimeError):
    """Server returned an ERR response or the connection broke."""


class ClientTimeout(ClientError):
    """A command exceeded its deadline (retryable for idempotent commands)."""


class ConnectionLost(ClientError, ConnectionError):
    """The transport failed: connect refused, reset, or desynchronized.

    Distinct from a plain :class:`ClientError` (a well-formed ``ERR``
    answer over a healthy connection): a :class:`ConnectionLost` means
    no answer arrived at all, so the command *may* be replayed if it is
    idempotent, and cluster routing treats the backend as suspect.
    Subclasses :class:`ConnectionError` too, so pre-existing ``except
    OSError`` connect handling keeps working.
    """


class PartialResultWarning(UserWarning):
    """A cluster answer omitted one or more unreachable shards.

    The results returned are still correct — they are the deterministic
    merge of every *live* shard — but objects owned by the missing
    shards could not be considered.
    """

    def __init__(self, missing_shards: Sequence[int]) -> None:
        self.missing_shards = tuple(missing_shards)
        super().__init__(
            "partial result: shard(s) "
            + ",".join(str(s) for s in self.missing_shards)
            + " unreachable"
        )


class ServerDegraded(ClientError):
    """Server answered ``ERR DEGRADED <reason>``: alive but impaired."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


#: Commands safe to replay after a connection failure: they do not
#: mutate server state (or, for ``setparam``, are absorbing).
IDEMPOTENT_COMMANDS = frozenset(
    {
        "ping",
        "count",
        "stat",
        "health",
        "query",
        "querymany",
        "queryfile",
        "attrquery",
        "attrs",
        "setparam",
        "metrics",
        "trace",
        "profile",
        "getsig",
        "querysigmany",
        "countmod",
        "maxid",
        "cluster",
        "events",
    }
)


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with deterministic jitter.

    Delay before attempt ``n`` (0-based, first retry is ``n=1``) is
    ``min(max_delay, base_delay * multiplier**(n-1))`` scaled by a
    jitter factor drawn uniformly from ``[1-jitter, 1+jitter]`` using a
    seeded RNG, so retry storms desynchronize across clients while
    individual runs stay reproducible.
    """

    max_attempts: int = 4
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.25
    retry_timeouts: bool = True
    seed: int = 0

    def delays(self) -> List[float]:
        rng = random.Random(self.seed)
        delays = []
        for attempt in range(1, self.max_attempts):
            base = min(self.max_delay, self.base_delay * self.multiplier ** (attempt - 1))
            delays.append(base * (1.0 + self.jitter * (2.0 * rng.random() - 1.0)))
        return delays


def _parse_results(lines: Sequence[str]) -> List[Tuple[int, float]]:
    """``<oid> <dist>`` answer lines as ``(object_id, distance)`` pairs."""
    results = []
    for line in lines:
        oid, _, dist = line.partition(" ")
        results.append((int(oid), float(dist)))
    return results


class FerretClient:
    """Blocking client over one TCP connection.

    Usable as a context manager.  All methods raise :class:`ClientError`
    on an ``ERR`` response.  With ``retry`` set, idempotent commands
    survive connection failures and server restarts transparently.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7878,
        timeout: float = 30.0,
        retry: Optional[RetryPolicy] = None,
        endpoints: Optional[Sequence[Tuple[str, int]]] = None,
    ) -> None:
        if endpoints:
            self._endpoints: List[Tuple[str, int]] = list(endpoints)
        else:
            self._endpoints = [(host, port)]
        self._endpoint_index = 0
        self.host, self.port = self._endpoints[0]
        self.timeout = timeout
        self.retry = retry
        self._sock: Optional[socket.socket] = None
        self._reader = None
        #: Shards missing from the most recent cluster answer (empty
        #: tuple when the last answer was complete).
        self.last_partial_shards: Tuple[int, ...] = ()
        self._connect()

    # -- connection management -------------------------------------------
    def _connect(self) -> None:
        """Connect to the current endpoint, cycling through alternates.

        Raises :class:`ConnectionLost` (not a raw ``OSError``) when every
        configured endpoint refuses, so callers see one exception family
        for all transport failures.
        """
        self._teardown()
        last_exc: Optional[OSError] = None
        for offset in range(len(self._endpoints)):
            index = (self._endpoint_index + offset) % len(self._endpoints)
            host, port = self._endpoints[index]
            try:
                self._sock = socket.create_connection(
                    (host, port), timeout=self.timeout
                )
            except OSError as exc:
                last_exc = exc
                continue
            self._endpoint_index = index
            self.host, self.port = host, port
            self._reader = self._sock.makefile("r", encoding="utf-8")
            return
        raise ConnectionLost(
            f"connect failed for all {len(self._endpoints)} endpoint(s): {last_exc}"
        ) from last_exc

    def _teardown(self) -> None:
        if self._reader is not None:
            try:
                self._reader.close()
            except OSError:
                pass
            self._reader = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    @property
    def connected(self) -> bool:
        return self._sock is not None

    # -- raw protocol ----------------------------------------------------
    def _send_once(self, line: str, deadline: Optional[float]) -> List[str]:
        """One command round-trip on the current connection.

        ``deadline`` is an absolute ``time.monotonic()`` instant; the
        socket timeout is re-armed from it before the send and before
        every response read, so a stalled server cannot hold the caller
        past its budget.  An already-expired deadline raises
        :class:`ClientTimeout` *before* anything is written — sending a
        command whose response will never be read would desynchronize
        the connection for no benefit.  After any mid-flight failure the
        connection is torn down: a half-read response would
        desynchronize the line protocol.
        """
        # The command word is only for error messages; an empty or
        # whitespace-only line must still fail as a timeout/protocol
        # error, not as an IndexError on split()[0].
        tokens = line.split()
        command_word = tokens[0] if tokens else "<empty>"
        if deadline is not None and deadline - time.monotonic() <= 0:
            # Connection (if any) is untouched: nothing was sent.
            raise ClientTimeout(
                f"deadline expired before {command_word!r} was sent"
            )
        if self._sock is None:
            self._connect()  # raises ConnectionLost if every endpoint refuses

        def remaining() -> Optional[float]:
            if deadline is None:
                return self.timeout
            left = deadline - time.monotonic()
            if left <= 0:
                raise ClientTimeout(
                    f"deadline expired before {command_word!r} completed"
                )
            return left

        try:
            self._sock.settimeout(remaining())
            self._sock.sendall((line.rstrip("\n") + "\n").encode("utf-8"))
            self._sock.settimeout(remaining())
            header = self._reader.readline()
            if not header:
                raise ConnectionLost("connection closed by server")
            header = header.rstrip("\n")
            if header.startswith("ERR"):
                message = header[4:] or "unknown server error"
                if message.startswith("DEGRADED"):
                    raise ServerDegraded(message[len("DEGRADED"):].strip() or "degraded")
                raise ClientError(message)
            if not header.startswith("OK "):
                raise ConnectionLost(f"malformed response header {header!r}")
            count = int(header[3:])
            lines = []
            for _ in range(count):
                self._sock.settimeout(remaining())
                lines.append(self._reader.readline().rstrip("\n"))
            return lines
        except socket.timeout as exc:
            # The connection is now desynchronized (a late response may
            # still arrive): drop it so the next command starts clean.
            self._teardown()
            raise ClientTimeout(f"command timed out: {command_word!r}") from exc
        except ClientError as exc:
            # Ordered before OSError: ConnectionLost is both.  A plain
            # ERR answer (and ServerDegraded) is a complete, well-formed
            # response — the connection stays up; everything else is
            # torn down because a half-exchanged response would
            # desynchronize the line protocol.
            if isinstance(exc, (ConnectionLost, ClientTimeout)):
                self._teardown()
            raise
        except (OSError, ValueError) as exc:
            self._teardown()
            raise ConnectionLost(f"connection failed: {exc}") from exc

    def send(self, line: str, timeout: Optional[float] = None) -> List[str]:
        """Send one command line; returns the response data lines.

        ``timeout`` overrides the client-wide per-command timeout for
        this call.  With a :class:`RetryPolicy` configured, idempotent
        commands are retried across reconnects on connection errors and
        (optionally) timeouts; each attempt gets a fresh deadline.
        """
        budget = timeout if timeout is not None else self.timeout
        command = line.strip().split(" ", 1)[0].lower() if line.strip() else ""
        idempotent = command in IDEMPOTENT_COMMANDS
        policy = self.retry
        delays = policy.delays() if (policy is not None and idempotent) else []
        attempt = 0
        # One free immediate reconnect per call: a torn connection
        # (restarted server, idle-timeout disconnect, stale pooled
        # socket) costs exactly one resend for idempotent commands even
        # without a RetryPolicy.  Counted, never silent.
        free_reconnect = idempotent
        while True:
            deadline = time.monotonic() + budget if budget is not None else None
            try:
                return self._send_once(line, deadline)
            except ServerDegraded:
                raise  # the server answered; retrying won't help
            except ClientTimeout:
                if not delays or not policy.retry_timeouts or attempt >= len(delays):
                    raise
            except ConnectionLost:
                if free_reconnect:
                    free_reconnect = False
                    _M_RECONNECTS.inc()
                    continue
                if attempt >= len(delays):
                    raise
            # Plain ClientError (an ERR answer over a live connection)
            # propagates above: it is an answer, not a failure.
            time.sleep(delays[attempt])
            attempt += 1
            # Reconnection happens lazily inside the next _send_once.

    # -- typed helpers -----------------------------------------------------
    def ping(self) -> bool:
        return self.send("ping") == ["pong"]

    def count(self) -> int:
        return int(self.send("count")[0])

    def stat(self) -> Dict[str, str]:
        out: Dict[str, str] = {}
        for line in self.send("stat"):
            key, _, value = line.partition(" ")
            out[key] = value
        return out

    def health(self) -> Dict[str, str]:
        """Server health: status plus per-component degradation details."""
        out: Dict[str, str] = {}
        for line in self.send("health"):
            key, _, value = line.partition(" ")
            out[key] = value
        return out

    def metrics(self, prefix: Optional[str] = None) -> Dict[str, str]:
        """The server's metrics registry as ``{name: value}`` strings.

        ``prefix`` restricts the dump server-side (``metrics arena.``)
        so clients needn't download the full registry.
        """
        line = "metrics" if prefix is None else f"metrics {quote(prefix)}"
        out: Dict[str, str] = {}
        for response_line in self.send(line):
            key, _, value = response_line.partition(" ")
            out[key] = value
        return out

    def metrics_prometheus(self, prefix: Optional[str] = None) -> str:
        """The registry in Prometheus text exposition format (raw)."""
        line = "metrics -p" if prefix is None else f"metrics -p {quote(prefix)}"
        return "\n".join(self.send(line)) + "\n"

    def profile(self, limit: Optional[int] = None) -> List[str]:
        """Sampling-profiler stats + top collapsed stacks (raw lines)."""
        line = "profile" if limit is None else f"profile {int(limit)}"
        return self.send(line)

    def trace(self) -> Dict[str, str]:
        """The last query's stage breakdown (``setparam trace on`` first)."""
        out: Dict[str, str] = {}
        for line in self.send("trace"):
            key, _, value = line.partition(" ")
            out[key] = value
        return out

    def trace_tree(self, trace_id: Optional[str] = None) -> List[str]:
        """The last (or ``trace_id``'s) trace as a pretty-printed span
        tree (raw ``trace --tree`` / ``trace get <id> --tree`` lines)."""
        if trace_id is None:
            return self.send("trace --tree")
        return self.send(f"trace get {quote(trace_id)} --tree")

    def events(self, limit: Optional[int] = None) -> List[str]:
        """The server's event journal, oldest first (raw ``events``
        lines: ``<seq> <unix_ts> <kind> k=v ...`` after the
        ``events_total`` header)."""
        line = "events" if limit is None else f"events {int(limit)}"
        return self.send(line)

    def traced_query(
        self,
        object_id: int,
        top: int = 10,
        method: str = "filtering",
    ) -> Tuple[List[Tuple[int, float]], Optional[Dict[str, object]]]:
        """A similarity query with a fresh trace context attached.

        Returns ``(results, trace_tree)`` — against a coordinator the
        tree is the stitched cross-node span tree (``node.<shard>.
        <backend>`` subtrees included); against a single server it is
        that engine's trace.  ``trace_tree`` is ``None`` only if the
        server did not piggyback one.
        """
        from ..observability.context import TraceContext, split_trace_line

        ctx = TraceContext.generate()
        lines = self.send(
            f"query {int(object_id)} top={int(top)} method={quote(method)} "
            f"trace={ctx.to_wire()}"
        )
        lines, tree = split_trace_line(lines)
        return _parse_results(self._strip_partial(lines)), tree

    def _strip_partial(self, lines: List[str]) -> List[str]:
        """Record and strip a leading ``PARTIAL <shards>`` tag.

        Coordinator answers prepend ``PARTIAL s1,s2`` when one or more
        shards were unreachable (see :mod:`repro.cluster`); the
        remaining lines are the merged answer over the live shards.
        Updates ``last_partial_shards`` either way and warns with
        :class:`PartialResultWarning` so callers cannot mistake a
        partial answer for a complete one.
        """
        if lines and lines[0].startswith("PARTIAL"):
            tail = lines[0][len("PARTIAL"):].strip()
            self.last_partial_shards = tuple(
                int(s) for s in tail.split(",") if s
            )
            warnings.warn(
                PartialResultWarning(self.last_partial_shards), stacklevel=3
            )
            return lines[1:]
        self.last_partial_shards = ()
        return lines

    def query(
        self,
        object_id: int,
        top: int = 10,
        method: str = "filtering",
        attr: Optional[str] = None,
        include_self: bool = False,
    ) -> List[Tuple[int, float]]:
        parts = [f"query {object_id} top={top} method={method}"]
        if attr:
            parts.append(f"attr={quote(attr)}")
        if include_self:
            parts.append("self=yes")
        return _parse_results(self._strip_partial(self.send(" ".join(parts))))

    def querymany(
        self,
        object_ids: Sequence[int],
        top: int = 10,
        method: str = "filtering",
    ) -> List[List[Tuple[int, float]]]:
        """Batched similarity search: one result list per seed id, in
        the order of ``object_ids`` (a repeated id gets its own list).

        Both front ends answer ``querymany <id1,id2,...>`` with
        ``<query_index> <oid> <dist>`` lines, keyed by the id's position.
        """
        ids = ",".join(str(int(i)) for i in object_ids)
        lines = self._strip_partial(
            self.send(f"querymany {ids} top={top} method={method}")
        )
        groups: List[List[Tuple[int, float]]] = [[] for _ in object_ids]
        for line in lines:
            index, oid, dist = line.split()
            groups[int(index)].append((int(oid), float(dist)))
        return groups

    def cluster_status(self) -> Dict[str, str]:
        """Coordinator topology/health summary (``cluster`` command)."""
        out: Dict[str, str] = {}
        for line in self.send("cluster"):
            key, _, value = line.partition(" ")
            out[key] = value
        return out

    def attrquery(self, expression: str) -> List[int]:
        return [int(line) for line in self.send(f"attrquery {quote(expression)}")]

    def query_file(
        self,
        path: str,
        top: int = 10,
        method: str = "filtering",
        attr: Optional[str] = None,
    ) -> List[Tuple[int, float]]:
        """Similarity search seeded by a file on the server's filesystem."""
        parts = [f"queryfile {quote(path)} top={top} method={method}"]
        if attr:
            parts.append(f"attr={quote(attr)}")
        return _parse_results(self.send(" ".join(parts)))

    def insert_file(
        self,
        path: str,
        attributes: Optional[Dict[str, str]] = None,
        object_id: Optional[int] = None,
    ) -> int:
        parts = [f"insertfile {quote(path)}"]
        if object_id is not None:
            parts.append(f"id={int(object_id)}")
        for key, value in (attributes or {}).items():
            parts.append(f"attr.{key}={quote(value)}")
        return int(self.send(" ".join(parts))[0])

    def set_param(self, name: str, value: str) -> None:
        self.send(f"setparam {name} {value}")

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.sendall(b"quit\n")
            except OSError:
                pass
        self._teardown()

    def __enter__(self) -> "FerretClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

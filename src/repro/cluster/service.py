"""Coordinator-as-a-server: the cluster behind the existing line protocol.

:class:`ClusterCommandProcessor` duck-types the single-engine
``CommandProcessor`` interface (``execute(Command) -> List[str]``), so a
stock :class:`~repro.server.server.FerretServer` can front a whole
cluster without changes.  Clients speak the same protocol they speak to
one server, with one addition — the **partial-result contract**: a query
answered while one or more shards were entirely unreachable prepends a
first data line

    PARTIAL <shard,shard,...>

to the (still deterministically merged, still correct-for-live-shards)
results.  :class:`~repro.server.client.FerretClient` strips the tag and
raises :class:`~repro.server.client.PartialResultWarning` so callers
cannot mistake a partial answer for a complete one.

``python -m repro.cluster.service --backends host:port,host:port ...``
runs a standalone coordinator front end.
"""

from __future__ import annotations

import argparse
from typing import List, Optional, Sequence, Tuple

from ..core.plugin import EXTRACTION_ERRORS
from ..observability import context as _trace_context
from ..observability import metrics as _metrics
from ..observability.events import get_event_log
from ..server.client import ClientError
from ..server.protocol import (
    Command,
    ProtocolError,
    parse_querymany_ids,
    parse_top_k,
)
from .coordinator import (
    ClusterConfig,
    ClusterError,
    ClusterResult,
    FerretCoordinator,
)

__all__ = ["ClusterCommandProcessor", "main"]

#: What the coordinator raises on purpose: a backend's well-formed
#: ``ERR`` relayed as :class:`ClientError`, or a :class:`ClusterError`
#: (:class:`~repro.cluster.coordinator.ShardUnavailable` included).
#: Both answer ``ERR <message>``; anything else is a bug and reaches
#: the server's fault boundary (``server.unhandled_errors``).
_CLUSTER_ERRORS = (ClientError, ClusterError)


def _partial_prefix(result_like) -> List[str]:
    """The ``PARTIAL`` tag line for a degraded answer (or no line)."""
    missing = tuple(result_like)
    if not missing:
        return []
    return ["PARTIAL " + ",".join(str(s) for s in missing)]


class ClusterCommandProcessor:
    """Line-protocol dispatcher around one :class:`FerretCoordinator`.

    Mirrors the single-engine processor's dispatch convention
    (``_cmd_<name>`` methods, :class:`ProtocolError` for bad requests)
    so the server loop, error formatting, and fault boundary are shared
    verbatim.
    """

    def __init__(self, coordinator: FerretCoordinator) -> None:
        self.coordinator = coordinator
        self.health = coordinator.health

    # -- dispatch ---------------------------------------------------------
    def execute(self, command: Command) -> List[str]:
        handler = getattr(self, f"_cmd_{command.name}", None)
        if handler is None:
            raise ProtocolError(f"unknown command {command.name!r}")
        result = handler(command)
        _metrics.counter(f"cluster.command.{command.name}").inc()
        return result

    # -- helpers ----------------------------------------------------------
    @staticmethod
    def _render(result: ClusterResult, with_index: Optional[int] = None) -> List[str]:
        if with_index is None:
            return [f"{r.object_id} {r.distance:.6f}" for r in result.results]
        return [
            f"{with_index} {r.object_id} {r.distance:.6f}" for r in result.results
        ]

    # -- handlers ----------------------------------------------------------
    def _cmd_ping(self, command: Command) -> List[str]:
        return ["pong"]

    def _cmd_health(self, command: Command) -> List[str]:
        return self.health.status_lines()

    def _cmd_cluster(self, command: Command) -> List[str]:
        return self.coordinator.status_lines()

    def _cmd_count(self, command: Command) -> List[str]:
        total, missing = self.coordinator.count()
        return _partial_prefix(missing) + [str(total)]

    @staticmethod
    def _trace_context_from(command: Command):
        """The ``trace=`` context, if the request carried one."""
        token = command.get("trace")
        if token is None:
            return None
        try:
            return _trace_context.TraceContext.parse(token)
        except ValueError as exc:
            raise ProtocolError(str(exc)) from exc

    def _trace_reply(self, ctx) -> List[str]:
        """The piggybacked ``TRACE`` line for a traced cluster answer
        (the stitched tree the coordinator just stored)."""
        if ctx is None or not ctx.sampled:
            return []
        tree = self.coordinator.trace_store.get(ctx.trace_id)
        if tree is None:
            return []
        payload = _trace_context.encode_trace(tree)
        return [f"{_trace_context.TRACE_LINE_PREFIX}{ctx.trace_id} {payload}"]

    def _cmd_query(self, command: Command) -> List[str]:
        if len(command.args) != 1:
            raise ProtocolError(
                "usage: query <object_id> [top=] [method=] [trace=]"
            )
        try:
            object_id = int(command.args[0])
        except ValueError:
            raise ProtocolError(f"bad object id {command.args[0]!r}") from None
        top_k = parse_top_k(command)
        method = command.get("method", "filtering")
        ctx = self._trace_context_from(command)
        try:
            result = self.coordinator.query(
                object_id, top_k=top_k, method=method, trace_context=ctx
            )
        except _CLUSTER_ERRORS as exc:
            # A ClientError relayed from a backend's well-formed ERR
            # answer (e.g. "unknown object N") is a bad request here too.
            raise ProtocolError(str(exc)) from exc
        return (
            _partial_prefix(result.missing_shards)
            + self._render(result)
            + self._trace_reply(ctx)
        )

    def _cmd_querymany(self, command: Command) -> List[str]:
        object_ids = parse_querymany_ids(
            command, "usage: querymany <id1,id2,...> [top=] [method=] [trace=]"
        )
        top_k = parse_top_k(command)
        method = command.get("method", "filtering")
        ctx = self._trace_context_from(command)
        try:
            results = self.coordinator.query_many(
                object_ids, top_k=top_k, method=method, trace_context=ctx
            )
        except _CLUSTER_ERRORS as exc:
            raise ProtocolError(str(exc)) from exc
        missing = results[0].missing_shards if results else ()
        lines = _partial_prefix(missing)
        for index, result in enumerate(results):
            lines.extend(self._render(result, with_index=index))
        return lines + self._trace_reply(ctx)

    def _cmd_insertfile(self, command: Command) -> List[str]:
        if len(command.args) != 1:
            raise ProtocolError("usage: insertfile <path> [attr.<k>=<v> ...]")
        attrs = {
            key[len("attr."):]: value
            for key, value in command.kwargs
            if key.startswith("attr.") and key != "attr."
        }
        try:
            object_id = self.coordinator.insert_file(
                command.args[0], attributes=attrs or None
            )
        except _CLUSTER_ERRORS + EXTRACTION_ERRORS as exc:
            raise ProtocolError(str(exc)) from exc
        return [str(object_id)]

    def _cmd_metrics(self, command: Command) -> List[str]:
        """``metrics [-p|-s] [prefix]``: the coordinator registry with
        every backend's snapshot federated in first (``node.<i>.*`` plus
        rollups; see :meth:`FerretCoordinator.collect_node_metrics`)."""
        prometheus = False
        snapshot = False
        prefix: Optional[str] = None
        for arg in command.args:
            if arg == "-p":
                prometheus = True
            elif arg == "-s":
                snapshot = True
            elif prefix is None:
                prefix = arg
            else:
                raise ProtocolError("usage: metrics [-p|-s] [prefix]")
        if prometheus and snapshot:
            raise ProtocolError("usage: metrics [-p|-s] [prefix]")
        self.coordinator.collect_node_metrics()
        registry = _metrics.get_registry()
        if snapshot:
            state = registry.snapshot()
            if prefix:
                state = {
                    name: value
                    for name, value in state.items()
                    if name.startswith(prefix)
                }
            return [_metrics.encode_snapshot(state)]
        if prometheus:
            return registry.render_prometheus(prefix=prefix)
        return registry.render(prefix=prefix)

    def _cmd_trace(self, command: Command) -> List[str]:
        tracer = self.coordinator.tracer
        args = list(command.args)
        tree = "--tree" in args
        if tree:
            args.remove("--tree")
        if args and args[0] == "slow":
            try:
                limit = int(args[1]) if len(args) > 1 else 10
            except ValueError:
                raise ProtocolError("usage: trace slow [n] [--tree]") from None
            if limit <= 0 or len(args) > 2:
                raise ProtocolError("usage: trace slow [n] [--tree]")
            lines = [f"slow_queries_total {tracer.slow_log.total_recorded}"]
            for i, entry in enumerate(tracer.slow_log.entries()[-limit:]):
                if tree:
                    lines.extend(
                        _trace_context.render_trace_tree(entry.to_dict())
                    )
                else:
                    note = entry.notes.get("missing_shards")
                    partial = f" PARTIAL={note}" if note else ""
                    laggard = entry.notes.get("laggard")
                    slowest = f" laggard={laggard}" if laggard else ""
                    lines.append(
                        f"{i} method={entry.method} queries={entry.num_queries} "
                        f"total_seconds={entry.total_seconds:.6f}"
                        f"{partial}{slowest}"
                    )
            return lines
        if args and args[0] == "get":
            if len(args) != 2:
                raise ProtocolError("usage: trace get <id> [--tree]")
            stored = self.coordinator.trace_store.get(args[1])
            if stored is None:
                raise ProtocolError(f"unknown trace id {args[1]!r}")
            if tree:
                return _trace_context.render_trace_tree(stored)
            return _trace_context.trace_lines(stored)
        if args:
            raise ProtocolError("usage: trace [get <id>|slow [n]] [--tree]")
        last = tracer.last
        if last is None:
            return [
                f"tracing {'on' if tracer.enabled else 'off'}",
                "no_trace_recorded",
            ]
        if tree:
            return _trace_context.render_trace_tree(last.to_dict())
        return last.lines()

    def _cmd_events(self, command: Command) -> List[str]:
        """``events [n]``: the coordinator's event journal — breaker
        transitions, failovers, re-admissions — oldest first (the
        postmortem timeline; see docs/OBSERVABILITY.md)."""
        limit: Optional[int] = None
        if command.args:
            try:
                limit = int(command.args[0])
            except ValueError:
                raise ProtocolError("usage: events [n]") from None
            if limit < 0 or len(command.args) > 1:
                raise ProtocolError("usage: events [n]")
        journal = get_event_log()
        lines = [f"events_total {journal.total_recorded}"]
        lines.extend(event.line() for event in journal.tail(limit))
        return lines

    def _cmd_setparam(self, command: Command) -> List[str]:
        if len(command.args) != 2:
            raise ProtocolError("usage: setparam <name> <value>")
        name, value = command.args
        if name == "trace":
            self.coordinator.tracer.enabled = value.lower() in ("on", "1", "true")
            return [f"trace {'on' if self.coordinator.tracer.enabled else 'off'}"]
        raise ProtocolError(f"unknown parameter {name!r}")


def _parse_backends(spec: str) -> List[Tuple[str, int]]:
    endpoints = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        host, _, port = part.rpartition(":")
        if not host or not port.isdigit():
            raise argparse.ArgumentTypeError(f"bad endpoint {part!r}")
        endpoints.append((host, int(port)))
    if not endpoints:
        raise argparse.ArgumentTypeError("no backend endpoints given")
    return endpoints


def main(argv: Optional[Sequence[str]] = None) -> None:
    parser = argparse.ArgumentParser(
        description="Ferret cluster coordinator front end"
    )
    parser.add_argument(
        "--backends",
        type=_parse_backends,
        required=True,
        help="comma-separated backend endpoints, host:port[,host:port...]",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7879)
    parser.add_argument("--shards", type=int, default=None)
    parser.add_argument("--replication", type=int, default=2)
    args = parser.parse_args(argv)

    from ..server.server import FerretServer

    config = ClusterConfig(replication=args.replication)
    with FerretCoordinator(
        args.backends, num_shards=args.shards, config=config
    ) as coordinator:
        coordinator.start_probes()
        server = FerretServer(
            ClusterCommandProcessor(coordinator), args.host, args.port
        )
        host, port = server.server_address
        print(f"coordinator listening on {host}:{port}", flush=True)
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            server.shutdown()
            server.server_close()


if __name__ == "__main__":
    main()

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
from ..server.client import ClientError
from ..server.commands import OperatorCommands
from ..server.protocol import (
    Command,
    ProtocolError,
    parse_querymany_ids,
    parse_top_k,
)
from .coordinator import (
    ClusterConfig,
    ClusterError,
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


class ClusterCommandProcessor(OperatorCommands):
    """Line-protocol dispatcher around one :class:`FerretCoordinator`.

    Mirrors the single-engine processor's dispatch convention
    (``_cmd_<name>`` methods, :class:`ProtocolError` for bad requests)
    so the server loop, error formatting, and fault boundary are shared
    verbatim; the operator commands (``ping``, ``health``, ``trace``,
    ``events``, ``setparam trace``) are the single server's own
    (:class:`~repro.server.commands.OperatorCommands`).
    """

    def __init__(self, coordinator: FerretCoordinator) -> None:
        self.coordinator = coordinator
        self.health = coordinator.health
        self.tracer = coordinator.tracer
        self.trace_store = coordinator.trace_store

    # -- dispatch ---------------------------------------------------------
    def execute(self, command: Command) -> List[str]:
        handler = getattr(self, f"_cmd_{command.name}", None)
        if handler is None:
            raise ProtocolError(f"unknown command {command.name!r}")
        result = handler(command)
        _metrics.counter(f"cluster.command.{command.name}").inc()
        return result

    # -- handlers ----------------------------------------------------------
    def _cmd_cluster(self, command: Command) -> List[str]:
        return self.coordinator.status_lines()

    def _cmd_count(self, command: Command) -> List[str]:
        total, missing = self.coordinator.count()
        return _partial_prefix(missing) + [str(total)]

    def _trace_reply(self, ctx) -> List[str]:
        """The piggybacked ``TRACE`` line for a traced cluster answer
        (the stitched tree the coordinator just stored)."""
        if ctx is None or not ctx.sampled:
            return []
        tree = self.trace_store.get(ctx.trace_id)
        if tree is None:
            return []
        payload = _trace_context.encode_trace(tree)
        return [f"{_trace_context.TRACE_LINE_PREFIX}{ctx.trace_id} {payload}"]

    def _answer(
        self, command: Command, object_ids: List[int], keyed: bool
    ) -> List[str]:
        """``query`` and ``querymany``'s one coordinator call: the
        ``PARTIAL`` tag (if any), the answer lines, then the ``TRACE``
        line (if traced)."""
        top_k = parse_top_k(command)
        method = command.get("method", "filtering")
        ctx = self._trace_context_from(command)
        try:
            results = self.coordinator.query_many(
                object_ids, top_k=top_k, method=method, trace_context=ctx
            )
        except _CLUSTER_ERRORS as exc:
            # A ClientError relayed from a backend's well-formed ERR
            # answer (e.g. "unknown object N") is a bad request here too.
            raise ProtocolError(str(exc)) from exc
        missing = results[0].missing_shards if results else ()
        return (
            _partial_prefix(missing)
            + self._render([r.results for r in results], keyed)
            + self._trace_reply(ctx)
        )

    def _cmd_query(self, command: Command) -> List[str]:
        if len(command.args) != 1:
            raise ProtocolError(
                "usage: query <object_id> [top=] [method=] [trace=]"
            )
        try:
            object_id = int(command.args[0])
        except ValueError:
            raise ProtocolError(f"bad object id {command.args[0]!r}") from None
        return self._answer(command, [object_id], keyed=False)

    def _cmd_querymany(self, command: Command) -> List[str]:
        object_ids = parse_querymany_ids(
            command, "usage: querymany <id1,id2,...> [top=] [method=] [trace=]"
        )
        return self._answer(command, object_ids, keyed=True)

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
        """The coordinator registry with every backend's snapshot
        federated in first (``node.<i>.*`` plus rollups; see
        :meth:`FerretCoordinator.collect_node_metrics`)."""
        self.coordinator.collect_node_metrics()
        return super()._cmd_metrics(command)


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

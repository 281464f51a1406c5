"""Command handlers for the query interface.

Supported commands (section 4.1.4's "various parameters including the
number of results to return, filter parameters, and attributes"):

- ``ping`` — liveness check.
- ``count`` — number of indexed objects.
- ``stat`` — engine storage statistics.
- ``query <object_id> [top=10] [method=filtering] [attr=<expr>]
  [mod=<S> residue=<a,b,...>] [weights=w1,w2,...]`` — similarity search
  seeded by an indexed object; ``attr=`` restricts the search to
  attribute-query matches first, ``mod=/residue=`` to the objects whose
  id is one of the residues modulo ``S``, and ``weights=`` overrides
  the seed's segment weights (the paper's "adjusted weights for feature
  vectors" query parameter — e.g. to emphasize one image region).
- ``querymany <id1,id2,...> [top=10] [method=filtering] [attr=<expr>]
  [mod=<S> residue=<a,b,...>]`` — batch similarity search seeded by
  several indexed objects at once; runs through the engine's fused
  multi-query pipeline (one sketch scan for the whole batch, then the
  ranking) and answers one ``<query_id> <object_id> <distance>`` line
  per result.
- ``attrquery <expr>`` — attribute-only search; returns object ids.
- ``insertfile <path> [id=<object_id>] [attr.key=value ...]`` — ingest a
  file through the plug-in's segmentation/extraction module; ``id=``
  pins the object id (used by the cluster coordinator, which owns the
  global id space so ids land on their owning shard).
- ``getsig <object_id>`` — the object's signature, base64-encoded in the
  lossless (float64) version of the metadata wire format
  (``repro.metadata.serialization.encode_object``).
  This is how a cluster coordinator fetches a query seed from the shard
  that owns it before scattering the query to the other shards.
- ``querysig <b64> [top=10] [method=filtering] [attr=<expr>]
  [exclude=<id>] [mod=<S> residue=<a,b,...>]`` — similarity search
  seeded by a base64-encoded signature (the scatter half of a cluster
  query; every backend can answer it without holding the seed object).
  ``exclude=`` drops one object id from the results (the seed itself,
  on its owning shard); ``mod=/residue=`` keeps only the objects of the
  listed shards.
- ``querysigmany <b64,b64,...> [top=] [method=] [attr=]
  [exclude=id1,id2,...]`` — batch form of ``querysig`` through the
  engine's fused multi-query pipeline; answers one
  ``<query_index> <object_id> <distance>`` line per result.
  ``exclude=`` gives one id per query (a blank entry excludes nothing).
- ``countmod <modulus> <residue[,residue...]>`` — number of indexed
  objects whose id is one of the residues (mod modulus) (some shards'
  share of this backend's corpus; lets the coordinator count the
  cluster without double-counting replicas).
- ``maxid`` — the id the next auto-assigned insert would take
  (coordinators seed their global id counter from the max across
  backends).
- ``queryfile <path> [top=10] [method=filtering] [attr=<expr>]`` —
  similarity search seeded by an external file (extracted through the
  plug-in, not inserted).
- ``attrs <object_id>`` — dump an object's attributes.
- ``setparam <name> <value>`` — adjust filter parameters live
  (``num_query_segments``, ``candidates_per_segment``,
  ``threshold_fraction``, ``threshold_fn`` by registered name,
  ``trace on|off`` for per-query stage tracing, ``metrics on|off`` for
  the registry master switch, ``profile on|off`` for the sampling
  profiler, ``slow_query_ms <ms>`` for the slow-query log threshold,
  and ``rank_cascade`` / ``rank_centroid_bound`` / ``rank_rowcol_bound``
  ``on|off`` for the batched ranking cascade and its two lower bounds —
  the centroid bound, and the row/column bound whose column side ships
  each candidate column's mass from its cheapest supply-capped query
  rows; see docs/PERFORMANCE.md, "Ranking cascade").
- ``health`` — server health report: overall status, uptime, and
  per-component degradation details (see docs/ROBUSTNESS.md).
- ``metrics [-p|-s] [prefix]`` — dump the process metrics registry in
  its stable ``name value`` line format, with ``-p`` in the Prometheus
  text exposition format, or with ``-s`` as one line of JSON snapshot
  (the federation wire format the cluster coordinator pulls; see
  docs/OBSERVABILITY.md).
- ``trace [--tree]`` — the last query's stage breakdown (needs
  ``setparam trace on`` or a propagated ``trace=`` context), flat or as
  an indented span tree; ``trace get <id> [--tree]`` fetches a stored
  trace by id; ``trace slow [n] [--tree]`` lists the most recent
  slow-query log entries.
- ``events [n]`` — the most recent entries of the process event
  journal (``<seq> <unix_ts> <kind> k=v ...``).
- ``profile [n]`` — sampling-profiler stats plus the top ``n``
  collapsed stacks.

Any command may carry a ``trace=<id>:<sampled>:<hop>`` keyword (see
:mod:`repro.observability.context`): the processor activates the trace
context for the duration of the command and appends one extra reply
line ``TRACE <id> <payload>`` carrying the command's span tree, so a
cluster coordinator collects per-node subtrees in the same round trip.

Graceful degradation: storage failures answer ``ERR DEGRADED <reason>``
(a structured error clients can tell apart from bad requests).
"""

from __future__ import annotations

import base64
import binascii
import time
from struct import error as struct_error
from typing import Dict, List, Optional

from ..attrsearch.index import InvertedIndex, MemoryIndex
from ..attrsearch.query import AttributeSearcher, QueryError
from ..core.engine import SearchMethod, SimilaritySearchEngine
from ..core.filtering import FilterParams, get_threshold_fn
from ..core.plugin import EXTRACTION_ERRORS
from ..metadata.serialization import decode_object, encode_object
from ..observability import context as _trace_context
from ..observability import metrics as _metrics
from ..observability.events import get_event_log
from ..storage.errors import StorageError
from ..system import HealthState
from .protocol import Command, DegradedError, ProtocolError, parse_top_k, quote

__all__ = ["CommandProcessor"]

_M_COMMANDS = _metrics.counter("server.commands")
_M_COMMAND_SECONDS = _metrics.histogram("server.command_seconds")
_M_COMMAND_ERRORS = _metrics.counter("server.command_errors")
_M_DEGRADED = _metrics.counter("server.degraded_responses")


class CommandProcessor:
    """Stateful command dispatcher around one engine."""

    def __init__(
        self,
        engine: SimilaritySearchEngine,
        index: Optional[InvertedIndex] = None,
        attributes: Optional[Dict[int, Dict[str, str]]] = None,
        health: Optional[HealthState] = None,
    ) -> None:
        self.engine = engine
        self.index = index if index is not None else MemoryIndex()
        self.searcher = AttributeSearcher(self.index)
        self.attributes: Dict[int, Dict[str, str]] = dict(attributes or {})
        self.health = health if health is not None else HealthState()
        # Traces collected under propagated contexts, fetchable by id
        # (`trace get <id>`) after the piggybacked reply line is gone.
        self.trace_store = _trace_context.TraceStore()

    # -- attribute bookkeeping ------------------------------------------
    def register_attributes(self, object_id: int, attrs: Dict[str, str]) -> None:
        if attrs:
            self.attributes[object_id] = dict(attrs)
            self.index.add(object_id, attrs)

    # -- dispatch ---------------------------------------------------------
    def execute(self, command: Command) -> List[str]:
        """Run a command; returns response data lines or raises.

        Storage failures are recorded in :attr:`health` and re-raised as
        :class:`DegradedError` so the wire response is
        ``ERR DEGRADED <reason>`` rather than a generic error: the
        request was fine, the server is impaired.
        """
        handler = getattr(self, f"_cmd_{command.name}", None)
        if handler is None:
            _M_COMMAND_ERRORS.inc()
            raise ProtocolError(f"unknown command {command.name!r}")
        context = self._trace_context_from(command)
        started = time.perf_counter()
        if context is not None:
            _trace_context.activate(context)
        collected: List[object] = []
        try:
            result = handler(command)
        except StorageError as exc:
            _M_COMMAND_ERRORS.inc()
            _M_DEGRADED.inc()
            self.health.record_error("storage", exc)
            raise DegradedError(f"storage: {exc}") from exc
        except Exception:
            _M_COMMAND_ERRORS.inc()
            raise
        finally:
            if context is not None:
                collected = _trace_context.deactivate()
        elapsed = time.perf_counter() - started
        _M_COMMANDS.inc()
        _M_COMMAND_SECONDS.observe(elapsed)
        _metrics.counter(f"server.command.{command.name}").inc()
        if context is not None and context.sampled:
            result = result + [
                self._piggyback_trace(command, context, collected, elapsed)
            ]
        return result

    # -- trace propagation ------------------------------------------------
    @staticmethod
    def _trace_context_from(command: Command):
        token = command.get("trace")
        if token is None:
            return None
        try:
            return _trace_context.TraceContext.parse(token)
        except ValueError as exc:
            raise ProtocolError(str(exc)) from exc

    def _piggyback_trace(
        self,
        command: Command,
        context: "_trace_context.TraceContext",
        collected: List[object],
        elapsed: float,
    ) -> str:
        """Build this command's span tree, store it, and render the
        extra ``TRACE <id> <payload>`` reply line.

        Query commands contribute the engine's full
        :class:`~repro.observability.tracing.QueryTrace`; commands that
        never reach the tracer (``insertfile``, ``ping``, ...) still get
        a minimal tree with the command's total time, so every traced
        hop is accounted for.
        """
        if collected:
            tree = collected[-1].to_dict()  # type: ignore[attr-defined]
        else:
            tree = {
                "method": command.name,
                "queries": 1,
                "total_seconds": elapsed,
                "stages": {},
                "counts": {},
                "notes": {},
                "spans": [],
            }
        tree["trace_id"] = context.trace_id
        tree.setdefault("notes", {})["hop"] = str(context.hop)
        self.trace_store.put(context.trace_id, tree)
        payload = _trace_context.encode_trace(tree)
        return f"{_trace_context.TRACE_LINE_PREFIX}{context.trace_id} {payload}"

    @staticmethod
    def _method(command: Command) -> SearchMethod:
        """The ``method=`` keyword (default ``filtering``); an unknown
        name is a bad request, not a server fault."""
        try:
            return SearchMethod.parse(command.get("method", "filtering"))
        except ValueError as exc:
            raise ProtocolError(str(exc)) from exc

    # -- handlers ----------------------------------------------------------
    def _cmd_ping(self, command: Command) -> List[str]:
        return ["pong"]

    def _cmd_health(self, command: Command) -> List[str]:
        return self.health.status_lines()

    def _cmd_count(self, command: Command) -> List[str]:
        return [str(len(self.engine))]

    def _query_latency_lines(self) -> List[str]:
        """p50/p95/p99 query latency (ms) from the engine.query_seconds
        histogram — bucket-interpolated estimates, ``nan`` before the
        first query (see docs/OBSERVABILITY.md §1 for the caveat)."""
        hist = _metrics.get_registry().get("engine.query_seconds")
        lines = []
        for label, q in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99)):
            value = hist.quantile(q) if hist is not None else float("nan")
            lines.append(f"query_{label}_ms {value * 1000.0:.3f}")
        return lines

    def _rank_counter(self, name: str) -> int:
        metric = _metrics.get_registry().get(name)
        return int(metric.value) if metric is not None else 0

    def _rank_prune_rate(self) -> float:
        gauge = _metrics.get_registry().get("rank.prune_rate")
        return float(gauge.value) if gauge is not None else 0.0

    def _cmd_stat(self, command: Command) -> List[str]:
        stats = self.engine.stats()
        cache = self.engine.parallel_info()["cache"]
        tracer = self.engine.tracer
        arena = self.engine.compaction_info()
        return [
            f"objects {stats.num_objects}",
            f"segments {stats.num_segments}",
            f"feature_bits_per_vector {stats.feature_bits_per_vector}",
            f"sketch_bits_per_vector {stats.sketch_bits_per_vector}",
            f"feature_bytes {stats.feature_bytes}",
            f"sketch_bytes {stats.sketch_bytes}",
            f"compression_ratio {stats.compression_ratio:.2f}",
            f"arena_chunks {arena['chunks']}",
            f"arena_rows {arena['rows']}",
            f"arena_dead_rows {arena['dead_rows']}",
            f"arena_appends {self._rank_counter('arena.appends')}",
            f"arena_compactions {self._rank_counter('arena.compactions')}",
            f"compaction {'on' if arena['background'] else 'off'}",
            f"filter_index {'on' if arena['index_on'] else 'off'}",
            f"filter_index_rows {arena['index_rows']}",
            f"cache_entries {cache['entries']}/{cache['capacity']}",
            f"cache_hits {cache['hits']}",
            f"cache_misses {cache['misses']}",
            f"cache_evictions {cache['evictions']}",
            f"cache_invalidations {cache['invalidations']}",
            f"rank_cascade {'on' if self.engine.rank_params.cascade else 'off'}",
            f"rank_prune_rate {self._rank_prune_rate():.4f}",
            f"rank_exact_evals {self._rank_counter('rank.exact_evals')}",
            f"rank_lower_bound_prunes "
            f"{self._rank_counter('rank.lower_bound_prunes')}",
            f"metrics {'on' if _metrics.get_registry().enabled else 'off'}",
            f"trace {'on' if tracer.enabled else 'off'}",
            f"slow_queries {tracer.slow_log.total_recorded}",
            f"slow_query_ms {tracer.slow_log.threshold_seconds * 1000.0:g}",
        ] + self._query_latency_lines()

    def _cmd_metrics(self, command: Command) -> List[str]:
        """``metrics [-p|-s] [prefix]``: registry dump, optionally
        filtered to one name prefix, rendered in Prometheus text format
        (``-p``), or as one line of JSON snapshot (``-s`` — the
        federation wire format; see docs/OBSERVABILITY.md).
        """
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

    def _cmd_profile(self, command: Command) -> List[str]:
        """``profile [n]``: sampling-profiler state plus the top ``n``
        collapsed stacks (``frame;frame;frame count``, FlameGraph's
        folded format).  Stacks come from continuous sampling
        (``setparam profile on``) and from the automatic one-shot
        capture of every slow query."""
        limit = 20
        if command.args:
            try:
                limit = int(command.args[0])
            except ValueError:
                raise ProtocolError("usage: profile [n]") from None
            if limit <= 0:
                raise ProtocolError("usage: profile [n]")
        if len(command.args) > 1:
            raise ProtocolError("usage: profile [n]")
        profiler = self.engine.tracer.profiler
        stats = profiler.stats()
        lines = [
            f"running {'yes' if stats['running'] else 'no'}",
            f"samples {stats['samples']}",
            f"unique_stacks {stats['unique_stacks']}",
            f"slow_captures {stats['slow_captures']}",
            f"dropped {stats['dropped']}",
        ]
        return lines + profiler.collapsed(limit=limit)

    def _cmd_trace(self, command: Command) -> List[str]:
        tracer = self.engine.tracer
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
                    lines.extend(_trace_context.render_trace_tree(entry.to_dict()))
                else:
                    lines.append(
                        f"{i} method={entry.method} queries={entry.num_queries} "
                        f"total_seconds={entry.total_seconds:.6f}"
                    )
            return lines
        if args and args[0] == "get":
            if len(args) != 2:
                raise ProtocolError("usage: trace get <id> [--tree]")
            stored = self.trace_store.get(args[1])
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
        """``events [n]``: the most recent entries of the process event
        journal, oldest first (see docs/OBSERVABILITY.md, "Event
        journal")."""
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

    def _cmd_query(self, command: Command) -> List[str]:
        if len(command.args) != 1:
            raise ProtocolError("usage: query <object_id> [top=] [method=] [attr=]")
        try:
            object_id = int(command.args[0])
        except ValueError:
            raise ProtocolError(f"bad object id {command.args[0]!r}") from None
        if object_id not in self.engine:
            raise ProtocolError(f"unknown object {object_id}")
        top_k = parse_top_k(command)
        method = self._method(command)
        restrict = self._restrict_from(command)
        weights_arg = command.get("weights")
        if weights_arg:
            from ..core.types import ObjectSignature

            try:
                weights = [float(w) for w in weights_arg.split(",") if w != ""]
            except ValueError:
                raise ProtocolError(f"bad weights {weights_arg!r}") from None
            seed = self.engine.get_object(object_id)
            if len(weights) != seed.num_segments:
                raise ProtocolError(
                    f"object {object_id} has {seed.num_segments} segments, "
                    f"got {len(weights)} weights"
                )
            try:
                query = ObjectSignature(
                    seed.features, weights, object_id=object_id
                )
            except ValueError as exc:
                raise ProtocolError(f"bad weights: {exc}") from exc
            results = self.engine.query(
                query,
                top_k=top_k,
                method=method,
                exclude_self=command.get("self", "no") != "yes",
                restrict_to=restrict,
            )
        else:
            results = self.engine.query_by_id(
                object_id,
                top_k=top_k,
                method=method,
                exclude_self=command.get("self", "no") != "yes",
                restrict_to=restrict,
            )
        return [f"{r.object_id} {r.distance:.6f}" for r in results]

    def _cmd_querymany(self, command: Command) -> List[str]:
        if len(command.args) != 1:
            raise ProtocolError(
                "usage: querymany <id1,id2,...> [top=] [method=] [attr=]"
            )
        try:
            object_ids = [int(t) for t in command.args[0].split(",") if t != ""]
        except ValueError:
            raise ProtocolError(f"bad object ids {command.args[0]!r}") from None
        if not object_ids:
            raise ProtocolError("querymany needs at least one object id")
        for object_id in object_ids:
            if object_id not in self.engine:
                raise ProtocolError(f"unknown object {object_id}")
        top_k = parse_top_k(command)
        method = self._method(command)
        restrict = self._restrict_from(command)
        batches = self.engine.query_many(
            [self.engine.get_object(object_id) for object_id in object_ids],
            top_k=top_k,
            method=method,
            exclude_self=command.get("self", "no") != "yes",
            restrict_to=restrict,
        )
        return [
            f"{query_id} {r.object_id} {r.distance:.6f}"
            for query_id, results in zip(object_ids, batches)
            for r in results
        ]

    # -- cluster scatter/gather support ---------------------------------
    def _restrict_from(self, command: Command) -> Optional[List[int]]:
        """Candidate restriction from ``attr=`` and/or ``mod=/residue=``.

        ``mod=S residue=a,b,...`` restricts to the objects of shards
        ``a, b, ...`` under id-mod-``S`` sharding: a coordinator that
        asks a backend for only some of the shards it hosts must get
        *only* those shards' objects back, or its merge would
        double-count objects another backend also answered (the shards
        are disjoint; the backends' holdings are not).
        """
        restrict: Optional[set] = None
        attr_expr = command.get("attr")
        if attr_expr:
            try:
                restrict = set(self.searcher.search(attr_expr))
            except QueryError as exc:
                raise ProtocolError(f"bad attribute query: {exc}") from exc
        mod = command.get("mod")
        if mod is not None:
            owned = self._shard_members(mod, command.get("residue", "0"))
            restrict = owned if restrict is None else restrict & owned
        return sorted(restrict) if restrict is not None else None

    def _shard_members(self, mod: str, residues: str) -> set:
        """Indexed ids whose ``id % mod`` is one of the comma-separated
        ``residues``; a malformed restriction is a ``ProtocolError``."""
        try:
            modulus = int(mod)
            wanted = [int(r) for r in residues.split(",")]
        except ValueError:
            raise ProtocolError(f"bad mod/residue {mod!r}/{residues!r}") from None
        if (
            modulus < 1
            or len(set(wanted)) != len(wanted)
            or not all(0 <= r < modulus for r in wanted)
        ):
            raise ProtocolError(
                f"bad shard restriction mod={mod} residue={residues}"
            )
        wanted_set = set(wanted)
        return {oid for oid in self.engine.objects if oid % modulus in wanted_set}

    @staticmethod
    def _decode_signature(b64: str, exclude: Optional[int]):
        try:
            raw = base64.b64decode(b64.encode("ascii"), validate=True)
        except (binascii.Error, UnicodeEncodeError) as exc:
            raise ProtocolError(f"bad base64 signature: {exc}") from exc
        try:
            return decode_object(raw, object_id=exclude)
        except (ValueError, struct_error) as exc:
            raise ProtocolError(f"bad signature payload: {exc}") from exc

    def _cmd_getsig(self, command: Command) -> List[str]:
        if len(command.args) != 1:
            raise ProtocolError("usage: getsig <object_id>")
        try:
            object_id = int(command.args[0])
        except ValueError:
            raise ProtocolError(f"bad object id {command.args[0]!r}") from None
        if object_id not in self.engine:
            raise ProtocolError(f"unknown object {object_id}")
        raw = encode_object(self.engine.get_object(object_id), lossless=True)
        return [base64.b64encode(raw).decode("ascii")]

    def _cmd_querysig(self, command: Command) -> List[str]:
        if len(command.args) != 1:
            raise ProtocolError(
                "usage: querysig <b64sig> [top=] [method=] [attr=] [exclude=]"
            )
        exclude = command.get("exclude")
        try:
            exclude_id = int(exclude) if exclude is not None else None
        except ValueError:
            raise ProtocolError(f"bad exclude id {exclude!r}") from None
        signature = self._decode_signature(command.args[0], exclude_id)
        top_k = parse_top_k(command)
        method = self._method(command)
        restrict = self._restrict_from(command)
        results = self.engine.query(
            signature,
            top_k=top_k,
            method=method,
            exclude_self=exclude_id is not None,
            restrict_to=restrict,
        )
        return [f"{r.object_id} {r.distance:.6f}" for r in results]

    def _cmd_querysigmany(self, command: Command) -> List[str]:
        if len(command.args) != 1:
            raise ProtocolError(
                "usage: querysigmany <b64,b64,...> [top=] [method=] [attr=] "
                "[exclude=id1,id2,...]"
            )
        blobs = [b for b in command.args[0].split(",") if b != ""]
        if not blobs:
            raise ProtocolError("querysigmany needs at least one signature")
        exclude = command.get("exclude")
        excludes: List[Optional[int]] = [None] * len(blobs)
        if exclude is not None:
            parts = exclude.split(",")
            if len(parts) != len(blobs):
                raise ProtocolError(
                    f"exclude= lists {len(parts)} ids for {len(blobs)} queries"
                )
            try:
                excludes = [int(p) if p != "" else None for p in parts]
            except ValueError:
                raise ProtocolError(f"bad exclude ids {exclude!r}") from None
        signatures = [
            self._decode_signature(blob, excl)
            for blob, excl in zip(blobs, excludes)
        ]
        top_k = parse_top_k(command)
        method = self._method(command)
        restrict = self._restrict_from(command)
        # exclude_self applies per-query via each signature's object_id;
        # queries without an exclude id carry object_id=None, which the
        # ranking path never matches.
        batches = self.engine.query_many(
            signatures,
            top_k=top_k,
            method=method,
            exclude_self=True,
            restrict_to=restrict,
        )
        return [
            f"{index} {r.object_id} {r.distance:.6f}"
            for index, results in enumerate(batches)
            for r in results
        ]

    def _cmd_countmod(self, command: Command) -> List[str]:
        if len(command.args) != 2:
            raise ProtocolError("usage: countmod <modulus> <residue[,residue...]>")
        return [str(len(self._shard_members(*command.args)))]

    def _cmd_maxid(self, command: Command) -> List[str]:
        return [str(self.engine.next_id)]

    def _cmd_attrquery(self, command: Command) -> List[str]:
        if not command.args:
            raise ProtocolError("usage: attrquery <expression>")
        expression = " ".join(command.args)
        try:
            ids = sorted(self.searcher.search(expression))
        except QueryError as exc:
            raise ProtocolError(f"bad attribute query: {exc}") from exc
        return [str(i) for i in ids]

    def _cmd_insertfile(self, command: Command) -> List[str]:
        if len(command.args) != 1:
            raise ProtocolError(
                "usage: insertfile <path> [id=<object_id>] [attr.key=value ...]"
            )
        attrs = {
            key[len("attr."):]: value
            for key, value in command.kwargs
            if key.startswith("attr.")
        }
        pinned = command.get("id")
        try:
            pinned_id = int(pinned) if pinned is not None else None
        except ValueError:
            raise ProtocolError(f"bad object id {pinned!r}") from None
        try:
            object_id = self.engine.insert_file(
                command.args[0], attributes=attrs, object_id=pinned_id
            )
        except KeyError as exc:
            raise ProtocolError(f"insert failed: {exc.args[0]}") from exc
        except EXTRACTION_ERRORS as exc:
            raise ProtocolError(f"insert failed: {exc}") from exc
        self.register_attributes(object_id, attrs)
        return [str(object_id)]

    def _cmd_queryfile(self, command: Command) -> List[str]:
        if len(command.args) != 1:
            raise ProtocolError("usage: queryfile <path> [top=] [method=] [attr=]")
        top_k = parse_top_k(command)
        method = self._method(command)
        restrict = self._restrict_from(command)
        try:
            results = self.engine.query_file(
                command.args[0], top_k=top_k, method=method, restrict_to=restrict
            )
        except EXTRACTION_ERRORS as exc:
            raise ProtocolError(f"query failed: {exc}") from exc
        return [f"{r.object_id} {r.distance:.6f}" for r in results]

    def _cmd_attrs(self, command: Command) -> List[str]:
        if len(command.args) != 1:
            raise ProtocolError("usage: attrs <object_id>")
        object_id = int(command.args[0])
        attrs = self.attributes.get(object_id, {})
        return [f"{quote(k)}={quote(v)}" for k, v in sorted(attrs.items())]

    def _cmd_setparam(self, command: Command) -> List[str]:
        if len(command.args) != 2:
            raise ProtocolError("usage: setparam <name> <value>")
        name, raw = command.args
        params = self.engine.filter_params
        if name == "num_query_segments":
            updated = FilterParams(
                int(raw), params.candidates_per_segment,
                params.threshold_fraction, params.threshold_fn,
            )
        elif name == "candidates_per_segment":
            updated = FilterParams(
                params.num_query_segments, int(raw),
                params.threshold_fraction, params.threshold_fn,
            )
        elif name == "threshold_fraction":
            value = None if raw.lower() == "none" else float(raw)
            updated = FilterParams(
                params.num_query_segments, params.candidates_per_segment,
                value, params.threshold_fn,
            )
        elif name == "threshold_fn":
            try:
                get_threshold_fn(raw)
            except ValueError as exc:
                raise ProtocolError(str(exc)) from exc
            updated = FilterParams(
                params.num_query_segments, params.candidates_per_segment,
                params.threshold_fraction, raw,
            )
        elif name == "compaction":
            flag = raw.lower()
            if flag not in ("on", "off"):
                raise ProtocolError("usage: setparam compaction on|off")
            self.engine.set_compaction(flag == "on")
            return [f"compaction={flag}"]
        elif name == "trace":
            flag = raw.lower()
            if flag not in ("on", "off"):
                raise ProtocolError("usage: setparam trace on|off")
            self.engine.tracer.set_enabled(flag == "on")
            return [f"trace={flag}"]
        elif name == "metrics":
            flag = raw.lower()
            if flag not in ("on", "off"):
                raise ProtocolError("usage: setparam metrics on|off")
            _metrics.set_enabled(flag == "on")
            return [f"metrics={flag}"]
        elif name == "profile":
            flag = raw.lower()
            if flag not in ("on", "off"):
                raise ProtocolError("usage: setparam profile on|off")
            profiler = self.engine.tracer.profiler
            if flag == "on":
                profiler.start()
            else:
                profiler.stop()
            return [f"profile={flag}"]
        elif name in (
            "rank_cascade", "rank_centroid_bound", "rank_rowcol_bound",
        ):
            flag = raw.lower()
            if flag not in ("on", "off"):
                raise ProtocolError(f"usage: setparam {name} on|off")
            field = {
                "rank_cascade": "cascade",
                "rank_centroid_bound": "centroid_bound",
                "rank_rowcol_bound": "rowcol_bound",
            }[name]
            self.engine.rank_params = self.engine.rank_params.with_updates(
                **{field: flag == "on"}
            )
            return [f"{name}={flag}"]
        elif name == "slow_query_ms":
            try:
                millis = float(raw)
            except ValueError:
                raise ProtocolError(f"bad slow_query_ms {raw!r}") from None
            try:
                self.engine.tracer.set_slow_threshold(millis / 1000.0)
            except ValueError as exc:
                raise ProtocolError(str(exc)) from exc
            return [f"slow_query_ms={raw}"]
        else:
            raise ProtocolError(f"unknown parameter {name!r}")
        self.engine.filter_params = updated
        return [f"{name}={raw}"]

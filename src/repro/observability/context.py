"""Cross-node trace propagation: contexts, wire encoding, stitching.

The in-process tracing layer (:mod:`repro.observability.tracing`)
already answers "where did this query spend its time" for one engine.
A cluster query fans out over backend processes, so the same question
needs a *trace context* that crosses the wire — the Dapper model:

- :class:`TraceContext` — ``(trace_id, sampled, hop)`` carried as an
  optional ``trace=`` keyword on any line-protocol command.  A backend
  that receives one activates it for the duration of the command; the
  engine's :class:`~repro.observability.tracing.TraceRecorder` then
  builds a :class:`~repro.observability.tracing.QueryTrace` even when
  server-local tracing is off (sampling is the *caller's* decision).
- **Piggybacked span trees** — the backend appends one reply line
  ``TRACE <trace_id> <payload>`` (base64 of compact JSON, produced by
  :func:`encode_trace`) so the coordinator gets the subtree in the same
  round trip it paid for the answer.  Only requests that carried
  ``trace=`` see the extra line, so existing consumers are unaffected.
- :class:`TraceStore` — a bounded id->tree map behind the ``trace get
  <id>`` command, for traces too old to still be ``trace``'s "last".
- :func:`render_trace_tree` — the ``trace --tree`` pretty-printer: one
  causally-ordered tree of coordinator spans with per-node subtrees and
  the derived network/queue vs engine time split.

The thread-local *active context* is the activation mechanism: the
server handles each connection on its own thread and the engine query
runs synchronously on it, so ``activate``/``collect``/``deactivate``
need no cross-thread handshake.
"""

from __future__ import annotations

import base64
import binascii
import json
import secrets
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

__all__ = [
    "TraceContext",
    "TraceStore",
    "activate",
    "collect",
    "current",
    "deactivate",
    "decode_trace",
    "encode_trace",
    "render_trace_tree",
    "split_trace_line",
    "trace_lines",
]

#: Reply-line marker for a piggybacked span tree (`TRACE <id> <payload>`).
TRACE_LINE_PREFIX = "TRACE "


@dataclass(frozen=True)
class TraceContext:
    """One query's identity as it crosses process boundaries.

    ``trace_id`` names the whole distributed query; ``sampled`` tells
    every hop whether to pay the tracing cost (the decision is made once,
    at the edge); ``hop`` counts forwarding depth (0 at the origin), so a
    subtree records how far from the caller it ran.
    """

    trace_id: str
    sampled: bool = True
    hop: int = 0

    #: Wire form: ``<trace_id>:<0|1>:<hop>`` — no spaces, so it never
    #: needs protocol quoting.
    def to_wire(self) -> str:
        return f"{self.trace_id}:{1 if self.sampled else 0}:{self.hop}"

    @classmethod
    def parse(cls, text: str) -> "TraceContext":
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"bad trace context {text!r} (want id:sampled:hop)")
        trace_id, sampled, hop = parts
        if not trace_id or not all(c.isalnum() for c in trace_id):
            raise ValueError(f"bad trace id {trace_id!r}")
        if sampled not in ("0", "1"):
            raise ValueError(f"bad sampled flag {sampled!r}")
        if not hop.isdigit():
            raise ValueError(f"bad hop count {hop!r}")
        return cls(trace_id, sampled == "1", int(hop))

    @classmethod
    def generate(cls, sampled: bool = True) -> "TraceContext":
        return cls(secrets.token_hex(8), sampled, 0)

    def child(self) -> "TraceContext":
        """The context to forward on the next hop (same id, hop + 1)."""
        return TraceContext(self.trace_id, self.sampled, self.hop + 1)


# ----------------------------------------------------------------------
# Thread-local activation
# ----------------------------------------------------------------------
_STATE = threading.local()


def activate(context: TraceContext) -> None:
    """Make ``context`` the calling thread's active trace context."""
    _STATE.context = context
    _STATE.collected = []


def current() -> Optional[TraceContext]:
    """The calling thread's active context (``None`` outside a trace)."""
    return getattr(_STATE, "context", None)


def collect(trace: object) -> bool:
    """Attach a finished :class:`QueryTrace` to the active context.

    Called by :meth:`TraceRecorder.finish`; returns whether a context
    was active (so callers can tell piggybacked traces from local ones).
    """
    if getattr(_STATE, "context", None) is None:
        return False
    _STATE.collected.append(trace)
    return True


def deactivate() -> List[object]:
    """Clear the active context; returns the traces collected under it."""
    collected = getattr(_STATE, "collected", [])
    _STATE.context = None
    _STATE.collected = []
    return collected


# ----------------------------------------------------------------------
# Wire encoding of span trees
# ----------------------------------------------------------------------
def encode_trace(tree: Dict[str, object]) -> str:
    """A trace dict as one wire-safe token (base64 of compact JSON)."""
    raw = json.dumps(tree, separators=(",", ":"), sort_keys=True)
    return base64.b64encode(raw.encode("utf-8")).decode("ascii")


def decode_trace(payload: str) -> Dict[str, object]:
    """Inverse of :func:`encode_trace`; raises ``ValueError`` on junk."""
    try:
        raw = base64.b64decode(payload.encode("ascii"), validate=True)
    except (binascii.Error, UnicodeEncodeError) as exc:
        raise ValueError(f"bad trace payload: {exc}") from exc
    try:
        tree = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"bad trace payload: {exc}") from exc
    if not isinstance(tree, dict):
        raise ValueError("trace payload is not an object")
    return tree


def split_trace_line(
    lines: List[str],
) -> Tuple[List[str], Optional[Dict[str, object]]]:
    """Strip a trailing ``TRACE <id> <payload>`` reply line if present.

    Returns ``(data_lines, tree_or_None)``; the tree gains a
    ``trace_id`` key from the line.  A malformed payload raises
    ``ValueError`` — a backend that *promised* a trace and shipped junk
    is a bug worth surfacing, not ignoring.
    """
    if not lines or not lines[-1].startswith(TRACE_LINE_PREFIX):
        return lines, None
    tail = lines[-1][len(TRACE_LINE_PREFIX):]
    trace_id, _, payload = tail.partition(" ")
    tree = decode_trace(payload)
    tree.setdefault("trace_id", trace_id)
    return lines[:-1], tree


class TraceStore:
    """Bounded, thread-safe ``trace_id -> tree`` map (oldest evicted).

    Backs the ``trace get <id>`` command on both the backends (their
    local subtree) and the coordinator (the stitched cluster tree).
    """

    def __init__(self, capacity: int = 64) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._trees: "OrderedDict[str, Dict[str, object]]" = OrderedDict()

    def put(self, trace_id: str, tree: Dict[str, object]) -> None:
        with self._lock:
            if trace_id in self._trees:
                self._trees.pop(trace_id)
            self._trees[trace_id] = tree
            while len(self._trees) > self.capacity:
                self._trees.popitem(last=False)

    def get(self, trace_id: str) -> Optional[Dict[str, object]]:
        with self._lock:
            return self._trees.get(trace_id)

    def ids(self) -> List[str]:
        with self._lock:
            return list(self._trees)

    def __len__(self) -> int:
        with self._lock:
            return len(self._trees)


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def trace_lines(tree: Dict[str, object]) -> List[str]:
    """A trace dict as stable ``key value`` lines (the ``trace`` and
    ``trace get`` payload), with per-node subtrees flattened under
    ``node.<shard>.<backend>.*``."""
    out = [
        f"method {tree.get('method', '?')}",
        f"queries {tree.get('queries', 1)}",
        f"total_seconds {float(tree.get('total_seconds', 0.0)):.6f}",
    ]
    if tree.get("trace_id"):
        out.insert(0, f"trace_id {tree['trace_id']}")
    stages = tree.get("stages") or {}
    for name in sorted(stages):
        out.append(f"stage.{name}_seconds {float(stages[name]):.6f}")
    counts = tree.get("counts") or {}
    for name in sorted(counts):
        out.append(f"count.{name} {int(counts[name])}")
    notes = tree.get("notes") or {}
    for name in sorted(notes):
        out.append(f"note.{name} {notes[name]}")
    for span in tree.get("spans") or []:
        name = span.get("name", "?")
        for key in sorted(k for k in span if k != "name"):
            out.append(f"span.{name}.{key}_seconds {float(span[key]):.6f}")
    for key in sorted(tree.get("nodes") or {}):
        sub = tree["nodes"][key]
        for line in trace_lines(sub):
            out.append(f"node.{key}.{line}")
    return out


def _ms(seconds: object) -> str:
    return f"{float(seconds) * 1000.0:.2f}ms"


def _subtree_lines(sub: Dict[str, object], label: str) -> List[str]:
    """One node's engine-stage rows for the tree renderer."""
    rpc = sub.get("rpc_seconds")
    engine = float(sub.get("total_seconds", 0.0))
    head = f"{label} engine={_ms(engine)}"
    if rpc is not None:
        net = max(0.0, float(rpc) - engine)
        head += f" rpc={_ms(rpc)} net+queue={_ms(net)}"
    hop = sub.get("notes", {}).get("hop")
    if hop is not None:
        head += f" hop={hop}"
    rows = [head]
    stages = sub.get("stages") or {}
    for name in sorted(stages):
        rows.append(f"  {name} {_ms(stages[name])}")
    return rows


def render_trace_tree(tree: Dict[str, object]) -> List[str]:
    """Pretty-print a (possibly stitched) trace as an indented tree.

    Coordinator traces show ``scatter``/``gather`` with one branch per
    contacted node (``node.<shard>.<backend>``), each split into the
    backend's engine stages plus the derived network/queue share of the
    round trip.  Single-engine traces degrade to a flat stage list.
    Output is deterministic (sorted keys) so tests can assert on it.
    """
    title = f"trace {tree.get('trace_id', '-')} method={tree.get('method', '?')}"
    title += f" total={_ms(tree.get('total_seconds', 0.0))}"
    notes = tree.get("notes") or {}
    if notes.get("missing_shards"):
        title += f" PARTIAL shards={notes['missing_shards']}"
    out = [title]
    entries: List[List[str]] = []
    stages = tree.get("stages") or {}
    nodes = tree.get("nodes") or {}
    for name in sorted(stages):
        entries.append([f"{name} {_ms(stages[name])}"])
    for span in tree.get("spans") or []:
        name = span.get("name", "?")
        if str(name).startswith("node.") or str(name).startswith("scatter.shard"):
            continue  # summarized by the per-node branches below
        timing = " ".join(
            f"{k}={_ms(span[k])}" for k in sorted(span) if k != "name"
        )
        entries.append([f"{name} {timing}"])
    for key in sorted(nodes):
        entries.append(_subtree_lines(nodes[key], f"node {key}"))
    if notes.get("laggard"):
        entries.append([f"laggard {notes['laggard']}"])
    for i, rows in enumerate(entries):
        last = i == len(entries) - 1
        branch, cont = ("└─ ", "   ") if last else ("├─ ", "│  ")
        out.append(branch + rows[0])
        for row in rows[1:]:
            out.append(cont + row)
    return out

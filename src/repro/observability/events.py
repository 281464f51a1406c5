"""The event journal: a bounded, sequenced record of cluster lifecycle.

Metrics answer "how much"; traces answer "where did one query go"; the
event journal answers the postmortem question — *what happened, in what
order*.  Every state change worth reconstructing after an incident is
recorded as one :class:`Event`:

- circuit-breaker transitions (``breaker_transition``),
- replica failovers (``failover``),
- backend re-admissions (``backend_readmitted``),
- topology changes (epoch bumps attached to breaker events),
- under-replicated writes (``under_replicated_write``),
- supervisor drills (``node_kill`` / ``node_hang`` / ``node_resume`` /
  ``node_restart`` / ``node_start``).

Events carry a **monotonically increasing sequence number** assigned
under one lock, so concurrent recorders (scatter threads, the prober,
breaker callbacks) produce a single total order — "the breaker opened
*before* the failover" is a fact the journal can prove, which wall-clock
timestamps alone cannot.  The journal is bounded (oldest entries fall
off) and queryable over the wire via the ``events [n]`` command.

Every record is mirrored to the structured logger, so the journal and
the stderr log tell one story; ``events.recorded`` counts total records
(including rotated-out ones).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional

from . import metrics as _metrics
from .log import get_logger

__all__ = ["Event", "EventLog", "get_event_log", "set_event_log"]

_LOG = get_logger("events")
_M_RECORDED = _metrics.counter("events.recorded")
# Keywords of the logger mirror's own: ``seq=`` and ``info``'s event.
_RESERVED_FIELDS = frozenset({"seq", "event"})


@dataclass(frozen=True)
class Event:
    """One journal entry: sequence number, wall-clock time, kind, facts."""

    seq: int
    timestamp: float
    kind: str
    fields: Dict[str, object] = field(default_factory=dict)

    def line(self) -> str:
        """Stable wire rendering: ``<seq> <unix_ts> <kind> k=v ...``."""
        parts = [str(self.seq), f"{self.timestamp:.3f}", self.kind]
        for key in sorted(self.fields):
            parts.append(f"{key}={self.fields[key]}")
        return " ".join(parts)


class EventLog:
    """Bounded ring buffer of :class:`Event` with one global sequence.

    Thread-safe; ``capacity`` bounds memory (oldest entries rotate out)
    while sequence numbers keep counting, so a gap between the first
    retained ``seq`` and 0 tells a reader exactly how much history was
    lost.
    """

    def __init__(self, capacity: int = 512) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: Deque[Event] = deque(maxlen=capacity)
        self._next_seq = 0

    def record(self, kind: str, **fields: object) -> Event:
        """Append one event; assigns the next sequence number atomically.

        ``seq`` and ``event`` are not field names: the logger mirror
        passes them itself, so they are refused (``ValueError``) before
        anything is journalled.
        """
        reserved = sorted(_RESERVED_FIELDS.intersection(fields))
        if reserved:
            raise ValueError(f"reserved event field names: {reserved}")
        with self._lock:
            event = Event(self._next_seq, time.time(), kind, dict(fields))
            self._next_seq += 1
            self._entries.append(event)
        _M_RECORDED.inc()
        _LOG.info(f"event.{kind}", seq=event.seq, **fields)
        return event

    def tail(self, n: Optional[int] = None) -> List[Event]:
        """The most recent ``n`` events, oldest first (all if ``None``)."""
        with self._lock:
            entries = list(self._entries)
        if n is not None and n >= 0:
            entries = entries[-n:] if n else []
        return entries

    def since(self, seq: int) -> List[Event]:
        """Events with sequence number strictly greater than ``seq``."""
        with self._lock:
            return [e for e in self._entries if e.seq > seq]

    @property
    def total_recorded(self) -> int:
        with self._lock:
            return self._next_seq

    def clear(self) -> None:
        """Drop retained entries (sequence numbers keep counting)."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


_DEFAULT_LOG = EventLog()


def get_event_log() -> EventLog:
    """The process-wide journal all built-in recorders write to."""
    return _DEFAULT_LOG


def set_event_log(log: EventLog) -> EventLog:
    """Swap the process-wide journal (tests); returns the previous one."""
    global _DEFAULT_LOG
    previous = _DEFAULT_LOG
    _DEFAULT_LOG = log
    return previous

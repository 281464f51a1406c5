"""Load generator and span recorder for the end-to-end benchmark.

One process, at most ``MAX_CLIENTS`` (= nproc) threads/connections.
A *worker* is a callable ``do(request) -> bool`` (True = the answer was
correct); it owns one connection.  Exceptions a worker raises count as
failed operations, never as a crashed run.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence

import numpy as np

MAX_CLIENTS = os.cpu_count() or 1
#: A rung of the open-loop ladder is abandoned once the generator is
#: this far behind its schedule: the backlog only grows from there.
ABANDON_LATE_SECONDS = 2.0

Worker = Callable[[object], bool]


@dataclass
class Samples:
    """What one timed phase observed."""

    latencies: List[float] = field(default_factory=list)  # seconds, ok + failed
    lateness: List[float] = field(default_factory=list)   # open loop only
    failed: int = 0
    wall: float = 0.0
    abandoned: bool = False

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def ok_per_second(self) -> float:
        return (self.attempted - self.failed) / self.wall if self.wall > 0 else 0.0

    def merge(self, other: "Samples") -> None:
        """Pool another phase of the same kind into this one."""
        self.latencies.extend(other.latencies)
        self.failed += other.failed
        self.wall += other.wall

    def percentile_ms(self, q: float) -> float:
        return float(np.percentile(self.latencies, q)) * 1000.0 if self.latencies else 0.0


class _Feed:
    """Thread-safe hand-out of a finite request sequence."""

    def __init__(self, requests: Sequence[object]) -> None:
        self._requests = requests
        self._next = 0
        self._lock = threading.Lock()

    def take(self) -> Optional[tuple]:
        with self._lock:
            if self._next >= len(self._requests):
                return None
            index = self._next
            self._next += 1
        return index, self._requests[index]


def _attempt(do: Worker, request: object) -> bool:
    try:
        return bool(do(request))
    except Exception:  # fault boundary: any error is a failed operation
        return False


def _run_threads(bodies: Sequence[Callable[[], None]]) -> None:
    """Run one body per client; the first runs on the calling thread so a
    single client needs no extra thread."""
    if len(bodies) > MAX_CLIENTS:
        raise ValueError(f"{len(bodies)} clients exceed nproc={MAX_CLIENTS}")
    threads = [threading.Thread(target=body) for body in bodies[1:]]
    for thread in threads:
        thread.start()
    bodies[0]()
    for thread in threads:
        thread.join()


def closed_loop(
    workers: Sequence[Worker], seconds: float, requests: Sequence[object]
) -> Samples:
    """Each client sends its next request when the previous one is
    answered, for ``seconds`` (or until ``requests`` run out)."""
    feed = _Feed(requests)
    samples = Samples()
    lock = threading.Lock()
    started = time.perf_counter()
    deadline = started + seconds

    def body(do: Worker) -> Callable[[], None]:
        def run() -> None:
            while time.perf_counter() < deadline:
                item = feed.take()
                if item is None:
                    return
                sent = time.perf_counter()
                ok = _attempt(do, item[1])
                elapsed = time.perf_counter() - sent
                with lock:
                    samples.latencies.append(elapsed)
                    samples.failed += not ok
        return run

    _run_threads([body(do) for do in workers])
    samples.wall = time.perf_counter() - started
    return samples


def poisson_schedule(rate: float, seconds: float, seed: int) -> np.ndarray:
    """Due times (seconds from phase start) of a seeded Poisson arrival
    process at ``rate`` per second, cut at ``seconds``."""
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(1.0 / rate, size=int(rate * seconds * 2) + 16)
    due = np.cumsum(gaps)
    return due[due < seconds]


def open_loop(
    workers: Sequence[Worker], due: np.ndarray, requests: Sequence[object]
) -> Samples:
    """Send request ``i`` at ``due[i]`` whether or not earlier ones were
    answered.  Latency counts from the *due* time, so the wait a stall
    imposes on later requests is charged to them; ``lateness`` is how
    far behind its schedule the generator sent each one."""
    count = min(len(due), len(requests))
    feed = _Feed(requests[:count])
    samples = Samples()
    lock = threading.Lock()
    started = time.perf_counter()

    def body(do: Worker) -> Callable[[], None]:
        def run() -> None:
            while not samples.abandoned:
                item = feed.take()
                if item is None:
                    return
                index, request = item
                target = started + float(due[index])
                wait = target - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                late = time.perf_counter() - target
                if late > ABANDON_LATE_SECONDS:
                    samples.abandoned = True
                    return
                ok = _attempt(do, request)
                elapsed = time.perf_counter() - target
                with lock:
                    samples.latencies.append(elapsed)
                    samples.lateness.append(max(0.0, late))
                    samples.failed += not ok
        return run

    _run_threads([body(do) for do in workers])
    samples.wall = time.perf_counter() - started
    return samples


class SpanRecorder:
    """In-memory spans ``{name, start, end, parent, request_id}``.

    Spans are recorded from the benchmark's side of each call into a
    layer.  ``enabled`` off turns :meth:`span` into a bare ``yield`` so
    the same code path serves the untraced half of an overhead
    comparison.  Not thread-safe: traced passes run on one thread.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: List[Dict[str, object]] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, request_id: object = None) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        record: Dict[str, object] = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "request_id": request_id,
        }
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, obj: object, method: str, name: str) -> None:
        """Shadow ``obj.method`` with an instance attribute that records
        a span around every call (no source of the program changes)."""
        inner = getattr(obj, method)

        def traced(*args, **kwargs):
            with self.span(name):
                return inner(*args, **kwargs)

        setattr(obj, method, traced)

    def durations(self, name: str) -> List[float]:
        return [
            s["end"] - s["start"] for s in self.spans
            if s["name"] == name and s["end"] is not None
        ]

    def total(self, name: str) -> float:
        return float(sum(self.durations(name)))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


def median(values: Sequence[float]) -> float:
    return float(np.median(values)) if len(values) else 0.0

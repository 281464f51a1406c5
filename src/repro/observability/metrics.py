"""Dependency-free metrics registry: counters, gauges, histograms.

The toolkit's runtime telemetry (per-stage query latency, candidate-set
sizes, cache behavior, WAL fsync cost, server command rates)
all flows through one :class:`MetricsRegistry`.  Design constraints:

- **No dependencies** — stdlib only, so the metrics layer is available
  everywhere the engine is (including cluster backend processes).
- **Thread-safe** — the engine runs as one concurrent program
  (section 3): server threads, acquisition threads, and the query
  pipeline all update metrics concurrently.  Every mutation happens
  under the owning metric's lock.
- **Near-zero cost when disabled** — each instrument checks one
  attribute on its registry before doing any work, so instrumented hot
  paths cost a single predictable branch with metrics off.  Metric
  objects are created once (at import time in the instrumented modules)
  and survive :meth:`MetricsRegistry.reset`, which zeroes values in
  place rather than discarding objects.

The wire rendering (:meth:`MetricsRegistry.render`) is a stable,
line-oriented ``name value`` format documented in
``docs/OBSERVABILITY.md``; the server's ``metrics`` command and the web
UI's ``/metrics`` page both emit it verbatim.
:meth:`MetricsRegistry.render_prometheus` additionally renders the same
registry in the Prometheus text exposition format for scrapers
(``metrics -p`` / the web UI's ``/metrics.txt``).

Cross-process aggregation: cluster backends export their registries as
plain-data **snapshots** (:meth:`MetricsRegistry.snapshot`), the
coordinator takes only the change since the last pull
(:func:`delta_snapshots`) and folds it into namespaced series with
:meth:`MetricsRegistry.merge_snapshot`.  Counter and histogram merges
are associative and commutative over deltas, so per-node and rolled-up
series stay consistent no matter the arrival order.
"""

from __future__ import annotations

import bisect
import json
import math
import re
import threading
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_COUNT_BUCKETS",
    "get_registry",
    "counter",
    "gauge",
    "histogram",
    "set_enabled",
    "delta_snapshots",
    "encode_snapshot",
    "decode_snapshot",
]

#: Latency buckets in seconds: 100us .. 10s, roughly 1-2.5-5 per decade.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Cardinality buckets (candidate-set sizes, rows scanned, ...).
DEFAULT_COUNT_BUCKETS: Tuple[float, ...] = (
    1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000,
    50000, 100000,
)


class _Metric:
    """Common plumbing: a name, a lock, and the owning registry."""

    __slots__ = ("name", "_lock", "_registry")

    def __init__(self, name: str, registry: "MetricsRegistry") -> None:
        self.name = name
        self._lock = threading.Lock()
        self._registry = registry

    @property
    def enabled(self) -> bool:
        return self._registry.enabled


class Counter(_Metric):
    """Monotonic event counter."""

    __slots__ = ("_value",)

    def __init__(self, name: str, registry: "MetricsRegistry") -> None:
        super().__init__(name, registry)
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        if not self._registry.enabled:
            return
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value

    def _reset(self) -> None:
        with self._lock:
            self._value = 0

    def _render(self) -> List[str]:
        return [f"{self.name} {self.value}"]

    def _state(self) -> tuple:
        with self._lock:
            return ("c", self._value)

    def _merge(self, amount: int) -> None:
        """Fold an already-gated cross-process delta in (no enabled check:
        the registry-level merge decided)."""
        with self._lock:
            self._value += int(amount)


class Gauge(_Metric):
    """Point-in-time value (arena rows, live backends, ring occupancy)."""

    __slots__ = ("_value",)

    def __init__(self, name: str, registry: "MetricsRegistry") -> None:
        super().__init__(name, registry)
        self._value = 0.0

    def set(self, value: float) -> None:
        if not self._registry.enabled:
            return
        with self._lock:
            self._value = float(value)

    def add(self, amount: float) -> None:
        if not self._registry.enabled:
            return
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def _reset(self) -> None:
        with self._lock:
            self._value = 0.0

    def _render(self) -> List[str]:
        return [f"{self.name} {_fmt(self.value)}"]

    def _state(self) -> tuple:
        with self._lock:
            return ("g", self._value)

    def _merge(self, value: float) -> None:
        """Gauges are point-in-time: the incoming value wins."""
        with self._lock:
            self._value = float(value)


class Histogram(_Metric):
    """Fixed-bucket histogram with a running count and sum.

    Buckets are upper bounds (``observe(v)`` lands in the first bucket
    with ``v <= bound``; values above every bound only count toward
    ``_count``/``_sum``).  Rendering emits cumulative bucket counts the
    way Prometheus does, so rates and quantile estimates can be derived
    downstream without the registry keeping per-observation state.
    """

    __slots__ = ("_bounds", "_buckets", "_count", "_sum")

    def __init__(
        self,
        name: str,
        registry: "MetricsRegistry",
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        super().__init__(name, registry)
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("histogram buckets must be a sorted, non-empty sequence")
        self._bounds = tuple(float(b) for b in buckets)
        self._buckets = [0] * len(self._bounds)
        self._count = 0
        self._sum = 0.0

    def observe(self, value: float) -> None:
        if not self._registry.enabled:
            return
        idx = bisect.bisect_left(self._bounds, value)
        with self._lock:
            self._count += 1
            self._sum += value
            if idx < len(self._buckets):
                self._buckets[idx] += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def quantile(self, q: float) -> float:
        """Bucket-interpolated quantile estimate (``0 <= q <= 1``).

        Finds the bucket holding the ``q * count``-th observation and
        interpolates linearly between its lower and upper bound — the
        same estimator Prometheus' ``histogram_quantile`` uses, with the
        same caveats: the answer is an *estimate* whose error is bounded
        by the bucket width, and observations above the last bound clamp
        to it.  Returns NaN for an empty histogram.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        with self._lock:
            count = self._count
            buckets = list(self._buckets)
        if count == 0:
            return float("nan")
        target = q * count
        running = 0
        lower = 0.0
        for bound, n in zip(self._bounds, buckets):
            if n and running + n >= target:
                fraction = (target - running) / n
                return lower + (bound - lower) * fraction
            running += n
            lower = bound
        # Every counted observation beyond the last bound is clamped.
        return float(self._bounds[-1])

    def snapshot(self) -> Dict[str, float]:
        """``{count, sum, mean}`` plus per-bound cumulative counts."""
        with self._lock:
            out: Dict[str, float] = {
                "count": self._count,
                "sum": self._sum,
                "mean": self._sum / self._count if self._count else 0.0,
            }
            running = 0
            for bound, n in zip(self._bounds, self._buckets):
                running += n
                out[f"le_{_fmt(bound)}"] = running
            return out

    def _reset(self) -> None:
        with self._lock:
            self._buckets = [0] * len(self._bounds)
            self._count = 0
            self._sum = 0.0

    def _render(self) -> List[str]:
        with self._lock:
            lines = [
                f"{self.name}_count {self._count}",
                f"{self.name}_sum {_fmt(self._sum)}",
            ]
            running = 0
            for bound, n in zip(self._bounds, self._buckets):
                running += n
                lines.append(f"{self.name}_bucket_le_{_fmt(bound)} {running}")
            return lines

    def _state(self) -> tuple:
        with self._lock:
            return ("h", self._bounds, tuple(self._buckets), self._count, self._sum)

    def _merge(
        self,
        bounds: Sequence[float],
        buckets: Sequence[int],
        count: int,
        total: float,
    ) -> None:
        """Fold per-bucket deltas in; bounds must match exactly."""
        if tuple(float(b) for b in bounds) != self._bounds:
            raise ValueError(
                f"histogram {self.name!r}: bucket bounds mismatch on merge"
            )
        with self._lock:
            for i, n in enumerate(buckets):
                self._buckets[i] += int(n)
            self._count += int(count)
            self._sum += float(total)


def _fmt(value: float) -> str:
    """Render a number without float noise: ints stay ints."""
    if math.isnan(value) or math.isinf(value):
        return str(value)
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


_PROM_BAD_CHARS = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str, namespace: str) -> str:
    """Sanitize a dotted metric name into a legal Prometheus name."""
    cleaned = _PROM_BAD_CHARS.sub("_", name)
    if namespace:
        cleaned = f"{namespace}_{cleaned}"
    if cleaned[0].isdigit():
        cleaned = f"_{cleaned}"
    return cleaned


def delta_snapshots(
    prev: Dict[str, tuple], cur: Dict[str, tuple]
) -> Dict[str, tuple]:
    """The change from ``prev`` to ``cur`` (both from
    :meth:`MetricsRegistry.snapshot`), as a snapshot-shaped dict.

    Counters and histograms become differences (metrics absent from
    ``prev`` count from zero); gauges pass through their current value
    when it changed.  Unchanged metrics are omitted, so a node that
    did nothing ships an empty dict.  Deltas compose: applying the delta
    of ``a -> b`` then ``b -> c`` equals applying the delta ``a -> c``.
    """
    delta: Dict[str, tuple] = {}
    for name, state in cur.items():
        kind = state[0]
        before = prev.get(name)
        if before is not None and before[0] != kind:
            before = None  # type changed (shouldn't happen): count from zero
        if kind == "c":
            base = before[1] if before is not None else 0
            if state[1] != base:
                delta[name] = ("c", state[1] - base)
        elif kind == "g":
            if before is None or before[1] != state[1]:
                delta[name] = state
        elif kind == "h":
            _, bounds, buckets, count, total = state
            if before is not None and before[1] == bounds:
                prev_buckets, prev_count, prev_sum = before[2], before[3], before[4]
            else:
                prev_buckets, prev_count, prev_sum = (0,) * len(buckets), 0, 0.0
            if count != prev_count or total != prev_sum:
                delta[name] = (
                    "h",
                    bounds,
                    tuple(b - p for b, p in zip(buckets, prev_buckets)),
                    count - prev_count,
                    total - prev_sum,
                )
    return delta


def encode_snapshot(snapshot: Dict[str, tuple]) -> str:
    """A snapshot as one line of compact JSON (the ``metrics -s`` wire
    payload).  Inverse of :func:`decode_snapshot`."""
    return json.dumps(snapshot, separators=(",", ":"), sort_keys=True)


def decode_snapshot(text: str) -> Dict[str, tuple]:
    """Parse a :func:`encode_snapshot` payload back into snapshot form.

    JSON has no tuples, so every list is re-tupled — histogram *bounds*
    must compare equal to locally-held tuples for
    :func:`delta_snapshots` and :meth:`Histogram._merge` to match them.
    Raises ``ValueError`` on malformed payloads.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"bad metrics snapshot: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValueError("metrics snapshot is not an object")
    out: Dict[str, tuple] = {}
    for name, state in raw.items():
        if not isinstance(state, list) or not state:
            raise ValueError(f"bad metric state for {name!r}")
        kind = state[0]
        if kind in ("c", "g") and len(state) == 2:
            out[name] = (kind, state[1])
        elif kind == "h" and len(state) == 5:
            out[name] = (
                "h",
                tuple(float(b) for b in state[1]),
                tuple(int(n) for n in state[2]),
                int(state[3]),
                float(state[4]),
            )
        else:
            raise ValueError(f"unknown metric state kind {kind!r} for {name!r}")
    return out


class MetricsRegistry:
    """Named metric store; get-or-create accessors, stable rendering.

    One process-wide default registry (:func:`get_registry`) backs all
    built-in instrumentation; isolated registries can be created for
    tests or embedded engines.  ``enabled`` gates every mutation — see
    the module docstring for the cost model.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._metrics: Dict[str, _Metric] = {}

    # -- lifecycle -------------------------------------------------------
    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Zero every metric *in place* (instruments keep their handles)."""
        with self._lock:
            for metric in self._metrics.values():
                metric._reset()

    # -- get-or-create ---------------------------------------------------
    def _get(self, name: str, cls, **kwargs) -> _Metric:
        if not name:
            raise ValueError("metric name must be non-empty")
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name, self, **kwargs)
                self._metrics[name] = metric
            elif not isinstance(metric, cls):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{type(metric).__name__}, not {cls.__name__}"
                )
            return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)  # type: ignore[return-value]

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)  # type: ignore[return-value]

    def histogram(
        self, name: str, buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS
    ) -> Histogram:
        return self._get(name, Histogram, buckets=buckets)  # type: ignore[return-value]

    # -- introspection ---------------------------------------------------
    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._metrics)

    def get(self, name: str) -> Optional[_Metric]:
        with self._lock:
            return self._metrics.get(name)

    def value(self, name: str) -> float:
        """Convenience: a counter/gauge's value (0 for unknown names)."""
        metric = self.get(name)
        if metric is None or isinstance(metric, Histogram):
            return 0.0
        return metric.value  # type: ignore[union-attr]

    def render(self, prefix: Optional[str] = None) -> List[str]:
        """Stable line format: one ``name value`` pair per line, sorted
        by metric name (histograms expand to ``_count``/``_sum``/
        ``_bucket_le_*`` lines).  ``prefix`` restricts the dump to
        metrics whose *name* starts with it (the server's
        ``metrics <prefix>`` filter)."""
        with self._lock:
            names = sorted(self._metrics)
            if prefix:
                names = [n for n in names if n.startswith(prefix)]
            metrics = [self._metrics[name] for name in names]
        lines: List[str] = []
        for metric in metrics:
            lines.extend(metric._render())
        return lines

    def render_prometheus(
        self, prefix: Optional[str] = None, namespace: str = "ferret"
    ) -> List[str]:
        """The registry in the Prometheus text exposition format.

        Dots (and any other characters illegal in Prometheus metric
        names) become underscores, every series is namespaced
        (``ferret_engine_queries``), ``# TYPE`` comments declare the
        metric kind, and histograms expand into cumulative
        ``_bucket{le="..."}`` series ending in ``le="+Inf"`` plus
        ``_sum``/``_count`` — exactly what ``histogram_quantile()``
        expects.  ``prefix`` filters on the *original* metric name.
        """
        with self._lock:
            names = sorted(self._metrics)
            if prefix:
                names = [n for n in names if n.startswith(prefix)]
            metrics = [self._metrics[name] for name in names]
        lines: List[str] = []
        for metric in metrics:
            pname = _prom_name(metric.name, namespace)
            if isinstance(metric, Counter):
                lines.append(f"# TYPE {pname} counter")
                lines.append(f"{pname} {metric.value}")
            elif isinstance(metric, Gauge):
                lines.append(f"# TYPE {pname} gauge")
                lines.append(f"{pname} {_fmt(metric.value)}")
            elif isinstance(metric, Histogram):
                _kind, bounds, buckets, count, total = metric._state()
                lines.append(f"# TYPE {pname} histogram")
                running = 0
                for bound, n in zip(bounds, buckets):
                    running += n
                    lines.append(
                        f'{pname}_bucket{{le="{_fmt(bound)}"}} {running}'
                    )
                lines.append(f'{pname}_bucket{{le="+Inf"}} {count}')
                lines.append(f"{pname}_sum {_fmt(total)}")
                lines.append(f"{pname}_count {count}")
        return lines

    # -- cross-process aggregation ---------------------------------------
    def snapshot(self) -> Dict[str, tuple]:
        """Plain-data state of every metric (picklable, lock-consistent
        per metric).  The tuples are ``("c", value)``, ``("g", value)``,
        and ``("h", bounds, buckets, count, sum)``."""
        with self._lock:
            metrics = list(self._metrics.values())
        return {metric.name: metric._state() for metric in metrics}

    def merge_snapshot(
        self, snapshot: Dict[str, tuple], prefix: str = ""
    ) -> None:
        """Fold a (delta) snapshot into this registry under ``prefix``.

        Counters and histograms *accumulate* — folding the deltas of
        several nodes (in any order, any grouping) yields the same
        totals, which is what makes a roll-up across nodes well
        defined.  Gauges take the incoming value (last writer wins).
        Metrics are created on first sight; a type or bucket-bounds
        conflict with an existing metric raises ``ValueError``.
        """
        if not self.enabled:
            return
        for name, state in snapshot.items():
            kind = state[0]
            full = prefix + name
            if kind == "c":
                self.counter(full)._merge(state[1])
            elif kind == "g":
                self.gauge(full)._merge(state[1])
            elif kind == "h":
                _, bounds, buckets, count, total = state
                self.histogram(full, buckets=bounds)._merge(
                    bounds, buckets, count, total
                )
            else:
                raise ValueError(f"unknown metric state kind {kind!r}")


_DEFAULT_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry all built-in instruments use."""
    return _DEFAULT_REGISTRY


def set_enabled(enabled: bool) -> None:
    """Master switch on the default registry."""
    _DEFAULT_REGISTRY.enabled = bool(enabled)


def counter(name: str) -> Counter:
    return _DEFAULT_REGISTRY.counter(name)


def gauge(name: str) -> Gauge:
    return _DEFAULT_REGISTRY.gauge(name)


def histogram(
    name: str, buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS
) -> Histogram:
    return _DEFAULT_REGISTRY.histogram(name, buckets=buckets)

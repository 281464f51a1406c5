"""FerretSystem — the assembled toolkit as one object.

The paper's Figure 2 shows the components a system builder wires
together: the core search engine, metadata management, attribute search,
data acquisition, and the query interfaces.  :class:`FerretSystem` is
that wiring as a library type: give it a plug-in and a directory and it
owns a transactional store, a persistent attribute index, an engine that
writes through to the store, and (optionally) the watched ingest
directory and network endpoints — all recovered together on reopen.

Example::

    from repro.system import FerretSystem
    from repro.datatypes.image import make_image_plugin

    with FerretSystem(make_image_plugin(), "/var/lib/ferret") as system:
        oid = system.insert_file("photo.npy", {"album": "vacation"})
        hits = system.search(oid, top_k=10, attr_query="album:vacation")
"""

from __future__ import annotations

import os
import threading
import time
from typing import Dict, List, Mapping, Optional, Sequence, Set

from .acquisition.scanner import DirectoryScanner
from .attrsearch.index import PersistentIndex
from .attrsearch.query import AttributeSearcher
from .core.engine import SearchMethod, SimilaritySearchEngine
from .core.filtering import FilterParams
from .core.parallel import ParallelConfig
from .core.plugin import DataTypePlugin
from .core.ranking import SearchResult
from .core.sketch import SketchParams
from .core.types import ObjectSignature
from .metadata.manager import MetadataManager
from .observability import metrics as _metrics
from .observability.log import get_logger
from .storage.errors import StorageError
from .storage.kvstore import KVStore

__all__ = ["FerretSystem", "HealthState"]

_LOG = get_logger("health")
_M_ERRORS = _metrics.counter("health.errors")
_M_FALLBACKS = _metrics.counter("health.fallbacks")
_M_DEGRADED_COMPONENTS = _metrics.gauge("health.degraded_components")


class HealthState:
    """Thread-safe degradation ledger for a running search system.

    Components (``storage``, ``engine``, ...) are marked
    degraded when they raise and healthy again when they recover; the
    query interface reports this through the ``health`` protocol command
    and prefixes failures caused by degraded components with
    ``ERR DEGRADED <reason>`` so clients can distinguish "your request
    was bad" from "the server is impaired" (see docs/ROBUSTNESS.md).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._started = time.monotonic()
        self._degraded: Dict[str, str] = {}
        self._error_counts: Dict[str, int] = {}
        self._fallback_counts: Dict[str, int] = {}

    # -- updates ---------------------------------------------------------
    def record_error(self, component: str, exc: BaseException) -> None:
        """Count an error and mark the component degraded."""
        with self._lock:
            self._error_counts[component] = self._error_counts.get(component, 0) + 1
            newly = component not in self._degraded
            self._degraded[component] = f"{type(exc).__name__}: {exc}"
            n_degraded = len(self._degraded)
        _M_ERRORS.inc()
        _M_DEGRADED_COMPONENTS.set(n_degraded)
        if newly:
            _LOG.warning(
                "component_degraded",
                component=component,
                error=f"{type(exc).__name__}: {exc}",
            )

    def record_fallback(self, component: str, reason: str = "") -> None:
        """Count a successful fallback away from a failing component."""
        with self._lock:
            self._fallback_counts[component] = (
                self._fallback_counts.get(component, 0) + 1
            )
            newly = reason and component not in self._degraded
            if reason:
                self._degraded.setdefault(component, reason)
            n_degraded = len(self._degraded)
        _M_FALLBACKS.inc()
        _M_DEGRADED_COMPONENTS.set(n_degraded)
        if newly:
            _LOG.warning("fallback", component=component, reason=reason)

    def mark_healthy(self, component: str) -> None:
        with self._lock:
            recovered = self._degraded.pop(component, None)
            n_degraded = len(self._degraded)
        _M_DEGRADED_COMPONENTS.set(n_degraded)
        if recovered is not None:
            _LOG.info("component_recovered", component=component)

    # -- queries ---------------------------------------------------------
    @property
    def degraded(self) -> bool:
        with self._lock:
            return bool(self._degraded)

    def degraded_components(self) -> Dict[str, str]:
        with self._lock:
            return dict(self._degraded)

    def reason(self) -> str:
        with self._lock:
            if not self._degraded:
                return ""
            return "; ".join(f"{c}: {r}" for c, r in sorted(self._degraded.items()))

    def status_lines(self) -> List[str]:
        """Protocol lines for the ``health`` command (``key value`` pairs)."""
        with self._lock:
            lines = [
                f"status {'degraded' if self._degraded else 'ok'}",
                f"uptime_seconds {time.monotonic() - self._started:.1f}",
            ]
            for component, why in sorted(self._degraded.items()):
                lines.append(f"degraded.{component} {why.splitlines()[0]}")
            for component, count in sorted(self._error_counts.items()):
                lines.append(f"errors.{component} {count}")
            for component, count in sorted(self._fallback_counts.items()):
                lines.append(f"fallbacks.{component} {count}")
        return lines


class FerretSystem:
    """A durable, queryable similarity search system for one data type.

    Parameters
    ----------
    plugin:
        The data-type plug-in.
    directory:
        Home of the system's store (created if missing).
    sketch_params / filter_params:
        Engine tuning; the sketch seed is persisted on first open and
        reused afterwards so stored sketches stay comparable.
    parallel:
        Sharded-scan tuning forwarded to the engine (worker count,
        auto-enable threshold, result-cache size).
    store_kwargs:
        Forwarded to the underlying :class:`KVStore` (sync policy etc.).
    """

    def __init__(
        self,
        plugin: DataTypePlugin,
        directory: str,
        sketch_params: Optional[SketchParams] = None,
        filter_params: Optional[FilterParams] = None,
        parallel: Optional[ParallelConfig] = None,
        **store_kwargs,
    ) -> None:
        os.makedirs(directory, exist_ok=True)
        self.directory = directory
        self.health = HealthState()
        self.store = KVStore(directory, **store_kwargs)
        self.metadata = MetadataManager(store=self.store)
        self.index = PersistentIndex(self.store)
        self.searcher = AttributeSearcher(self.index)
        sketch_params = self._pin_sketch_params(plugin, sketch_params)
        self.engine = SimilaritySearchEngine(
            plugin, sketch_params, filter_params, metadata=self.metadata,
            parallel=parallel,
        )
        self._closed = False
        self.loaded = self.engine.load()

    # ------------------------------------------------------------------
    # Sketch parameter pinning
    # ------------------------------------------------------------------
    # Sketches stored on disk were built with one (n_bits, K, seed)
    # triple; silently reopening with different parameters would make
    # new sketches incomparable with stored ones.  Persist the triple on
    # first open and verify it afterwards.
    _PARAMS_KEY = b"sketch_params"
    _SYSTEM_TREE = "system"

    def _pin_sketch_params(
        self, plugin: DataTypePlugin, requested: Optional[SketchParams]
    ) -> SketchParams:
        stored = self.store.get(self._SYSTEM_TREE, self._PARAMS_KEY)
        if stored is None:
            params = requested or SketchParams(n_bits=64, meta=plugin.meta)
            encoded = f"{params.n_bits},{params.k_xor},{params.seed}".encode()
            self.store.put(self._SYSTEM_TREE, self._PARAMS_KEY, encoded)
            return params
        n_bits, k_xor, seed = (int(x) for x in stored.decode().split(","))
        if requested is not None and (
            requested.n_bits, requested.k_xor, requested.seed
        ) != (n_bits, k_xor, seed):
            raise ValueError(
                f"store was created with sketch params (N={n_bits}, K={k_xor}, "
                f"seed={seed}); reopen with those or rebuild the store"
            )
        meta = requested.meta if requested is not None else plugin.meta
        return SketchParams(n_bits=n_bits, meta=meta, k_xor=k_xor, seed=seed)

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def insert(
        self,
        signature: ObjectSignature,
        attributes: Optional[Mapping[str, str]] = None,
    ) -> int:
        try:
            object_id = self.engine.insert(signature, attributes)
            if attributes:
                self.index.add(object_id, dict(attributes))
        except StorageError as exc:
            self.health.record_error("storage", exc)
            raise
        self.health.mark_healthy("storage")
        return object_id

    def insert_file(
        self, path: str, attributes: Optional[Mapping[str, str]] = None
    ) -> int:
        try:
            object_id = self.engine.insert_file(path, attributes)
            if attributes:
                self.index.add(object_id, dict(attributes))
        except StorageError as exc:
            self.health.record_error("storage", exc)
            raise
        self.health.mark_healthy("storage")
        return object_id

    def watch_directory(
        self,
        path: str,
        extensions: Optional[Sequence[str]] = None,
        attribute_fn=None,
        interval: Optional[float] = None,
    ) -> DirectoryScanner:
        """Attach directory-scan acquisition; returns the scanner.

        With ``interval`` set, polling starts immediately on a daemon
        thread; otherwise call ``scanner.scan_once()`` yourself.
        Imported files get their attributes indexed automatically.
        """
        scanner = DirectoryScanner(
            self.engine, path, extensions=extensions, attribute_fn=attribute_fn
        )

        def on_import(file_path: str, object_id: int) -> None:
            attrs = attribute_fn(file_path) if attribute_fn else {}
            if attrs:
                self.index.add(object_id, attrs)

        scanner.on_import = on_import
        if interval is not None:
            scanner.start(interval)
        return scanner

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def search(
        self,
        seed: "int | ObjectSignature",
        top_k: int = 10,
        method: SearchMethod = SearchMethod.FILTERING,
        attr_query: Optional[str] = None,
        exclude_self: Optional[bool] = None,
    ) -> List[SearchResult]:
        """Similarity search, optionally restricted by an attribute query.

        ``seed`` is an indexed object id or a fresh signature.  When the
        seed is an indexed id, it is excluded from results by default.
        """
        restrict: Optional[Set[int]] = None
        if attr_query:
            restrict = self.searcher.search(attr_query)
        if isinstance(seed, int):
            query = self.engine.get_object(seed)
            exclude = True if exclude_self is None else exclude_self
        else:
            query = seed
            exclude = False if exclude_self is None else exclude_self
        return self.engine.query(
            query, top_k=top_k, method=method, exclude_self=exclude,
            restrict_to=sorted(restrict) if restrict is not None else None,
        )

    def attribute_search(self, query: str) -> List[int]:
        return sorted(self.searcher.search(query))

    def attributes_of(self, object_id: int) -> Dict[str, str]:
        return self.metadata.get_attributes(object_id)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def checkpoint(self) -> None:
        self.store.checkpoint()

    def close(self) -> None:
        if not self._closed:
            self.engine.close()  # tear down the scan worker pool first
            self.store.close()
            self._closed = True

    def __enter__(self) -> "FerretSystem":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __len__(self) -> int:
        return len(self.engine)

"""The four workloads and their traced passes.

Each workload function takes a :class:`Run`, builds its corpus from the
seed, sets its system up ``setups`` times (the median is ``setup_s``),
checks it against oracle answers, then either measures the end-to-end
metrics with tracing off or runs the traced layer pass.
README.md has the metric / layer / workload table.
"""

from __future__ import annotations

import gc
import resource
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core import (
    RankParams,
    parallel_filter_candidates,
    rank_candidates_many,
    sketch_filter,
)
from repro.metadata.serialization import encode_object, encode_sketches
from repro.observability.metrics import get_registry
from repro.server.protocol import format_ok, parse_command
from repro.storage.kvstore import KVStore

import corpus
from loadgen import (
    MAX_CLIENTS,
    Samples,
    SpanRecorder,
    closed_loop,
    median,
    open_loop,
    poisson_schedule,
)
from systems import (
    TOP_K,
    Answer,
    ClusterSystem,
    DurableSystem,
    EngineSpec,
    ServerSystem,
    answers_match,
    image_spec,
    reference_answers,
    shape_spec,
    well_formed,
)

#: ingest_churn: share of writes that insert (the rest remove a random
#: live object), and one read-after-write query per this many writes.
CHURN_INSERT_SHARE = 0.75
CHURN_QUERY_EVERY = 125
CHURN_REOPENS = 3
#: cluster_query: share of requests that repeat one of the last
#: ``CLUSTER_REPEAT_WINDOW`` ids (inside the coordinator's 128-entry
#: result cache), and the fixed request count of the cache-ratio pass.
CLUSTER_REPEAT_SHARE = 0.25
CLUSTER_REPEAT_WINDOW = 64
CLUSTER_CACHE_PASS = 64
#: Open-loop ladder (image_query, traced run only).
OPEN_RATES = (4, 8, 16)
OPEN_P90_LIMIT_MS = 300.0
#: How the traced run splits ``--seconds``: layer pass, 2-client closed
#: loop, then each open-loop rung.
TRACE_LAYER_SHARE = 0.4
TRACE_C2_SHARE = 0.2
TRACE_RUNG_SHARE = 0.2
#: Requests dealt per second of a closed-loop phase (an upper bound on
#: what any workload answers; unused ids are simply not asked).
DEAL_PER_SECOND = 500


@dataclass(frozen=True)
class Sizes:
    image_objects: int
    shape_objects: int
    churn_preload: int
    churn_writes_per_second: int
    oracle_queries: int
    trace_requests: int
    #: Timed set-ups per run.  Three, so the median is a real one: the
    #: first build of a process is slower than the later ones.  The
    #: 100k-shape system costs ~8 s to build, so it gets two.
    setups: int
    shape_setups: int


FULL = Sizes(12_000, 100_000, 4_000, 2_000, 16, 64, 3, 2)
QUICK = Sizes(400, 3_000, 200, 400, 4, 8, 2, 2)


@dataclass
class Run:
    """One invocation: its inputs, and what it measured."""

    seed: int
    seconds: float
    trace: bool
    sizes: Sizes = FULL
    metrics: Dict[str, float] = field(default_factory=dict)
    samples: Dict[str, int] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    recorder: SpanRecorder = field(default_factory=SpanRecorder)

    def check(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def tally(self, phase: Samples) -> Samples:
        self.attempted += phase.attempted
        self.failed += phase.failed
        return phase

    def put(self, name: str, value: float, samples: Optional[int] = None) -> None:
        self.metrics[name] = float(value)
        if samples is not None:
            self.samples[name] = samples

    def rng(self, stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, stream])


class Deck:
    """Query ids dealt without replacement, so no phase ever repeats an
    id and the engine's filter cache never hits."""

    def __init__(self, ids: np.ndarray) -> None:
        self._ids = [int(i) for i in ids]
        self._next = 0

    def deal(self, count: int) -> List[int]:
        dealt = self._ids[self._next:self._next + count]
        self._next += len(dealt)
        return dealt


def _reading(name: str) -> float:
    """Current value of a counter/gauge, or the sum of a histogram."""
    metric = get_registry().get(name)
    if metric is None:
        return 0.0
    return float(metric.sum if hasattr(metric, "sum") else metric.value)


def _cache_hit_ratio(engine, before: Dict[str, int]) -> float:
    """Share of the engine's filter-cache lookups since ``before`` (an
    earlier ``parallel_info()["cache"]``) that hit."""
    after = engine.parallel_info()["cache"]
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    return hits / max(1, hits + misses)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _over_setups(run: Run, objects: int, build, engine_of, setups: int, use) -> None:
    """``setups`` times: build the system (timed), check its first answer
    against the oracle, call ``use(system, oracle, deck, last)``, close
    the system.  The oracle answers come from ``engine_of(first system)``
    (see :func:`systems.reference_answers`); every later system holds the
    same corpus, so they are its oracle too.

    An untraced run measures a share of ``--seconds`` on *every* set-up
    and pools the samples: the phase then spans more wall-clock time and
    several independently built systems, which averages out the slow
    drift of a shared host better than one long phase on one system."""
    order = run.rng(1).permutation(objects)
    oracle_ids = [int(i) for i in order[:run.sizes.oracle_queries]]
    deck = Deck(order[run.sizes.oracle_queries:])
    oracle: Dict[int, Answer] = {}
    times = []
    for index in range(setups):
        gc.collect()
        system = build(oracle_ids[0])
        try:
            times.append(system.setup_seconds)
            if not oracle:
                started = time.perf_counter()
                oracle = reference_answers(engine_of(system), oracle_ids)
                run.put("loadgen.oracle_s", time.perf_counter() - started)
            run.check(answers_match(system.first_answer, oracle[oracle_ids[0]]))
            use(system, oracle, deck, index == setups - 1)
        finally:
            system.close()
            # Dropped before the next build, so two systems are never
            # resident at once and peak RSS stays one system's.
            del system
    run.put("setup_s", median(times), samples=len(times))


def _ask_oracle(run: Run, system, oracle: Dict[int, Answer]) -> None:
    """Every oracle query, checked, untimed: warm-up for the passes that
    do not put the oracle ids into a measured request stream."""
    for oid, expected in oracle.items():
        run.check(answers_match(system.ask(oid), expected))


def _wire_worker(client, oracle: Dict[int, Answer], seen: Optional[dict] = None):
    """A load-generator client: one connection, every answer checked.
    ``seen`` (cluster) also requires a repeated id to get the answer it
    got the first time, whichever path served it."""
    def do(object_id: int) -> bool:
        answer = client.query(object_id, top=TOP_K)
        if client.last_partial_shards:
            return False
        if seen is not None and seen.setdefault(object_id, answer) != answer:
            return False
        expected = oracle.get(object_id)
        if expected is not None:
            return answers_match(answer, expected)
        return well_formed(answer, object_id)
    return do


def _workers(system, oracle, clients: int, seen: Optional[dict] = None):
    return [_wire_worker(c, oracle, seen) for c in system.clients(clients)]


def _closed(run: Run, system, oracle, requests, clients: int, seconds: float,
            seen: Optional[dict] = None) -> Samples:
    workers = _workers(system, oracle, clients, seen)
    return run.tally(closed_loop(workers, seconds, requests))


def _report_closed(run: Run, phase: Samples) -> None:
    run.put("ops_per_s", phase.ok_per_second, samples=phase.attempted)
    run.put("query_p50_ms", phase.percentile_ms(50), samples=phase.attempted)
    run.put("query_p90_ms", phase.percentile_ms(90), samples=phase.attempted)


# ----------------------------------------------------------------------
# image_query / shape_query: one engine behind one server
# ----------------------------------------------------------------------
def _server_workload(run: Run, spec: EngineSpec, signatures, setups: int,
                     open_rates: Sequence[int]) -> None:
    pooled = Samples()

    def use(system: ServerSystem, oracle, deck: Deck, last: bool) -> None:
        if not run.trace:
            # The oracle ids lead the stream: checked on every system
            # and timed like any other fresh id (the first one was the
            # set-up's query, so asking it again would hit the cache).
            seconds = run.seconds / setups
            requests = list(oracle)[1:] + deck.deal(int(seconds * DEAL_PER_SECOND))
            pooled.merge(_closed(run, system, oracle, requests, 1, seconds))
        elif last:
            _ask_oracle(run, system, oracle)
            run.put(
                "engine.insert_many_per_s",
                len(signatures) / system.insert_many_seconds,
            )
            _trace_server(run, system, oracle, deck, open_rates)

    _over_setups(
        run, len(signatures), lambda first: ServerSystem(spec, signatures, first),
        lambda system: system.engine, setups, use,
    )
    if not run.trace:
        _report_closed(run, pooled)
        run.put("peak_rss_mb", _peak_rss_mb())


def image_query(run: Run) -> None:
    started = time.perf_counter()
    signatures = corpus.image_corpus(run.sizes.image_objects, run.seed)
    run.put("loadgen.corpus_gen_s", time.perf_counter() - started)
    _server_workload(run, image_spec(), signatures, run.sizes.setups, OPEN_RATES)


def shape_query(run: Run) -> None:
    started = time.perf_counter()
    signatures, meta = corpus.shape_corpus(run.sizes.shape_objects, run.seed)
    run.put("loadgen.corpus_gen_s", time.perf_counter() - started)
    _server_workload(run, shape_spec(meta), signatures, run.sizes.shape_setups, ())


def _trace_server(run: Run, system: ServerSystem, oracle, deck: Deck,
                  open_rates: Sequence[int]) -> None:
    """Layer pass (each layer's public function called on the same query,
    one span per call), then the concurrency phases with spans off."""
    engine, rec = system.engine, run.recorder
    n_bits = engine.sketcher.n_bits
    cache = engine._filter_cache
    loads_before = (_reading("arena.delta_loads"), _reading("parallel.arena_loads"))
    reply_bytes, candidates, stats_list, trees = [], [], [], []
    deadline = time.perf_counter() + run.seconds * TRACE_LAYER_SHARE
    done = 0
    for oid in deck.deal(run.sizes.trace_requests):
        if done >= 8 and time.perf_counter() > deadline:
            break
        done += 1
        query = engine.get_object(oid)
        line = f"query {oid} top={TOP_K} method=filtering"
        with rec.span("request", oid):
            # Each of the four whole-query calls must scan: the filter
            # cache would answer the second one from the first.
            cache.clear()
            with rec.span("client.query", oid):
                wire = system.client.query(oid, top=TOP_K)
            cache.clear()
            with rec.span("client.traced_query", oid):
                traced, tree = system.client.traced_query(oid, top=TOP_K)
            with rec.span("protocol.parse", oid):
                command = parse_command(line)
            cache.clear()
            with rec.span("commands.execute", oid):
                data = system.processor.execute(command)
            with rec.span("protocol.format", oid):
                reply = format_ok(data)
            cache.clear()
            with rec.span("engine.query", oid):
                direct = engine.query_by_id(oid, top_k=TOP_K, exclude_self=True)
            with rec.span("sketch", oid):
                sketches = engine.sketcher.sketch_many(query.features)
            with rec.span("filter.serial", oid):
                cands = sketch_filter(
                    query, sketches, engine._store, engine.filter_params, n_bits
                )
            pool = engine._pool
            if pool is not None:
                with rec.span("filter.pool", oid):
                    pool_cands = parallel_filter_candidates(
                        [query], [sketches], engine.filter_params, n_bits, pool
                    )[0]
                run.check(pool_cands == cands)
            with rec.span("rank", oid):
                ranked, stats = rank_candidates_many(
                    query, cands, engine.objects, engine.plugin.obj_distance,
                    top_k=TOP_K, exclude_self=True, params=engine.rank_params,
                )
        executed = [(int(a), float(b)) for a, b in (row.split() for row in data)]
        run.check(well_formed(wire, oid))
        for other in (
            traced, executed,
            [(r.object_id, r.distance) for r in direct],
            [(r.object_id, r.distance) for r in ranked],
        ):
            run.check(answers_match(other, wire))
        reply_bytes.append(len(reply.encode("utf-8")))
        candidates.append(len(cands))
        stats_list.append(stats)
        trees.append(tree or {})

    def ms(name: str) -> np.ndarray:
        return np.array(rec.durations(name)) * 1000.0

    wire_ms, exec_ms, engine_ms = ms("client.query"), ms("commands.execute"), ms("engine.query")
    sketch_ms, rank_ms = ms("sketch"), ms("rank")
    pool_ms = ms("filter.pool")
    filter_ms = pool_ms if len(pool_ms) else ms("filter.serial")
    parts = {
        "server.wire_ms": median(wire_ms - exec_ms),
        "engine.glue_ms": median(engine_ms - sketch_ms - filter_ms - rank_ms),
        "sketch": median(sketch_ms),
        "filter": median(filter_ms),
        "rank.rank_ms": median(rank_ms),
    }
    total = median(wire_ms)
    run.put("server.wire_ms", parts["server.wire_ms"], samples=done)
    run.put("server.parse_us", median(ms("protocol.parse")) * 1000.0, samples=done)
    run.put("server.format_us", median(ms("protocol.format")) * 1000.0, samples=done)
    run.put("server.reply_bytes", median(reply_bytes))
    run.put("engine.query_ms", median(engine_ms), samples=done)
    run.put("engine.glue_ms", parts["engine.glue_ms"])
    run.put("sketch.query_us", parts["sketch"] * 1000.0)
    run.put("filter.scan_ms", median(ms("filter.serial")), samples=done)
    run.put("filter.pool_scan_ms", median(pool_ms), samples=len(pool_ms))
    rows = engine.compaction_info()["rows"]
    run.put("filter.rows_scanned", rows)
    run.put("filter.candidates", float(np.mean(candidates)))
    run.put("filter.ns_per_row", parts["filter"] * 1e6 / rows)
    run.put("rank.rank_ms", parts["rank.rank_ms"], samples=done)
    evals = sum(s.exact_evals for s in stats_list)
    prunes = sum(s.lower_bound_prunes for s in stats_list)
    run.put("rank.exact_evals", evals / done)
    run.put("rank.lower_bound_prunes", prunes / done)
    run.put("rank.prune_ratio", prunes / max(1, evals + prunes))
    run.put("rank.ms_per_solve", float(rank_ms.sum()) / max(1, evals))
    rank_spans = [
        span for tree in trees for span in tree.get("spans", ())
        if span.get("name") == "rank"
    ]
    run.put("rank.bound_ms", median([s.get("bound", 0.0) for s in rank_spans]) * 1000.0)
    run.put("rank.solve_ms", median([s.get("solve", 0.0) for s in rank_spans]) * 1000.0)
    run.put(
        "obs.trace_overhead_pct",
        100.0 * median((ms("client.traced_query") - wire_ms) / wire_ms),
    )
    run.put("budget.unattributed_pct", 100.0 * (total - sum(parts.values())) / total)
    # Rows sketched per second on the insert path, from a slice of the
    # corpus (insert_many sketches everything in one such call).
    sample = np.concatenate([engine.get_object(i).features for i in range(min(len(engine), 2000))])
    started = time.perf_counter()
    engine.sketcher.sketch_many(sample)
    run.put("sketch.rows_per_s", len(sample) / (time.perf_counter() - started))
    run.put("pool.delta_loads", _reading("arena.delta_loads") - loads_before[0])
    run.put("pool.full_loads", _reading("parallel.arena_loads") - loads_before[1])

    # Concurrency phases: spans off, fresh ids, the cache left alone.
    cache_before = engine.parallel_info()["cache"]
    clients = min(2, MAX_CLIENTS)
    seconds = run.seconds * TRACE_C2_SHARE
    phase = _closed(
        run, system, oracle, deck.deal(int(seconds * DEAL_PER_SECOND)), clients, seconds
    )
    run.put("loadgen.qps_c2", phase.ok_per_second, samples=phase.attempted)
    run.put("server.c2_scaling", phase.ok_per_second * float(np.mean(wire_ms)) / 1000.0)
    run.put("engine.cache_hit_ratio", _cache_hit_ratio(engine, cache_before))
    if open_rates:
        _open_ladder(run, system, oracle, deck, open_rates, clients)


def _open_ladder(run: Run, system, oracle, deck: Deck, rates, clients: int) -> None:
    workers = _workers(system, oracle, clients)
    best = 0
    late: List[float] = []
    for rate in rates:
        due = poisson_schedule(rate, run.seconds * TRACE_RUNG_SHARE, run.seed * 100 + rate)
        phase = run.tally(open_loop(workers, due, deck.deal(len(due))))
        late.extend(phase.lateness)
        p90 = phase.percentile_ms(90)
        if rate == rates[0]:
            run.put("loadgen.open4_p90_ms", p90, samples=phase.attempted)
        if not phase.abandoned and phase.failed == 0 and 0 < p90 <= OPEN_P90_LIMIT_MS:
            best = rate
    run.put("loadgen.max_rate_ok_qps", best)
    run.put("loadgen.late_p90_ms", float(np.percentile(late, 90)) * 1000.0 if late else 0.0)


# ----------------------------------------------------------------------
# cluster_query: coordinator in this process, backends as subprocesses
# ----------------------------------------------------------------------
def _cluster_requests(rng: np.random.Generator, fresh: List[int]) -> List[int]:
    """``fresh`` ids with repeats mixed in: each request is, with
    probability CLUSTER_REPEAT_SHARE, one of the last
    CLUSTER_REPEAT_WINDOW ids issued."""
    issued: List[int] = []
    supply = iter(fresh)
    for repeat in rng.random(len(fresh)) < CLUSTER_REPEAT_SHARE:
        if repeat and issued:
            window = issued[-CLUSTER_REPEAT_WINDOW:]
            issued.append(window[int(rng.integers(len(window)))])
        else:
            issued.append(next(supply))
    return issued


def cluster_query(run: Run) -> None:
    objects = run.sizes.image_objects
    started = time.perf_counter()
    signatures = corpus.image_corpus(objects, run.seed)
    run.put("loadgen.corpus_gen_s", time.perf_counter() - started)
    spec = image_spec()
    setups = run.sizes.setups
    pooled = Samples()
    backend_rss: List[float] = []

    def use(system: ClusterSystem, oracle, deck: Deck, last: bool) -> None:
        if not run.trace:
            seconds = run.seconds / setups
            requests = _cluster_requests(
                run.rng(3), list(oracle)[1:] + deck.deal(int(seconds * DEAL_PER_SECOND))
            )
            pooled.merge(_closed(run, system, oracle, requests, 1, seconds, seen={}))
            backend_rss.append(system.backend_peak_rss_mb())
        elif last:
            _ask_oracle(run, system, oracle)
            _trace_cluster(run, system, oracle, deck, single, run.rng(3))

    # One engine over the whole corpus, here in the benchmark's process:
    # the oracle's data, and the traced pass's single-engine yardstick.
    with spec.engine() as single:
        single.insert_many(signatures)
        _over_setups(
            run, objects, lambda first: ClusterSystem(objects, run.seed, first),
            lambda _system: single, setups, use,
        )
    if not run.trace:
        _report_closed(run, pooled)
        run.put("peak_rss_mb", _peak_rss_mb() + max(backend_rss))


def _trace_cluster(run: Run, system: ClusterSystem, oracle, deck: Deck,
                   single, rng) -> None:
    """Per fresh id: an untraced query and the same query traced (the
    reply carries the stitched cross-node tree), plus the solves one
    engine over the whole corpus needs for it.

    Whichever of the two goes second finds the backends' filter caches
    warm, so the order alternates: timings inside the tree are taken
    from traced-first requests only, and the traced-vs-untraced gap from
    means in which both calls went second equally often."""
    rec = run.recorder
    n_bits = single.sketcher.n_bits
    trees, cold_trees, single_evals = [], [], 0
    deadline = time.perf_counter() + run.seconds * (TRACE_LAYER_SHARE + TRACE_C2_SHARE)
    done = 0
    for oid in deck.deal(run.sizes.trace_requests):
        if done >= 8 and done % 2 == 0 and time.perf_counter() > deadline:
            break
        traced_first = done % 2 == 0
        done += 1
        with rec.span("request", oid):
            for traced_call in (traced_first, not traced_first):
                if traced_call:
                    with rec.span("client.traced_query", oid):
                        traced, tree = system.client.traced_query(oid, top=TOP_K)
                else:
                    with rec.span("client.query", oid):
                        wire = system.client.query(oid, top=TOP_K)
        trees.append(tree or {})
        if traced_first:
            cold_trees.append(tree or {})
        run.check(well_formed(wire, oid) and not system.client.last_partial_shards)
        run.check(answers_match(traced, wire))
        query = single.get_object(oid)
        cands = sketch_filter(
            query, single.sketcher.sketch_many(query.features),
            single._store, single.filter_params, n_bits,
        )
        ranked, stats = rank_candidates_many(
            query, cands, single.objects, single.plugin.obj_distance,
            top_k=TOP_K, exclude_self=True, params=RankParams(),
        )
        run.check(answers_match(wire, [(r.object_id, r.distance) for r in ranked]))
        single_evals += stats.exact_evals

    def spans_ms(name: str, key: str = "seconds") -> List[List[float]]:
        """Per traced request, ``key`` (in ms) of every span called
        ``name`` or, for ``name`` ending in a dot, starting with it."""
        match = str.startswith if name.endswith(".") else str.__eq__
        per_tree = [
            [
                float(span.get(key, 0.0)) * 1000.0 for span in tree.get("spans", ())
                if match(str(span.get("name", "")), name)
            ]
            for tree in cold_trees
        ]
        return [values for values in per_tree if values]

    rpc = spans_ms("node.", "rpc")
    wire_ms = np.array(rec.durations("client.query")) * 1000.0
    traced_ms = np.array(rec.durations("client.traced_query")) * 1000.0
    run.put("cluster.scatter_ms", median([v[0] for v in spans_ms("scatter")]), samples=len(cold_trees))
    run.put("cluster.gather_ms", median([v[0] for v in spans_ms("gather")]))
    run.put("cluster.rpc_ms", median([np.mean(v) for v in rpc]))
    run.put("cluster.net_queue_ms", median([np.mean(v) for v in spans_ms("node.", "net_queue")]))
    run.put("cluster.shard_skew_ms", median([max(v) - min(v) for v in rpc]))
    shard_evals = sum(
        int(node.get("counts", {}).get("distance_evals", 0))
        for tree in trees for node in tree.get("nodes", {}).values()
    )
    run.put("cluster.extra_solves_ratio", shard_evals / max(1, single_evals))
    run.put("rank.exact_evals", shard_evals / max(1, done))
    run.put("engine.query_ms", median([np.mean(v) for v in spans_ms("node.", "engine")]))
    run.put("obs.trace_overhead_pct", 100.0 * (traced_ms.mean() - wire_ms.mean()) / wire_ms.mean())
    # Cache-ratio pass: a fixed number of requests, so the ratio repeats
    # exactly for a seed.
    before = (_reading("cluster.cache.hits"), _reading("cluster.cache.misses"))
    requests = _cluster_requests(rng, deck.deal(CLUSTER_CACHE_PASS))
    worker = _wire_worker(system.client, oracle, seen={})
    for oid in requests:
        run.check(worker(oid))
    hits = _reading("cluster.cache.hits") - before[0]
    misses = _reading("cluster.cache.misses") - before[1]
    run.put("cluster.cache_hit_ratio", hits / max(1.0, hits + misses), samples=len(requests))


# ----------------------------------------------------------------------
# ingest_churn: writes beside reads on the durable path
# ----------------------------------------------------------------------
def ingest_churn(run: Run) -> None:
    sizes = run.sizes
    writes = int(sizes.churn_writes_per_second * run.seconds)
    rng = run.rng(2)
    inserts = rng.random(writes) < CHURN_INSERT_SHARE
    started = time.perf_counter()
    signatures = corpus.image_corpus(sizes.churn_preload + int(inserts.sum()), run.seed)
    run.put("loadgen.corpus_gen_s", time.perf_counter() - started)
    preload = signatures[:sizes.churn_preload]
    spec = image_spec()

    def use(durable: DurableSystem, oracle, _deck, last: bool) -> None:
        # One churn, on the last system: compactions and checkpoints
        # depend on how much has been written to *this* store.
        if last:
            _ask_oracle(run, durable, oracle)
            _churn(run, durable, signatures, inserts, rng)

    _over_setups(
        run, len(preload), lambda first: DurableSystem(spec, preload, first),
        lambda durable: durable.system.engine, sizes.setups, use,
    )


def _churn(run: Run, durable: DurableSystem, signatures, inserts, rng) -> None:
    rec = run.recorder
    rec.enabled = run.trace
    system = durable.system
    engine = system.engine
    stalls = SpanRecorder()
    stalls.wrap(system.store, "checkpoint", "kvstore.checkpoint")
    if run.trace:
        rec.wrap(engine.sketcher, "sketch_many", "sketch")
        rec.wrap(engine._store, "add_object", "arena.add")
        rec.wrap(engine._store, "remove_object", "arena.remove")
        rec.wrap(system.metadata, "put_object", "metadata.put")
        rec.wrap(system.metadata, "delete_object", "metadata.delete")
    counters = (
        "wal.appends", "wal.fsyncs", "wal.fsync_seconds", "store.checkpoints",
        "arena.compactions", "arena.compaction_seconds", "arena.delta_loads",
        "parallel.arena_loads",
    )
    before = {name: _reading(name) for name in counters}
    cache_before = engine.parallel_info()["cache"]

    preload = len(engine)
    live = list(range(preload))
    model = set(live)
    removed = set()
    next_signature = preload
    write_seconds: List[float] = []
    traced_write: List[bool] = []
    query_seconds: List[float] = []
    wal_bytes = 0
    traced_rows = 0
    for i, is_insert in enumerate(inserts):
        try:
            if is_insert:
                signature = signatures[next_signature]
                next_signature += 1
                wal_before = system.store.wal_size
                started = time.perf_counter()
                with rec.span("write.insert", signature.object_id):
                    system.insert(signature)
                elapsed = time.perf_counter() - started
                wal_bytes += max(0, system.store.wal_size - wal_before)
                traced_rows += signature.num_segments * rec.enabled
                live.append(signature.object_id)
                model.add(signature.object_id)
            else:
                slot = int(rng.integers(len(live)))
                live[slot], live[-1] = live[-1], live[slot]
                oid = live.pop()
                started = time.perf_counter()
                with rec.span("write.remove", oid):
                    engine.remove(oid)
                elapsed = time.perf_counter() - started
                model.discard(oid)
                removed.add(oid)
            write_seconds.append(elapsed)
            traced_write.append(rec.enabled)
            run.check(True)
        except Exception:  # a write that raises is a failed operation
            run.check(False)
        if (i + 1) % CHURN_QUERY_EVERY == 0:
            oid = live[int(rng.integers(len(live)))]
            started = time.perf_counter()
            try:
                answer = durable.ask(oid)
            except Exception:
                answer = []
            query_seconds.append(time.perf_counter() - started)
            run.check(
                well_formed(answer, oid) and all(hit in model for hit, _ in answer)
            )
            # Alternate traced and untraced blocks: their write medians
            # give the tracing overhead within one run.
            rec.enabled = run.trace and not rec.enabled
    rec.enabled = False
    arena = engine.compaction_info()
    delta = {name: _reading(name) - before[name] for name in counters}
    cache_hit_ratio = _cache_hit_ratio(engine, cache_before)
    n_inserts = next_signature - preload

    def verify(pre_close: Dict[int, Answer]) -> None:
        reopened = durable.system.engine
        run.check(
            len(reopened) == len(model)
            and all(oid in reopened for oid in model)
            and not any(oid in reopened for oid in removed)
        )
        for oid, answer in pre_close.items():
            run.check(answers_match(durable.ask(oid), answer))

    sample = [live[int(j)] for j in rng.choice(len(live), min(run.sizes.oracle_queries, len(live)), replace=False)]
    pre_close = {oid: durable.ask(oid) for oid in sample}

    if not run.trace:
        total = float(np.sum(write_seconds))
        run.put("ops_per_s", len(write_seconds) / total, samples=len(write_seconds))
        run.put("query_p50_ms", float(np.percentile(query_seconds, 50)) * 1000.0, samples=len(query_seconds))
        run.put("query_p90_ms", float(np.percentile(query_seconds, 90)) * 1000.0, samples=len(query_seconds))
        durable.reopen()
        verify(pre_close)
        run.put("peak_rss_mb", _peak_rss_mb())
        return

    # Crash-like close (WAL tail kept): this open has transactions to
    # replay.  KVStore alone, so the time is recovery and nothing else.
    engine.close()
    system.store.close(checkpoint=False)
    started = time.perf_counter()
    store = KVStore(durable.directory)
    replay_seconds = time.perf_counter() - started
    replayed = store.last_recovery.transactions_replayed
    store.close()
    started = time.perf_counter()
    KVStore(durable.directory).close()
    store_open_seconds = time.perf_counter() - started
    durable.system = durable.open()
    verify(pre_close)
    reopen_seconds = []
    for _ in range(CHURN_REOPENS):
        started = time.perf_counter()
        durable.reopen()
        durable.ask(sample[0])
        reopen_seconds.append(time.perf_counter() - started)
        verify(pre_close)
    durable.system.checkpoint()

    writes = np.array(write_seconds)
    traced = np.array(traced_write)
    run.put("storage.reopen_s", median(reopen_seconds), samples=len(reopen_seconds))
    run.put("storage.bytes_per_object", durable.directory_bytes() / len(model))
    run.put("recovery.replay_txns_per_s", replayed / replay_seconds, samples=replayed)
    run.put("metadata.load_s", max(0.0, median(reopen_seconds) - store_open_seconds))
    run.put("storage.write_p99_ms", float(np.percentile(writes, 99)) * 1000.0, samples=len(writes))
    run.put("engine.query_ms", median(query_seconds) * 1000.0, samples=len(query_seconds))
    run.put("sketch.rows_per_s", traced_rows / max(1e-9, rec.total("sketch")))
    run.put("arena.add_us", median(rec.durations("arena.add")) * 1e6)
    run.put("arena.remove_us", median(rec.durations("arena.remove")) * 1e6)
    run.put("arena.compactions", delta["arena.compactions"])
    run.put("arena.compaction_ms", delta["arena.compaction_seconds"] * 1000.0)
    run.put("arena.dead_row_ratio", arena["dead_rows"] / max(1, arena["rows"]))
    run.put("metadata.put_us", median(rec.durations("metadata.put")) * 1e6)
    encode = []
    for signature in signatures[preload:preload + 200]:
        sketches = engine.sketcher.sketch_many(signature.features)
        started = time.perf_counter()
        encode_object(signature)
        encode_sketches(sketches)
        encode.append(time.perf_counter() - started)
    run.put("metadata.encode_us", median(encode) * 1e6, samples=len(encode))
    write_total = rec.total("write.insert") + rec.total("write.remove")
    run.put(
        "storage.write_share_pct",
        100.0 * (rec.total("metadata.put") + rec.total("metadata.delete")) / max(1e-9, write_total),
    )
    run.put("wal.appends_per_write", delta["wal.appends"] / max(1, len(writes)))
    run.put("wal.fsyncs", delta["wal.fsyncs"])
    run.put("wal.fsync_ms_total", delta["wal.fsync_seconds"] * 1000.0)
    run.put("wal.bytes_per_object", wal_bytes / max(1, n_inserts))
    run.put("kvstore.checkpoints", delta["store.checkpoints"])
    run.put("kvstore.checkpoint_ms_max", max(stalls.durations("kvstore.checkpoint"), default=0.0) * 1000.0)
    run.put("pool.delta_loads", delta["arena.delta_loads"])
    run.put("pool.full_loads", delta["parallel.arena_loads"])
    run.put("engine.cache_hit_ratio", cache_hit_ratio)
    if traced.any() and (~traced).any():
        run.put(
            "obs.trace_overhead_pct",
            100.0 * (median(writes[traced]) - median(writes[~traced])) / median(writes[~traced]),
        )


WORKLOADS: Dict[str, Callable[[Run], None]] = {
    "image_query": image_query,
    "shape_query": shape_query,
    "ingest_churn": ingest_churn,
    "cluster_query": cluster_query,
}

PYTHON ?= python
export PYTHONPATH := $(CURDIR)/src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test smoke e2e-smoke metrics-smoke rank-smoke ingest-smoke cluster-smoke cluster-obs-smoke perf torture bench bench-throughput bench-check bench-recovery bench-cluster-obs

# Tier-1 verification: the full fast suite (torture scans stay opt-in).
test:
	$(PYTHON) -m pytest -x -q

# CI smoke: tier-1 plus the explicit filter equivalence gates: every
# two-thread scan split test (split vs the whole scan and the
# reference), and the perf-marked sketch multi-index tests vs the
# reference full scan (its stateful differential test, split on and
# off), candidate sets identical.
smoke: test
	$(PYTHON) -m pytest -q tests/core/test_parallel.py
	$(PYTHON) -m pytest -q -m perf tests/core/test_sketch_index.py tests/core/test_perf_smoke.py

# End-to-end benchmark smoke: every workload of benchmarks/e2e/run.py
# on tiny corpora, traced and untraced, answers checked (~50 s).
e2e-smoke:
	$(PYTHON) -m pytest -q benchmarks/e2e/test_smoke.py

# Observability smoke: metrics/tracing/log unit tests, the narrowed
# exception-handler regressions, the cache epoch-race interleavings, and
# the client<->server metrics + trace round-trip.
metrics-smoke:
	$(PYTHON) -m pytest -q tests/observability tests/core/test_cache_epoch_race.py tests/server/test_observability_integration.py

# Ranking-cascade smoke: the rank-equivalence / lower-bound property
# tests, the solver and top-k selection bit-identity references, the
# engine against the naive serial-EMD oracle, plus
# the throughput bench in quick mode, which exercises the
# cascade end-to-end (identity vs the exact EMD path) and writes the
# phase-split JSON to BENCH_query_throughput_quick.json for CI upload.
rank-smoke:
	$(PYTHON) -m pytest -q tests/core/test_rank_cascade.py tests/core/test_ranking.py tests/core/test_emd.py tests/core/test_transport.py tests/core/test_filtering.py tests/core/test_engine_reference.py
	cd benchmarks && FERRET_BENCH_SCALE=quick $(PYTHON) bench_query_throughput.py

# Bulk-ingest smoke: insert_many equals a loop of insert (ids, arena,
# answers) with pages and sketch blocks split small, sketch temporaries
# stay bounded, a failed batch leaves no trace, and the arena and the
# paged reload keep their contracts; the durable write path (one WAL
# frame per commit, one object row with its sketch trailer, older
# layouts refused) replays and reloads what it wrote.
ingest-smoke:
	$(PYTHON) -m pytest -q tests/core/test_bulk_insert.py tests/datatypes/test_demo_engines.py::test_bulk_build_matches_per_object_build \
		tests/core/test_engine_atomicity.py tests/core/test_arena.py tests/integration/test_persistence.py \
		tests/storage/test_wal.py tests/storage/test_recovery.py tests/storage/test_kvstore.py tests/metadata/test_manager.py

# Cluster smoke: real backend subprocesses under the coordinator.  The
# smoke test kills one backend at R=1 (PARTIAL answer, exactly the dead
# shard missing) and restarts it (full answers again after the prober
# re-admits it); the node-fault drills add the R=2 kill/hang/restart
# invariants and the acked-insert visibility oracle; the plan tests pin
# one call per covering backend, the seed-routing tests pin the seed by
# id to its hosts and one signature fetch for the rest, and the
# exact-seed test pins R=B answers to the single engine's printed digits;
# the supervisor tests pin that every backend is spawned before the first
# READY is awaited and that a failed bring-up leaves no child alive.
cluster-smoke:
	$(PYTHON) -m pytest -q tests/cluster/test_cluster_smoke.py tests/cluster/test_node_faults.py tests/cluster/test_supervisor.py \
		tests/cluster/test_coordinator.py::TestPlan tests/cluster/test_coordinator.py::TestSeedRouting \
		tests/cluster/test_coordinator.py::TestExactSeed

# Telemetry-plane smoke: a traced query stitched across a real
# subprocess fleet (engine spans from every contacted node), PARTIAL
# traces naming missing shards, the SIGKILL -> breaker-open -> failover
# -> re-admission sequence asserted in the event journal, federation
# with a node down, plus the trace-context/event-journal unit tests.
cluster-obs-smoke:
	$(PYTHON) -m pytest -q tests/cluster/test_telemetry.py tests/observability/test_context.py tests/observability/test_events.py

# Cluster tracing overhead gate: traced vs untraced scatter/gather
# through a real in-process cluster must differ by <5% (and the
# stitched trace must cover every shard, federation every node).
bench-cluster-obs:
	cd benchmarks && $(PYTHON) bench_cluster_obs.py
	$(PYTHON) benchmarks/check_regression.py --cluster-obs BENCH_cluster_obs.json

# Crash-recovery gate: measure WAL replay throughput and hold it to the
# absolute floor in check_regression.py (RECOVERY_FLOOR_KEYS).
bench-recovery:
	cd benchmarks && $(PYTHON) bench_recovery.py
	$(PYTHON) benchmarks/check_regression.py --recovery BENCH_recovery.json

perf:
	$(PYTHON) -m pytest -q -m perf

torture:
	$(PYTHON) -m pytest -q -m torture

bench-throughput:
	cd benchmarks && $(PYTHON) bench_query_throughput.py

# Throughput regression gate: stash the committed baseline JSON (the
# bench overwrites BENCH_query_throughput.json at the repo root), rerun
# the bench, and fail on a >15% qps drop in any compared series.
bench-check:
	cp BENCH_query_throughput.json /tmp/BENCH_query_throughput.baseline.json
	cd benchmarks && $(PYTHON) bench_query_throughput.py
	$(PYTHON) benchmarks/check_regression.py \
		/tmp/BENCH_query_throughput.baseline.json BENCH_query_throughput.json

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

"""Smoke test of the end-to-end benchmark (run explicitly, not tier-1):

    python3 -m pytest -q benchmarks/e2e/test_smoke.py

A ``--quick`` pass over every workload, traced and untraced, checked
against BENCHMARK.json; plus the failure accounting and the clean-up
guarantees that a timing run cannot show.
"""

from __future__ import annotations

import json
import os
import re
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import loadgen  # noqa: E402
import run as runner  # noqa: E402
import systems  # noqa: E402
import workloads  # noqa: E402

CONTRACT = runner.load_contract()
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: Layer metrics that must be non-zero on a workload, i.e. the layers
#: the workload exists to exercise really were measured.
MUST_MOVE = {
    "image_query": ["rank.rank_ms", "rank.exact_evals", "filter.scan_ms",
                    "server.wire_ms", "engine.query_ms", "loadgen.qps_c2",
                    "loadgen.open4_p90_ms"],
    "shape_query": ["filter.scan_ms", "rank.rank_ms", "engine.query_ms",
                    "server.reply_bytes", "loadgen.qps_c2"],
    "ingest_churn": ["wal.appends_per_write", "wal.fsyncs", "metadata.put_us",
                     "arena.add_us", "storage.reopen_s", "storage.bytes_per_object",
                     "storage.write_share_pct", "recovery.replay_txns_per_s"],
    "cluster_query": ["cluster.scatter_ms", "cluster.rpc_ms", "cluster.cache_hit_ratio",
                      "cluster.extra_solves_ratio"],
}
#: Storage and metadata layers must be absent from the read workloads.
STORAGE_ONLY = ["wal.fsyncs", "metadata.put_us", "kvstore.checkpoints", "storage.reopen_s"]


def quick(workload: str, trace: int) -> tuple:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--quick", "--seconds", "1", "--seed", "3", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def test_contract_is_well_formed():
    names = [m["name"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]] + WORKLOADS
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert "setup_s" in [m["name"] for m in CONTRACT["end_to_end"]]
    assert all(0 < m["bound"] <= 0.25 for m in CONTRACT["end_to_end"])
    assert CONTRACT["paths"] == ["benchmarks/e2e"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_untraced_emits_every_end_to_end_metric(workload):
    table, result = quick(workload, 0)
    declared = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == list(declared)
    for name, unit in declared.items():
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
        assert sum(line.split()[0] == name for line in table) == 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_traced_emits_every_layer_metric(workload):
    table, result = quick(workload, 1)
    declared = [m["name"] for m in CONTRACT["per_layer"]]
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == declared
    values = {name: m["value"] for name, m in result["metrics"].items()}
    for name in MUST_MOVE[workload]:
        assert values[name] != 0, name
    if workload != "ingest_churn":
        assert all(values[name] == 0 for name in STORAGE_ONLY)
    for line in table[1:]:
        name, _value, unit = line.split()[:3]
        assert NAME.match(name) and unit


def test_layer_budget_adds_up():
    # Each part is the median of its own call, so the parts and the
    # whole disagree by the run-to-run noise of a 40 ms query at most.
    _table, result = quick("image_query", 1)
    assert abs(result["metrics"]["budget.unattributed_pct"]["value"]) < 30.0


def _tiny_server():
    import corpus

    signatures = corpus.image_corpus(120, seed=5)
    return systems.ServerSystem(systems.image_spec(), signatures, first_query=0)


def test_corrupted_reply_raises_failed_count():
    system = _tiny_server()
    try:
        oracle = systems.reference_answers(system.engine, [7])

        class Corrupting:
            last_partial_shards = ()

            def query(self, object_id, top):
                answer = system.client.query(object_id, top=top)
                if object_id == 7:
                    answer[0] = (answer[0][0], answer[0][1] + 1.0)
                return answer

        worker = workloads._wire_worker(Corrupting(), oracle)
        phase = loadgen.closed_loop([worker], 5.0, [3, 7, 9])
        assert phase.attempted == 3 and phase.failed == 1
        # Without an oracle entry the malformed (unsorted) answer is
        # still caught; an exception is a failure too, not a crash.
        assert not workloads._wire_worker(Corrupting(), {})(7)
        assert loadgen.closed_loop([lambda _r: 1 / 0], 1.0, [1, 2]).failed == 2
    finally:
        system.close()


def test_load_generator_stays_within_nproc():
    too_many = [lambda _r: True] * (loadgen.MAX_CLIENTS + 1)
    with pytest.raises(ValueError):
        loadgen.closed_loop(too_many, 0.1, [1])


def test_nothing_outlives_a_run():
    threads_before = threading.active_count()
    ports = []
    real_serve = systems._serve

    def recording_serve(processor):
        server, thread = real_serve(processor)
        ports.append(server.server_address[1])
        return server, thread

    systems._serve = recording_serve
    try:
        for name in ("cluster_query", "ingest_churn"):
            run = workloads.Run(seed=2, seconds=1.0, trace=False, sizes=workloads.QUICK)
            workloads.WORKLOADS[name](run)
            assert run.failed == 0
    finally:
        systems._serve = real_serve
    deadline = time.monotonic() + 5.0
    while threading.active_count() > threads_before and time.monotonic() < deadline:
        time.sleep(0.05)  # handler threads notice their closed sockets
    assert threading.active_count() <= threads_before
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)  # every backend was waited for
    assert not systems.WORK_DIR.exists()
    assert ports
    for port in ports:
        with pytest.raises(OSError):
            socket.create_connection(("127.0.0.1", port), timeout=1.0).close()

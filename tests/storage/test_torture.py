"""Crash-recovery torture tests.

The unmarked tests are a fast subset that runs in tier-1: a handful of
crash points, one of each fault kind, and — critically — negative tests
proving the oracle *can* fail (a torture suite whose invariant checker
never fires is worthless).

The ``@pytest.mark.torture`` tests are the exhaustive scans: a crash at
every single write/fsync operation of the workload under several
durability configurations, plus hundreds of seeded random multi-fault
plans.  Opt in with ``pytest -m torture``.
"""

import os
import shutil

import pytest

from repro.faults import (
    Fault,
    FaultKind,
    FaultPlan,
    FaultyFilesystem,
    TortureRunner,
    WorkloadSpec,
)
from repro.faults.torture import InvariantViolation, generate_workload
from repro.storage.kvstore import KVStore

SMALL = WorkloadSpec(num_txns=8, max_ops_per_txn=3, key_space=16)


# ---------------------------------------------------------------------------
# Fast subset (tier-1)
# ---------------------------------------------------------------------------

def test_workload_generation_is_deterministic():
    assert generate_workload(SMALL, seed=11) == generate_workload(SMALL, seed=11)
    assert generate_workload(SMALL, seed=11) != generate_workload(SMALL, seed=12)


def test_fault_free_run_completes_with_all_commits(tmp_path):
    runner = TortureRunner(SMALL)
    result = runner.run_plan(str(tmp_path / "case"), FaultPlan(), seed=1)
    assert result.outcome == "completed"
    assert result.committed == SMALL.num_txns
    assert result.matched_prefix == SMALL.num_txns
    assert not result.fault_triggered


def test_crash_mid_workload_recovers_a_prefix(tmp_path):
    runner = TortureRunner(SMALL)
    total = runner.profile(str(tmp_path / "profile"), seed=2)
    assert total > 10
    result = runner.run_plan(
        str(tmp_path / "case"), FaultPlan.crash_at(total // 2), seed=2
    )
    assert result.outcome == "recovered"
    assert result.crashed and result.fault_triggered
    assert 0 <= result.matched_prefix <= SMALL.num_txns
    assert result.matched_prefix >= result.durable_floor


def test_transient_enospc_rolls_back_and_continues(tmp_path):
    runner = TortureRunner(SMALL)
    result = runner.run_plan(str(tmp_path / "case"), FaultPlan.error_at(7), seed=3)
    # A transient write error aborts one transaction (WAL rolled back)
    # but the workload — and recovery — carry on.
    assert result.outcome == "completed"
    assert result.fault_triggered
    assert result.matched_prefix == result.committed


def test_bitflip_never_yields_a_silently_wrong_answer(tmp_path):
    runner = TortureRunner(SMALL)
    for op in (5, 15, 25):
        result = runner.run_plan(
            str(tmp_path / f"case{op}"), FaultPlan.bitflip_at(op, bit_index=13), seed=4
        )
        # Either the CRC caught it, or the flipped record was already
        # superseded and the state still matches a committed prefix.
        assert result.outcome in ("detected_corruption", "completed", "recovered")


def test_dropped_fsync_then_crash_respects_relaxed_floor(tmp_path):
    runner = TortureRunner(SMALL)
    total = runner.profile(str(tmp_path / "profile"), seed=5)
    plan = FaultPlan.drop_fsync_from(total // 3)
    plan.add(Fault(FaultKind.CRASH, (2 * total) // 3))
    result = runner.run_plan(str(tmp_path / "case"), plan, seed=5)
    assert result.outcome == "recovered"
    # Commits after the fsyncs stopped were never promised durable.
    assert result.matched_prefix >= result.durable_floor


def test_small_crash_scan_both_power_loss_modes(tmp_path):
    runner = TortureRunner(SMALL)
    for lose in (False, True):
        results = runner.crash_scan(
            str(tmp_path / f"lose{lose}"), seed=6, stride=7, lose_unsynced=lose
        )
        assert results
        assert all(r.outcome in ("recovered", "completed") for r in results)


# -- negative tests: the oracle must be able to fire ------------------------

def test_oracle_rejects_state_matching_no_prefix(tmp_path):
    runner = TortureRunner(SMALL)
    fs = FaultyFilesystem(FaultPlan())
    trace = runner._run_workload(str(tmp_path), fs, seed=7)
    assert trace.committed_txns
    # Sabotage: sneak in a key the workload never wrote.
    with KVStore(str(tmp_path), auto_checkpoint_ops=0) as store:
        txn = store.begin()
        txn.put("alpha", b"rogue-key", b"rogue-value")
        txn.commit()
    with pytest.raises(InvariantViolation):
        runner._verify(str(tmp_path), 7, trace, floor=0)


def test_oracle_rejects_lost_durable_commits(tmp_path):
    runner = TortureRunner(SMALL)
    fs = FaultyFilesystem(FaultPlan())
    trace = runner._run_workload(str(tmp_path), fs, seed=8)
    floor = runner._durable_floor(fs, trace)
    assert floor == len(trace.committed_txns)  # commit-synced policy
    # Sabotage: empty every WAL segment — the committed tail vanishes
    # even though the store promised it (fsyncs really happened).
    for name in os.listdir(tmp_path):
        if name.startswith("wal."):
            with open(os.path.join(tmp_path, name), "wb"):
                pass
    with pytest.raises(InvariantViolation):
        runner._verify(str(tmp_path), 8, trace, floor)


# ---------------------------------------------------------------------------
# Exhaustive scans (opt-in: pytest -m torture)
# ---------------------------------------------------------------------------

# One WAL write per commit: the workloads are long enough that each
# exhaustive scan still covers at least 200 crash points.
TORTURE_SPEC = WorkloadSpec(
    num_txns=56,
    max_ops_per_txn=4,
    key_space=32,
    sync_policy="commit",
)
BATCH_SPEC = WorkloadSpec(
    num_txns=48,
    max_ops_per_txn=4,
    key_space=32,
    sync_policy="batch",
    sync_batch=4,
    checkpoint_every=6,
)


@pytest.mark.torture
def test_torture_crash_at_every_op(tmp_path):
    """Simulated power loss at every single I/O operation."""
    runner = TortureRunner(TORTURE_SPEC)
    scenarios = 0
    for lose in (False, True):
        results = runner.crash_scan(
            str(tmp_path / f"lose{lose}"), seed=42, stride=1, lose_unsynced=lose
        )
        scenarios += len(results)
        bad = [r for r in results if r.outcome not in ("recovered", "completed")]
        assert not bad, bad
    assert scenarios >= 200


@pytest.mark.torture
def test_torture_crash_scan_with_checkpoints_and_batch_sync(tmp_path):
    """The relaxed-durability configuration: batch fsync + checkpoints."""
    runner = TortureRunner(BATCH_SPEC)
    scenarios = 0
    for lose in (False, True):
        results = runner.crash_scan(
            str(tmp_path / f"lose{lose}"), seed=43, stride=1, lose_unsynced=lose
        )
        scenarios += len(results)
        assert all(r.outcome in ("recovered", "completed") for r in results)
    assert scenarios >= 200


@pytest.mark.torture
def test_torture_torn_write_sweep(tmp_path):
    runner = TortureRunner(TORTURE_SPEC)
    total = runner.profile(str(tmp_path / "profile"), seed=44)
    for op in range(0, total, 2):
        result = runner.run_plan(
            str(tmp_path / "case"),
            FaultPlan.torn_write_at(op, keep_fraction=0.3),
            seed=44,
        )
        assert result.outcome in ("recovered", "completed", "detected_corruption")
        shutil.rmtree(str(tmp_path / "case"), ignore_errors=True)


@pytest.mark.torture
def test_torture_random_multi_fault_plans(tmp_path):
    """Seeded random plans mixing all five fault kinds."""
    runner = TortureRunner(TORTURE_SPEC)
    results = runner.random_scan(
        str(tmp_path),
        workload_seed=45,
        plan_seeds=list(range(120)),
        n_faults=2,
    )
    assert len(results) == 120
    assert all(
        r.outcome in ("recovered", "completed", "detected_corruption")
        for r in results
    )
    # The plans must actually be biting, not all missing the workload.
    assert sum(1 for r in results if r.fault_triggered) > len(results) // 2

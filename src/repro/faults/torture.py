"""Crash-recovery torture driver.

Runs a deterministic, seeded transaction workload against a
:class:`~repro.storage.kvstore.KVStore` whose I/O goes through a
:class:`~repro.faults.fs.FaultyFilesystem`, lets the fault plan kill it
(simulated power loss, torn write, bit-flip, I/O error), then reopens
the store on the *real* filesystem, runs recovery, and checks the
recovery invariant:

    The recovered state equals the state after some prefix of the
    acknowledged-commit sequence — optionally extended by the single
    transaction whose commit was in flight when the crash hit (its
    record may have reached the log even though the call never
    returned).  Atomicity: no transaction is ever half-visible; no
    aborted or unlogged operation is ever visible.  Durability: the
    matched prefix covers at least every transaction the store
    *promised* to keep (a successful WAL fsync or checkpoint after it).

For plans that injected *silent media corruption* (torn writes,
bit-flips), the durability floor is waived — no storage system promises
durability through silent corruption — but the prefix property still
must hold, or the corruption must be *detected*
(:class:`~repro.storage.errors.CorruptionError`), never a silently
wrong answer.

Entry points:

- :meth:`TortureRunner.run_plan` — one scenario under one plan.
- :meth:`TortureRunner.crash_scan` — enumerate every write/fsync
  operation of the workload as a crash point (exhaustive mode).
- :meth:`TortureRunner.random_scan` — seeded random plans mixing all
  fault kinds.
"""

from __future__ import annotations

import os
import random
import shutil
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..storage.errors import CorruptionError, StorageError
from ..storage.kvstore import KVStore
from ..storage.recovery import RecoveryReport
from .fs import FaultyFilesystem
from .oracle import (
    InvariantViolation,
    Op,
    check_durable_floor,
    match_prefix,
)
from .plan import FaultKind, FaultPlan, SimulatedCrash

__all__ = [
    "WorkloadSpec",
    "WorkloadTrace",
    "TortureResult",
    "TortureRunner",
    "InvariantViolation",
    "generate_workload",
]


@dataclass(frozen=True)
class WorkloadSpec:
    """Shape of the randomized transaction workload (all seeded)."""

    num_txns: int = 24
    max_ops_per_txn: int = 4
    key_space: int = 32
    value_size: int = 24
    delete_fraction: float = 0.25
    trees: Tuple[str, ...] = ("alpha", "beta")
    sync_policy: str = "commit"
    sync_batch: int = 4
    #: Checkpoint after every N commits (0 = never during the workload).
    checkpoint_every: int = 0
    page_size: int = 4096


def generate_workload(spec: WorkloadSpec, seed: int) -> List[List[Op]]:
    """The seeded transaction list: ``txns[i]`` is a list of ops."""
    rng = random.Random(seed)
    txns: List[List[Op]] = []
    for _ in range(spec.num_txns):
        ops: List[Op] = []
        for _ in range(rng.randint(1, spec.max_ops_per_txn)):
            tree = rng.choice(spec.trees)
            key = f"k{rng.randrange(spec.key_space):04d}".encode()
            if rng.random() < spec.delete_fraction:
                ops.append((tree, key, None))
            else:
                value = bytes(rng.getrandbits(8) for _ in range(spec.value_size))
                ops.append((tree, key, value))
        txns.append(ops)
    return txns


@dataclass
class WorkloadTrace:
    """What the workload managed to do before the plan ended it."""

    #: Transaction indices whose ``commit()`` returned, in commit order.
    committed_txns: List[int] = field(default_factory=list)
    #: Transaction whose commit was in flight when the crash hit, if any.
    in_flight: Optional[int] = None
    #: Filesystem op counter right after each acknowledged commit.
    commit_marks: List[int] = field(default_factory=list)
    #: ``(op_counter, commits_covered)`` per successful checkpoint.
    checkpoint_marks: List[Tuple[int, int]] = field(default_factory=list)
    crashed: bool = False


@dataclass
class TortureResult:
    """Outcome of one torture scenario."""

    outcome: str  # "recovered" | "detected_corruption" | "completed"
    committed: int  # transactions whose commit() returned
    matched_prefix: int = -1  # which prefix the recovered state equals
    durable_floor: int = 0  # commits the store promised to keep
    fault_triggered: bool = False
    crashed: bool = False
    report: Optional[RecoveryReport] = None
    detail: str = ""


class TortureRunner:
    """Drives seeded workloads through fault plans and verifies recovery."""

    def __init__(self, spec: Optional[WorkloadSpec] = None) -> None:
        self.spec = spec if spec is not None else WorkloadSpec()

    # ------------------------------------------------------------------
    # Workload execution
    # ------------------------------------------------------------------
    def _run_workload(
        self, directory: str, fs: FaultyFilesystem, seed: int
    ) -> WorkloadTrace:
        """Run the workload until completion or until a fault ends it."""
        spec = self.spec
        txns = generate_workload(spec, seed)
        trace = WorkloadTrace()
        current: Optional[int] = None
        try:
            store = KVStore(
                directory,
                page_size=spec.page_size,
                sync_policy=spec.sync_policy,
                sync_batch=spec.sync_batch,
                auto_checkpoint_ops=0,
                fs=fs,
            )
            for index, ops in enumerate(txns):
                current = index
                try:
                    txn = store.begin()
                    for tree, key, value in ops:
                        if value is None:
                            txn.delete(tree, key)
                        else:
                            txn.put(tree, key, value)
                    txn.commit()
                except OSError:
                    # Injected transient I/O error: the WAL rolled the
                    # partial transaction back; the workload carries on.
                    current = None
                    continue
                except StorageError:
                    # Store latched into failed/read-only state — stop
                    # writing, treat the rest as a graceful shutdown.
                    current = None
                    break
                current = None
                trace.committed_txns.append(index)
                trace.commit_marks.append(fs.op_count)
                if (
                    spec.checkpoint_every
                    and len(trace.committed_txns) % spec.checkpoint_every == 0
                ):
                    try:
                        store.checkpoint()
                        trace.checkpoint_marks.append(
                            (fs.op_count, len(trace.committed_txns))
                        )
                    except (OSError, StorageError):
                        break
            # Clean completion: close without checkpointing so the WAL
            # (not the page file) carries the tail — the harder path.
            try:
                store.close(checkpoint=False)
            except (OSError, StorageError):
                pass
        except (OSError, StorageError):
            # Fault during store construction: it never opened.
            pass
        except SimulatedCrash:
            trace.crashed = True
            trace.in_flight = current
        finally:
            fs.simulate_power_loss()
        return trace

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------
    def _durable_floor(self, fs: FaultyFilesystem, trace: WorkloadTrace) -> int:
        """How many leading commits the store *promised* to keep.

        Silent-corruption faults (torn writes, bit-flips) void the
        promise entirely; otherwise a commit is durable if the plan
        never loses unsynced data, if a real WAL fsync happened at or
        after its last write, or if a checkpoint covered it.
        """
        damaged = any(
            f.kind in (FaultKind.TORN, FaultKind.BITFLIP)
            for f in fs.plan.triggered
        )
        if damaged:
            return 0
        floor = 0
        wal_fsyncs = [
            op
            for op, path in fs.fsync_log
            if os.path.basename(path).startswith("wal.")
        ]
        last_wal_fsync = max(wal_fsyncs) if wal_fsyncs else -1
        for index, mark in enumerate(trace.commit_marks):
            # ``mark`` is the op counter right after the commit, so its
            # writes all have op < mark; an fsync at op >= mark - 1
            # (its own commit fsync, or any later one) covers them.
            if not fs.plan.lose_unsynced or last_wal_fsync >= mark - 1:
                floor = index + 1
        for _op, covered in trace.checkpoint_marks:
            floor = max(floor, covered)
        return floor

    def _verify(
        self, directory: str, seed: int, trace: WorkloadTrace, floor: int
    ) -> Tuple[int, Optional[RecoveryReport]]:
        """Reopen on the real filesystem and match a committed prefix.

        The actual judgement lives in :mod:`repro.faults.oracle` so the
        node-kill drills apply the identical prefix + durability rule.
        """
        txns = generate_workload(self.spec, seed)
        with KVStore(directory, auto_checkpoint_ops=0) as store:
            report = store.last_recovery
            recovered: Dict[str, Dict[bytes, bytes]] = {
                tree: dict(store.items(tree)) for tree in store.tree_names()
            }
        matched = match_prefix(
            recovered, txns, trace.committed_txns, in_flight=trace.in_flight
        )
        check_durable_floor(matched, floor)
        return matched, report

    # ------------------------------------------------------------------
    # Scenarios
    # ------------------------------------------------------------------
    def run_plan(self, directory: str, plan: FaultPlan, seed: int) -> TortureResult:
        """One scenario: workload under ``plan``, power loss, recovery."""
        os.makedirs(directory, exist_ok=True)
        fs = FaultyFilesystem(plan)
        trace = self._run_workload(directory, fs, seed)
        floor = self._durable_floor(fs, trace)
        damaged = any(
            f.kind in (FaultKind.TORN, FaultKind.BITFLIP) for f in plan.triggered
        )
        try:
            matched, report = self._verify(directory, seed, trace, floor)
        except (CorruptionError, StorageError) as exc:
            if not damaged:
                raise InvariantViolation(
                    f"recovery failed without injected corruption: {exc}"
                ) from exc
            return TortureResult(
                outcome="detected_corruption",
                committed=len(trace.committed_txns),
                fault_triggered=bool(plan.triggered),
                crashed=trace.crashed,
                detail=str(exc),
            )
        return TortureResult(
            outcome="recovered" if trace.crashed else "completed",
            committed=len(trace.committed_txns),
            matched_prefix=matched,
            durable_floor=floor,
            fault_triggered=bool(plan.triggered),
            crashed=trace.crashed,
            report=report,
        )

    def profile(self, directory: str, seed: int) -> int:
        """Total I/O ops of a fault-free run (the crash-point universe)."""
        fs = FaultyFilesystem(FaultPlan())
        self._run_workload(directory, fs, seed)
        return fs.op_count

    def crash_scan(
        self,
        base_directory: str,
        seed: int,
        stride: int = 1,
        lose_unsynced: bool = False,
        keep_dirs: bool = False,
    ) -> List[TortureResult]:
        """Crash at every ``stride``-th write/fsync op of the workload."""
        total = self.profile(os.path.join(base_directory, "profile"), seed)
        results = []
        for op in range(0, total, max(1, stride)):
            case_dir = os.path.join(base_directory, f"crash{op:05d}")
            plan = FaultPlan.crash_at(op, lose_unsynced=lose_unsynced)
            results.append(self.run_plan(case_dir, plan, seed))
            if not keep_dirs:
                shutil.rmtree(case_dir, ignore_errors=True)
        return results

    def random_scan(
        self,
        base_directory: str,
        workload_seed: int,
        plan_seeds: List[int],
        n_faults: int = 2,
        keep_dirs: bool = False,
    ) -> List[TortureResult]:
        """Seeded random plans mixing crashes, torn writes, bit-flips,
        dropped fsyncs, and I/O errors."""
        total = self.profile(
            os.path.join(base_directory, "profile"), workload_seed
        )
        results = []
        for plan_seed in plan_seeds:
            case_dir = os.path.join(base_directory, f"rand{plan_seed:05d}")
            plan = FaultPlan.random(plan_seed, total, n_faults=n_faults)
            results.append(self.run_plan(case_dir, plan, workload_seed))
            if not keep_dirs:
                shutil.rmtree(case_dir, ignore_errors=True)
        return results

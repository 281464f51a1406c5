"""One end-to-end Ferret benchmark: four workloads, a per-layer budget.

    python3 benchmarks/e2e/run.py [--workload W] [--seed N] [--seconds S]
                                  [--trace 0|1] [--out F] [--quick]
    python3 benchmarks/e2e/run.py --selfcheck

With ``--workload`` it runs that workload in this process and ends with
one JSON line (the contract in BENCHMARK.json); without, it runs every
workload, each in a fresh process so peak RSS is per workload.  Metric
names, units and bounds come from BENCHMARK.json; README.md explains
them.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import warnings
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def run_workload(args: argparse.Namespace, contract: dict) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"run.py: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from repro.server.client import PartialResultWarning

    import workloads

    # A PARTIAL answer is counted as a failed operation by the load
    # generator; the warning would only repeat that on stderr.
    warnings.simplefilter("ignore", PartialResultWarning)
    run = workloads.Run(
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        sizes=workloads.QUICK if args.quick else workloads.FULL,
    )
    workloads.WORKLOADS[args.workload](run)
    if args.out:
        run.recorder.dump(args.out)

    units = {
        m["name"]: m["unit"] for m in contract["end_to_end"] + contract["per_layer"]
    }
    unknown = sorted(set(run.metrics) - set(units))
    if unknown:
        print(f"run.py: metrics not declared in BENCHMARK.json: {unknown}", file=sys.stderr)
        return 2
    wanted = [m["name"] for m in contract["per_layer" if run.trace else "end_to_end"]]
    if not run.trace:
        missing = [name for name in wanted if name not in run.metrics]
        if missing:
            print(f"run.py: {args.workload} did not measure {missing}", file=sys.stderr)
            return 2
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for name in sorted(run.metrics):
        count = f"  n={run.samples[name]}" if name in run.samples else ""
        print(f"{name} {run.metrics[name]:.6g} {units[name]}{count}")
    print(f"failed_frac {run.failed / max(1, run.attempted):.6g} ratio  "
          f"failed={run.failed} attempted={run.attempted}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        # A layer metric the workload has no such layer for reads 0.
        "metrics": {
            name: {"value": run.metrics.get(name, 0.0), "unit": units[name]}
            for name in wanted
        },
    }))
    return 0


def spawn(workload: str, args: argparse.Namespace, trace: int) -> Optional[dict]:
    """One workload in a fresh process; its output passes through and
    its result line comes back parsed (None if it failed)."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(trace),
    ] + (["--quick"] if args.quick else [])
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def run_all(args: argparse.Namespace, contract: dict) -> int:
    results = [
        spawn(w["name"], args, args.trace) for w in contract["workloads"]
    ]
    return 0 if all(r is not None and r["correct"] for r in results) else 1


def selfcheck(args: argparse.Namespace, contract: dict) -> int:
    """A/A noise floor: the suite twice on the same code, workload order
    reversed the second time; every end-to-end metric's relative gap is
    printed beside its bound, and a gap beyond the bound fails."""
    names = [w["name"] for w in contract["workloads"]]
    passes: List[Dict[str, Optional[dict]]] = []
    for order in (names, names[::-1]):
        passes.append({name: spawn(name, args, 0) for name in order})
    status = 0
    print("# selfcheck: workload metric first second gap bound")
    for name in names:
        first, second = passes[0][name], passes[1][name]
        if first is None or second is None or not (first["correct"] and second["correct"]):
            print(f"{name}: a run failed or gave wrong answers")
            status = 1
            continue
        for metric in contract["end_to_end"]:
            a = first["metrics"][metric["name"]]["value"]
            b = second["metrics"][metric["name"]]["value"]
            gap = abs(a - b) / ((a + b) / 2.0)
            verdict = "ok" if gap <= metric["bound"] else "EXCEEDS"
            status |= verdict != "ok"
            print(f"{name} {metric['name']} {a:.6g} {b:.6g} "
                  f"{gap:.2%} {metric['bound']:.0%} {verdict}")
    return status


def main(argv: Optional[List[str]] = None) -> int:
    contract = load_contract()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in contract["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the traced run's spans here as JSON")
    parser.add_argument("--quick", action="store_true",
                        help="tiny corpora, for test_smoke.py only")
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args(argv)
    if args.selfcheck:
        return selfcheck(args, contract)
    if args.workload is None:
        return run_all(args, contract)
    return run_workload(args, contract)


if __name__ == "__main__":
    raise SystemExit(main())

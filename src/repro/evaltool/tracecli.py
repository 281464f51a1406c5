"""Trace and event inspection CLI: the postmortem workflow in one tool.

The performance tool (:mod:`repro.evaltool.benchmark`) answers "how
good/fast is the engine"; this one answers "where did *that* query's
time go, and what happened to the cluster around it".  It connects to a
live server — a single :class:`~repro.server.server.FerretServer` or a
cluster coordinator front end — and can:

- ``query <id>``: run one traced query and pretty-print the resulting
  span tree (against a coordinator: the stitched cross-node tree with
  per-node engine/rpc/net+queue splits and the laggard called out);
- ``trace [<id>]``: render the last (or a stored) trace as a tree;
- ``slow [n]``: dump the slow-query log as trees;
- ``events [n]``: print the event journal (breaker transitions,
  failovers, re-admissions) — the failure timeline.

Usage::

    python -m repro.evaltool.tracecli --port 7879 query 5 --top 8
    python -m repro.evaltool.tracecli --port 7879 events 50
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence, TextIO

from ..observability.context import render_trace_tree
from ..server.client import ClientError, FerretClient

__all__ = ["main", "run"]


def _emit(out: TextIO, lines: List[str]) -> None:
    for line in lines:
        out.write(line + "\n")


def run(client: FerretClient, args: argparse.Namespace, out: TextIO) -> int:
    """Execute one subcommand against ``client``; returns an exit code."""
    if args.command == "query":
        results, tree = client.traced_query(
            args.id, top=args.top, method=args.method
        )
        for object_id, distance in results:
            out.write(f"{object_id} {distance:.6f}\n")
        if tree is None:
            out.write("(no trace piggybacked — is tracing disabled?)\n")
            return 1
        _emit(out, render_trace_tree(tree))
        return 0
    if args.command == "trace":
        _emit(out, client.trace_tree(args.id))
        return 0
    if args.command == "slow":
        line = f"trace slow {args.n} --tree" if args.n else "trace slow --tree"
        _emit(out, client.send(line))
        return 0
    if args.command == "events":
        _emit(out, client.events(args.n))
        return 0
    raise AssertionError(f"unhandled subcommand {args.command!r}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Ferret trace/event inspection tool"
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7878)
    sub = parser.add_subparsers(dest="command", required=True)

    p_query = sub.add_parser("query", help="run a traced query, render tree")
    p_query.add_argument("id", type=int)
    p_query.add_argument("--top", type=int, default=10)
    p_query.add_argument("--method", default="filtering")

    p_trace = sub.add_parser("trace", help="render the last or a stored trace")
    p_trace.add_argument("id", nargs="?", default=None)

    p_slow = sub.add_parser("slow", help="dump the slow-query log as trees")
    p_slow.add_argument("n", nargs="?", type=int, default=None)

    p_events = sub.add_parser("events", help="print the event journal")
    p_events.add_argument("n", nargs="?", type=int, default=None)

    args = parser.parse_args(argv)
    try:
        client = FerretClient(args.host, args.port)
    except OSError as exc:
        print(f"cannot connect to {args.host}:{args.port}: {exc}", file=sys.stderr)
        return 2
    with client:
        try:
            return run(client, args, sys.stdout)
        except ClientError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    raise SystemExit(main())

"""Cluster backend for the ``cluster_query`` workload (subprocess entry).

Builds the image corpus from ``--seed`` with the benchmark's own
generator, keeps the objects this backend hosts under the benchmark's
shard map, serves them, and prints ``READY <port>``.  The stock
``repro.cluster.backend`` cannot be used: it only loads the toy demo
corpora.  Started by :class:`systems.ClusterSystem`, which puts ``src``
and this directory on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse

from repro.cluster.topology import ShardMap
from repro.server.commands import CommandProcessor
from repro.server.server import FerretServer

import corpus
import systems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--index", type=int, required=True)
    parser.add_argument("--objects", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()

    shard_map = ShardMap(
        systems.CLUSTER_SHARDS, systems.CLUSTER_BACKENDS,
        systems.CLUSTER_REPLICATION,
    )
    engine = systems.image_spec().engine()
    engine.insert_many([
        signature
        for signature in corpus.image_corpus(args.objects, args.seed)
        if shard_map.owns(args.index, signature.object_id)
    ])
    server = FerretServer(CommandProcessor(engine), "127.0.0.1", 0)
    print(f"READY {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        engine.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""CLI for the shard ring.

Commands::

    python -m repro.cluster up --shards 3 --root DIR     # run a cluster
    python -m repro.cluster stats --membership PATH      # merged stats
    python -m repro.cluster shutdown --membership PATH   # drain all shards

Load and chaos against a ring run through the one driver in
:mod:`repro.serve`: ``python -m repro.serve loadgen --membership PATH``
or ``--shards N``, and ``python -m repro.serve chaos --shards N``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def _up(argv) -> int:
    from repro.cluster.supervisor import ClusterConfig, ClusterSupervisor

    parser = argparse.ArgumentParser(
        prog="python -m repro.cluster up",
        description="Launch N repro.serve shards and publish a membership "
                    "file.",
    )
    parser.add_argument("--shards", type=int, default=3)
    parser.add_argument("--replication", type=int, default=2,
                        help="replicas per digest (default 2)")
    parser.add_argument("--workers", type=int, default=1,
                        help="replay workers per shard (default 1)")
    parser.add_argument("--root", default=None, metavar="DIR",
                        help="cluster root for stores + membership "
                             "(default: private temp dir)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--base-port", type=int, default=7101,
                        help="first shard port; shard i listens on "
                             "base+i (process backend; default 7101)")
    parser.add_argument("--backend", choices=("process", "thread"),
                        default="process",
                        help="process: real python -m repro.serve daemons "
                             "(default); thread: in-process servers")
    parser.add_argument("--health-interval", type=float, default=2.0,
                        metavar="SEC",
                        help="seconds between health-check sweeps")
    args = parser.parse_args(argv)

    supervisor = ClusterSupervisor(ClusterConfig(
        shards=args.shards, replication=args.replication,
        workers=args.workers, root=args.root, host=args.host,
        base_port=args.base_port, backend=args.backend,
    ))
    membership = supervisor.start()
    print(f"repro.cluster up: {args.shards} shard(s), "
          f"R={membership.replication}, "
          f"membership {supervisor.membership_path}", flush=True)
    for shard in membership.shards:
        print(f"  {shard.name} @ {shard.address} store={shard.store}",
              flush=True)
    try:
        while True:
            time.sleep(args.health_interval)
            alive = supervisor.health_check()
            if not any(alive.values()):
                print("all shards down; exiting", flush=True)
                return 1
    except KeyboardInterrupt:
        print("draining cluster...", flush=True)
    finally:
        supervisor.stop()
    print("repro.cluster drained and stopped", flush=True)
    return 0


def _stats(argv) -> int:
    from repro.cluster.stats import render_cluster_snapshot
    from repro.cluster.supervisor import aggregate_from_membership

    parser = argparse.ArgumentParser(prog="python -m repro.cluster stats")
    parser.add_argument("--membership", required=True, metavar="PATH")
    parser.add_argument("--json", action="store_true", dest="as_json")
    args = parser.parse_args(argv)

    merged = aggregate_from_membership(args.membership)
    if args.as_json:
        print(json.dumps(merged, indent=2, sort_keys=True))
    else:
        print(render_cluster_snapshot(merged))
    return 0


def _shutdown(argv) -> int:
    from repro.cluster.membership import Membership
    from repro.serve.client import ServeClient, ServeError

    parser = argparse.ArgumentParser(prog="python -m repro.cluster shutdown")
    parser.add_argument("--membership", required=True, metavar="PATH")
    args = parser.parse_args(argv)

    membership = Membership.load(args.membership)
    failures = 0
    for shard in membership.up_shards():
        try:
            with ServeClient(shard.address, timeout=10.0) as client:
                client.request_shutdown()
            print(f"shutdown requested: {shard.name} @ {shard.address}")
        except (ServeError, OSError) as exc:
            failures += 1
            print(f"shutdown failed for {shard.name}: {exc}")
    return 1 if failures else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] == "up":
        return _up(argv[1:])
    if argv and argv[0] == "stats":
        return _stats(argv[1:])
    if argv and argv[0] == "shutdown":
        return _shutdown(argv[1:])
    print("usage: python -m repro.cluster "
          "{up,stats,shutdown} ...", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())

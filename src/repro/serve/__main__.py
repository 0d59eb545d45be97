"""CLI for the analysis daemon.

Commands::

    python -m repro.serve --port 7091 --workers 4      # run the daemon
    python -m repro.serve stats --server HOST:PORT     # metrics snapshot
    python -m repro.serve loadgen --server HOST:PORT   # load generator
    python -m repro.serve chaos --seed 7               # fault-injection run
    python -m repro.serve shutdown --server HOST:PORT  # graceful drain
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys


def _serve(argv) -> int:
    from repro.serve.config import ResilienceConfig
    from repro.serve.server import ServeConfig, run_server

    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Run the ALDA analysis daemon.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7091,
                        help="TCP port (0 picks a free one; default 7091)")
    parser.add_argument("--workers", type=int, default=2,
                        help="warm replay worker processes (default 2; "
                             "0 replays inline in the server process)")
    parser.add_argument("--queue", type=int, default=None, metavar="K",
                        help="admission capacity before BUSY "
                             "(default: 4 per worker)")
    parser.add_argument("--store", default=None, metavar="DIR",
                        help="trace/result cache directory "
                             "(default: private temp dir)")
    parser.add_argument("--read-timeout", type=float, default=10.0)
    parser.add_argument("--request-timeout", type=float, default=120.0)
    parser.add_argument("--drain-grace", type=float, default=15.0)
    parser.add_argument("--partition-shards", type=int, default=1, metavar="N",
                        help="shard big-trace replays across up to N decode "
                             "workers when the server is idle "
                             "(docs/PARTITION.md; default 1 = disabled)")
    parser.add_argument("--partition-min-records", type=int, default=50_000,
                        metavar="R",
                        help="minimum recorded trace records before a replay "
                             "is partitioned (default 50000)")
    defaults = ResilienceConfig()
    parser.add_argument("--hang-timeout", type=float,
                        default=defaults.hang_timeout, metavar="SEC",
                        help="per-job watchdog deadline before a worker is "
                             f"killed (default {defaults.hang_timeout}; "
                             "0 disables)")
    parser.add_argument("--breaker-threshold", type=int,
                        default=defaults.breaker_threshold, metavar="N",
                        help="consecutive worker failures before dispatch "
                             "falls back to inline replay "
                             f"(default {defaults.breaker_threshold})")
    parser.add_argument("--breaker-reset", type=float,
                        default=defaults.breaker_reset, metavar="SEC",
                        help="seconds before an open breaker re-probes the "
                             f"pool (default {defaults.breaker_reset})")
    parser.add_argument("--no-inline-fallback", action="store_true",
                        help="fail requests instead of replaying inline "
                             "when the worker pool is unhealthy")
    args = parser.parse_args(argv)

    resilience = ResilienceConfig(
        hang_timeout=args.hang_timeout if args.hang_timeout else None,
        breaker_threshold=args.breaker_threshold,
        breaker_reset=args.breaker_reset,
        inline_fallback=not args.no_inline_fallback,
    )
    config = ServeConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_capacity=args.queue,
        store_root=args.store,
        read_timeout=args.read_timeout,
        request_timeout=args.request_timeout,
        drain_grace=args.drain_grace,
        partition_shards=args.partition_shards,
        partition_min_records=args.partition_min_records,
        resilience=resilience,
    )
    try:
        asyncio.run(run_server(config))
    except KeyboardInterrupt:
        pass
    return 0


def _stats(argv) -> int:
    from repro.serve.client import ServeClient
    from repro.serve.metrics import render_snapshot

    parser = argparse.ArgumentParser(prog="python -m repro.serve stats")
    parser.add_argument("--server", required=True, metavar="HOST:PORT")
    parser.add_argument("--json", action="store_true", dest="as_json")
    args = parser.parse_args(argv)

    with ServeClient(args.server) as client:
        snap = client.stats()
    if args.as_json:
        print(json.dumps(snap, indent=2, sort_keys=True))
    else:
        print(render_snapshot(snap))
    return 0


def _parse_fault(raw: str):
    """``point=probability[:max_fires[:skip_first]]`` -> (point, FaultSpec)."""
    from repro.faultline import FaultSpec

    point, sep, schedule = raw.partition("=")
    if not sep:
        raise argparse.ArgumentTypeError(
            f"fault must look like point=probability, got {raw!r}"
        )
    parts = schedule.split(":")
    try:
        spec = FaultSpec(
            probability=float(parts[0]),
            max_fires=int(parts[1]) if len(parts) > 1 and parts[1] else None,
            skip_first=int(parts[2]) if len(parts) > 2 else 0,
        )
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return point, spec


def _chaos(argv) -> int:
    from repro.faultline import FAULT_POINTS
    from repro.serve.chaos import DEFAULT_POINTS, render_report, run_chaos

    parser = argparse.ArgumentParser(
        prog="python -m repro.serve chaos",
        description="Seeded fault-injection run against a private daemon; "
                    "asserts every request is bit-correct or a typed error.",
    )
    parser.add_argument("--seed", type=int, required=True,
                        help="fault-schedule seed (a failing run is "
                             "reproduced by its seed)")
    parser.add_argument("--fault", action="append", default=None,
                        metavar="POINT=P[:MAX[:SKIP]]", type=_parse_fault,
                        help="arm a fault point, e.g. worker.crash.midjob=0.3 "
                             f"(points: {', '.join(FAULT_POINTS)}); "
                             "repeatable. Default: a mixed storm.")
    parser.add_argument("--requests", type=int, default=24)
    parser.add_argument("--concurrency", type=int, default=3)
    parser.add_argument("--workers", type=int, default=2,
                        help="replay workers (default 2)")
    parser.add_argument("--workload", default="fft")
    parser.add_argument("--scale", type=int, default=1)
    parser.add_argument("--analysis", default="eraser.full", metavar="SPEC",
                        help="analysis spec key to replay (default "
                             "eraser.full)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write the JSON report here")
    args = parser.parse_args(argv)

    points = dict(args.fault) if args.fault else DEFAULT_POINTS
    try:
        report = run_chaos(
            seed=args.seed, points=points, requests=args.requests,
            concurrency=args.concurrency, workers=args.workers,
            workload=args.workload, scale=args.scale, spec=args.analysis,
        )
    except ValueError as exc:
        parser.error(str(exc))
    print(render_report(report))
    if args.out:
        import pathlib

        out_path = pathlib.Path(args.out)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(
            json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
        )
        print(f"[wrote {out_path}]")
    return 0 if report.invariant_ok else 1


def _shutdown(argv) -> int:
    from repro.serve.client import ServeClient

    parser = argparse.ArgumentParser(prog="python -m repro.serve shutdown")
    parser.add_argument("--server", required=True, metavar="HOST:PORT")
    args = parser.parse_args(argv)

    with ServeClient(args.server) as client:
        client.request_shutdown()
    print("shutdown requested")
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] == "stats":
        return _stats(argv[1:])
    if argv and argv[0] == "loadgen":
        from repro.serve.loadgen import main as loadgen_main

        return loadgen_main(argv[1:])
    if argv and argv[0] == "chaos":
        return _chaos(argv[1:])
    if argv and argv[0] == "shutdown":
        return _shutdown(argv[1:])
    if argv and argv[0] == "serve":
        argv = argv[1:]
    return _serve(argv)


if __name__ == "__main__":
    sys.exit(main())

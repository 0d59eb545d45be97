"""CLI for trace-store maintenance and inspection.

Commands::

    python -m repro.trace fsck --store DIR          # scan + quarantine
    python -m repro.trace fsck --store DIR --dry-run
    python -m repro.trace fsck --store DIR --json
    python -m repro.trace fsck --store DIR --prune  # + empty quarantine/
    python -m repro.trace fsck --store DIR --prune --quarantine-max-age 3600
    python -m repro.trace info TRACE                # container layout
    python -m repro.trace info TRACE --json

``fsck`` re-verifies the content digest of every trace (both locally
recorded and digest-addressed) and the sha256 of every cached replay
result.  Corrupt entries are moved to ``quarantine/`` with a reason
sidecar unless ``--dry-run`` is given.  ``--prune`` then ages out
quarantined entries (those older than ``--quarantine-max-age`` seconds;
default 0 empties the pen) so chaos runs can't grow the directory
without bound.  Exit status is 0 for a clean store and 1 when
corruption was found.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.trace.store import TraceStore


def _fsck(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.trace fsck",
        description="Integrity-scan a trace store; quarantine corrupt entries.",
    )
    parser.add_argument("--store", required=True, metavar="DIR",
                        help="trace store root directory")
    parser.add_argument("--dry-run", action="store_true",
                        help="report corruption without quarantining")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="print the full report as JSON")
    parser.add_argument("--prune", action="store_true",
                        help="after the scan, delete aged-out quarantined "
                             "entries (and their reason sidecars)")
    parser.add_argument("--quarantine-max-age", type=float, default=0.0,
                        metavar="SEC",
                        help="with --prune: only delete entries quarantined "
                             "at least SEC seconds ago (default 0: all)")
    args = parser.parse_args(argv)

    store = TraceStore(args.store)
    report = store.fsck(repair=not args.dry_run)
    if args.prune:
        report["pruned"] = store.prune_quarantine(args.quarantine_max_age)
    if args.as_json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(f"fsck {report['root']}: "
              f"{report['traces_ok']} traces ok, "
              f"{report['results_ok']} results ok, "
              f"{len(report['corrupt'])} corrupt, "
              f"{len(report['already_quarantined'])} already quarantined")
        for entry in report["corrupt"]:
            action = "reported" if args.dry_run else "quarantined"
            print(f"  {action}: {entry['entry']} ({entry['reason']})")
        if "pruned" in report:
            pruned = report["pruned"]
            print(f"  pruned {len(pruned['pruned'])} quarantined "
                  f"entr{'y' if len(pruned['pruned']) == 1 else 'ies'}, "
                  f"kept {pruned['kept']}")
    return 0 if report["clean"] else 1


def _info(argv) -> int:
    from repro.trace.format import FORMAT_VERSION, TraceFormatError, TraceReader

    parser = argparse.ArgumentParser(
        prog="python -m repro.trace info",
        description="Describe a trace container: format version, segment "
                    "index, per-segment record counts and sizes.",
    )
    parser.add_argument("trace", metavar="TRACE", help="path to a trace file")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="print the report as JSON")
    args = parser.parse_args(argv)

    try:
        meta = TraceReader.read_tail_meta(args.trace)
    except OSError as exc:
        print(f"info: cannot read {args.trace}: {exc}", file=sys.stderr)
        return 1
    except TraceFormatError as exc:
        print(f"info: {args.trace}: {exc}", file=sys.stderr)
        return 1

    segments = meta["segments"]
    report = {
        "path": args.trace,
        "version": FORMAT_VERSION,
        "digest": meta.get("digest"),
        "workload": meta.get("workload"),
        "scale": meta.get("scale"),
        "n_records": meta.get("n_records"),
        "n_segments": len(segments),
        "segments": [
            {
                "index": i,
                "offset": entry["offset"],
                "compressed_bytes": entry["clen"],
                "uncompressed_bytes": entry["ulen"],
                "n_records": entry["n_records"],
                "n_events": entry["n_events"],
            }
            for i, entry in enumerate(segments)
        ],
    }
    if args.as_json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0

    print(f"{args.trace}: ALDATRC v{report['version']}"
          + (f", workload {report['workload']}" if report["workload"] else ""))
    print(f"  digest:   {report['digest']}")
    print(f"  records:  {report['n_records']}")
    print(f"  segments: {len(segments)}")
    header = (f"  {'seg':>4} {'offset':>10} {'clen':>10} {'ulen':>10} "
              f"{'records':>9} {'events':>9}")
    print(header)
    for row in report["segments"]:
        print(f"  {row['index']:>4} {row['offset']:>10} "
              f"{row['compressed_bytes']:>10} {row['uncompressed_bytes']:>10} "
              f"{row['n_records']:>9} {row['n_events']:>9}")
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] == "fsck":
        return _fsck(argv[1:])
    if argv and argv[0] == "info":
        return _info(argv[1:])
    print(__doc__.strip(), file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())

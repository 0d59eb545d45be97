"""Command-line entry point for regenerating the paper's experiments."""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.harness.figures import figure3, figure4, figure5
from repro.harness.tables import (
    render_sanitizers,
    render_table3,
    render_table4,
    sanitizer_validation,
    table3,
    table4,
)

EXPERIMENTS = ("fig3", "fig4", "fig5", "tab3", "tab4", "sanitizers")
FIGURES = {"fig3": figure3, "fig4": figure4, "fig5": figure5}


def run_experiment(name: str, scale: int, verbose: bool, fmt: str = "text",
                   jobs: int = 1, trace_cache=None, server=None,
                   bench=None, backend: str = "compiled") -> str:
    """Regenerate one experiment; optionally collect a BENCH record.

    ``bench``, when a dict, is filled with the machine-readable record
    the ``--json`` flag writes: per-measurement cycles/overheads plus
    wall-clock and the run configuration.
    """
    from repro.harness import export

    started = time.perf_counter()
    if name in FIGURES:
        data = FIGURES[name](scale, verbose, jobs=jobs, trace_cache=trace_cache,
                             server=server, backend=backend)
        if bench is not None:
            bench.update(
                experiment=name,
                scale=scale,
                backend=backend,
                jobs=jobs,
                trace_cache=str(trace_cache) if trace_cache else None,
                server=server,
                wall_seconds=time.perf_counter() - started,
                summary=data.summary,
                results=data.bench,
            )
        if fmt == "json":
            return export.figure_to_json(data)
        if fmt == "csv":
            return export.figure_to_csv(data)
        if fmt == "svg":
            from repro.harness.svg import figure_to_svg
            return figure_to_svg(data)
        return data.render()
    if bench is not None:
        bench.update(experiment=name, scale=scale, jobs=jobs, trace_cache=None)
    if name == "tab3":
        rows = table3(scale)
        out = export.table3_to_json(rows) if fmt == "json" else render_table3(rows)
    elif name == "tab4":
        rows, handtuned = table4()
        if fmt == "json":
            out = export.table4_to_json(rows, handtuned)
        else:
            out = render_table4(rows, handtuned)
    elif name == "sanitizers":
        rows = sanitizer_validation(scale)
        if fmt == "json":
            out = export.sanitizers_to_json(rows)
        else:
            out = render_sanitizers(rows)
    else:
        raise SystemExit(f"unknown experiment {name!r}")
    if bench is not None:
        bench["wall_seconds"] = time.perf_counter() - started
    return out


def _positive_int(raw: str) -> int:
    """argparse type for sizes and counts: an integer of at least 1."""
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {raw!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Regenerate the ALDA paper's tables and figures.",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS + ("all",))
    parser.add_argument("--scale", type=_positive_int, default=1,
                        help="workload size multiplier (default 1)")
    parser.add_argument("--verbose", action="store_true")
    parser.add_argument("--format", choices=("text", "json", "csv", "svg"),
                        default="text", help="output format (csv/svg: figures only)")
    parser.add_argument("--backend", choices=("compiled", "reference"),
                        default="compiled",
                        help="VM dispatch strategy for figure runs "
                             "(docs/SUBSTRATE.md); both backends are "
                             "bit-identical, so this only changes wall-clock")
    parser.add_argument("--jobs", type=_positive_int, default=1, metavar="N",
                        help="worker processes for figures, one workload "
                             "per task (see docs/TRACING.md)")
    parser.add_argument("--trace-cache", metavar="DIR", default=None,
                        help="persistent trace/result cache directory: record "
                             "each workload once and replay its analyses")
    parser.add_argument("--server", metavar="HOST:PORT", default=None,
                        help="execute figure replays on a repro.serve daemon "
                             "instead of a local pool (see docs/SERVING.md)")
    parser.add_argument("--json", metavar="OUT", default=None, dest="json_out",
                        help="also write machine-readable BENCH_<experiment>.json "
                             "records (cycles, overheads, wall-clock) into "
                             "directory OUT")
    args = parser.parse_args(argv)

    names = EXPERIMENTS if args.experiment == "all" else (args.experiment,)
    for name in names:
        started = time.time()
        bench = {} if args.json_out else None
        print(run_experiment(name, args.scale, args.verbose, args.format,
                             jobs=args.jobs, trace_cache=args.trace_cache,
                             server=args.server, bench=bench,
                             backend=args.backend))
        if bench:
            out_dir = Path(args.json_out)
            out_dir.mkdir(parents=True, exist_ok=True)
            out_path = out_dir / f"BENCH_{name}.json"
            out_path.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n")
            if args.format == "text":
                print(f"[wrote {out_path}]")
        if args.format == "text":
            print(f"[{name} regenerated in {time.time() - started:.1f}s]\n")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # e.g. piped into `head`
        sys.exit(0)

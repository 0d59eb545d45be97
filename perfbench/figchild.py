"""One figure run in a fresh process, as ``python -m repro.harness figN`` does it.

    python3 perfbench/figchild.py WORKLOAD SPAWNED_AT OUT_JSON [--setup-only]
        [--no-cold] [--trace] [--hot-seconds S] [--cache-dir DIR] [--smoke]

``SPAWNED_AT`` is the parent's ``time.monotonic()`` just before it
started this process (the clock is system-wide), so set-up time covers
interpreter start and imports up to the figure call.  The cold call runs
with empty caches: fig3 inline, fig5 through a fresh trace cache.  Hot
calls repeat the same figure until ``--hot-seconds`` have passed (at
least one).  fig3 makes them after its cold call in the same process;
fig5 makes them in a new process with ``--no-cold`` on the warm cache
directory, as a second ``python -m repro.harness fig5 --trace-cache DIR``
would.  ``--smoke`` restricts the figure to its first two workloads so
the benchmark's own test stays fast.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

from common import SRC

sys.path.insert(0, str(SRC))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=("fig3-inline", "fig5-record-replay"))
    parser.add_argument("spawned_at", type=float)
    parser.add_argument("out")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--no-cold", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--hot-seconds", type=float, default=0.0)
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    import repro.harness.figures as figures
    from repro.harness.runner import geomean

    fig5 = args.workload == "fig5-record-replay"
    if args.smoke:
        for name in ("fig3_workloads", "fig5_workloads"):
            full = getattr(figures, name)
            setattr(figures, name, lambda full=full: dict(list(full().items())[:2]))
    tracer = None
    if args.trace:
        from spans import Tracer, install

        tracer = Tracer()
        install(tracer)

    def call():
        if fig5:
            return figures.figure5(scale=1, jobs=1, trace_cache=args.cache_dir)
        return figures.figure3(scale=1)

    def timed_call():
        """One figure call: its result and when it started (monotonic)."""
        start = time.monotonic()
        started = time.perf_counter()
        data = call()
        seconds = time.perf_counter() - started
        headline = (geomean(data.series_values("combined")) if fig5
                    else data.summary["avg_aldacc"])
        return {"seconds": seconds, "start": start, "rows": data.rows,
                "summary": data.summary, "sim_overhead_x": headline}

    setup_end = time.monotonic()
    result = {"setup_s": setup_end - args.spawned_at, "setup_end": setup_end, "hot": []}
    if not (args.setup_only or args.no_cold):
        if tracer is not None:
            tracer.enter("harness")
        result["cold"] = timed_call()
        if tracer is not None:
            tracer.exit()
            result["layers"] = {"self_s": tracer.self_s, "calls": tracer.calls,
                                "values": tracer.values}
    hot_started = time.perf_counter()
    while args.hot_seconds > 0 and (
            not result["hot"] or time.perf_counter() - hot_started < args.hot_seconds):
        result["hot"].append(timed_call())
    result["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.out, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())

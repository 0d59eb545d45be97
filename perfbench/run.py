"""End-to-end benchmark of the ALDA reproduction: figure runs and serve requests.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
        [--reference DIR] [--smoke]

Workloads (``BENCHMARK.json`` says why each was chosen):

* ``fig3-inline``: ``figure3(scale=1)`` inline, a fresh process per run;
* ``fig5-record-replay``: ``figure5(scale=1, jobs=1)`` through a fresh
  trace cache, a fresh process per run;
* ``serve-cold-hot``: cold then hot requests to a ``repro.serve`` daemon.

``--trace 0`` prints the end-to-end metrics, measured with nothing
wrapped, every time scaled to a reference host speed by the monitor of
``hostspeed.py`` (the ``meta`` line keeps the measured ``wall_s`` and
``setup_s``).  ``--trace 1`` prints the per-layer metrics: it wraps each
layer's entry points (``spans.py``) for one traced pass and also makes
one untraced pass, so the tracing overhead is measured.  Every output is
checked against ``reference/`` (or ``--reference DIR``); a mismatch
counts as a failed operation.  ``--smoke`` shrinks every workload to a
few seconds for the benchmark's own test.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from common import (BENCH_DIR, REFERENCE_DIR, ROOT, SRC, WORK_DIR, WORKLOADS,
                    compare_rows, load_benchmark_spec, percentile, summary)
from hostspeed import Monitor

#: seconds of hot figure calls per warm-cache fig5 process (fig3 makes one)
FIG5_HOT_SECONDS = 5.0
SETUP_PROBES = 3
CHILD_TIMEOUT = 170.0


class Run:
    """Samples, correctness counts and layer values of one benchmark run."""

    def __init__(self, args) -> None:
        self.args = args
        self.samples = {}  # end-to-end metric -> samples
        self.layers = {}  # per-layer metric -> value
        self.attempted = self.failed = 0
        self.problems = []
        self.sim_overhead_x = []
        self.reps = 0
        self.monitor = None  # hostspeed.Monitor of an untraced run

    def add(self, metric, *values) -> None:
        self.samples.setdefault(metric, []).extend(values)

    def check(self, checked: int, mismatched: int, what: str) -> None:
        self.attempted += checked
        self.failed += mismatched
        if mismatched:
            self.problems.append(f"{what}: {mismatched}/{checked} differ from the reference")


# -- figure workloads ----------------------------------------------------


def _spawn_figure(run: Run, out: Path, *extra) -> dict:
    """One figure child process; its result dict (None if it failed)."""
    spawned_at = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "figchild.py"), run.args.workload,
         repr(spawned_at), str(out), *extra]
        + (["--smoke"] if run.args.smoke else []),
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=CHILD_TIMEOUT,
    )
    if proc.returncode != 0:
        run.attempted += 1
        run.failed += 1
        run.problems.append(f"figure process exited {proc.returncode}: "
                            + proc.stderr.decode(errors="replace")[-400:])
        return None
    return json.loads(out.read_text())


def _check_figure_call(run: Run, call: dict, reference: dict) -> None:
    rows = reference["rows"]
    if run.args.smoke:  # a smoke run covers the figure's first workloads only
        rows = {name: row for name, row in rows.items() if name in call["rows"]}
    run.check(*compare_rows(call["rows"], rows), "figure rows")
    if not run.args.smoke:
        run.check(*compare_rows({"summary": call["summary"]},
                                {"summary": reference["summary"]}), "figure summary")
        run.check(1, int(call["sim_overhead_x"] != reference["sim_overhead_x"]),
                  "sim_overhead_x")
    run.sim_overhead_x.append(call["sim_overhead_x"])


def _figure(run: Run, work: Path) -> None:
    args = run.args
    fig5 = args.workload == "fig5-record-replay"
    name = "fig5.json" if fig5 else "fig3.json"
    reference = json.loads((args.reference / name).read_text())
    counter = itertools.count()

    def child(*extra, cache=None):
        """A figure process; fig5 gets a fresh trace cache unless ``cache``."""
        rep = next(counter)
        cache = cache or work / f"cache-{rep}"
        return _spawn_figure(run, work / f"child-{rep}.json", *extra,
                             *(["--cache-dir", str(cache)] if fig5 else []))

    if args.trace:
        untraced = child()
        traced = child("--trace")
        if untraced is None or traced is None:
            return
        for result in (untraced, traced):
            _check_figure_call(run, result["cold"], reference)
        run.reps = 2
        _figure_layers(run, traced, untraced["cold"]["seconds"])
        return

    processes, cold, hot = [], [], []  # cold, hot: the figure calls
    for _ in range(1 if args.smoke else SETUP_PROBES):
        probe = child("--setup-only")
        if probe is not None:
            processes.append(probe)
    started = time.perf_counter()
    while True:
        rep_started = time.perf_counter()
        if fig5:  # hot calls rerun the figure on the warm cache, in a new process
            cache = work / f"warm-{run.reps}"
            result = child(cache=cache)
            warm = result and child("--no-cold", "--hot-seconds",
                                    repr(0.01 if args.smoke else FIG5_HOT_SECONDS),
                                    cache=cache)
            if warm:
                processes.append(warm)
        else:
            result = warm = child("--hot-seconds", "0.01")
        if not (result and warm):
            break
        run.reps += 1
        cells = sum(len(row) for row in result["cold"]["rows"].values())
        processes.append(result)
        cold.append(result["cold"])
        hot.extend(warm["hot"])
        for call in [result["cold"]] + warm["hot"]:
            _check_figure_call(run, call, reference)
        now = time.perf_counter()
        if args.smoke or now - started + (now - rep_started) > args.seconds:
            break
    run.monitor.stop()
    if not run.reps:
        return
    def scaled(seconds, start):
        return seconds / run.monitor.factor(start, start + seconds)

    for process in processes:
        setup_s = process["setup_s"]
        run.add("setup_s", scaled(setup_s, process["setup_end"] - setup_s))
        run.add("measured.setup_s", setup_s)
    cold_s = [scaled(call["seconds"], call["start"]) for call in cold]
    hot_s = [scaled(call["seconds"], call["start"]) for call in hot]
    run.add("peak_rss_mb", max(process["maxrss_mb"] for process in processes))
    run.add("wall_s", *cold_s)
    run.add("measured.wall_s", *(call["seconds"] for call in cold))
    run.add("cold_p50_ms", percentile(cold_s, 50) * 1000.0)
    run.add("cold_p90_ms", percentile(cold_s, 90) * 1000.0)
    run.add("cold_rps", cells / percentile(cold_s, 50))
    run.add("hot_p50_ms", percentile(hot_s, 50) * 1000.0)
    run.add("hot_p90_ms", percentile(hot_s, 90) * 1000.0)
    run.add("hot_rps", cells / percentile(hot_s, 50))


def _layer_values(layers: dict) -> dict:
    """Per-layer metrics from a tracer's self times, calls and values."""
    self_s, calls, values = layers["self_s"], layers["calls"], layers["values"]

    def s(layer):
        return self_s.get(layer, 0.0)

    def n(layer):
        return calls.get(layer, 0)

    records = values.get("trace.records", 0)
    vm_layers = ("vm.plain", "vm.instrumented", "vm.record", "vm.other")
    return {
        "compiler.compile_s": s("compiler.compile"),
        "compiler.compiles": n("compiler.compile"),
        "vm.setup_s": s("vm.setup.plain") + s("vm.setup.instrumented"),
        "vm.plain_s": s("vm.plain"),
        "vm.instrumented_s": s("vm.instrumented"),
        "vm.record_s": s("vm.record"),
        "vm.runs": sum(n(layer) for layer in vm_layers),
        "vm.instructions": values.get("vm.instructions", 0),
        "vm.handler_calls": values.get("vm.handler_calls", 0),
        "trace.record_s": s("trace.record"),
        "trace.recordings": n("trace.record"),
        "trace.bytes": values.get("trace.bytes", 0),
        "trace.records": records,
        "trace.decode_s": s("trace.decode"),
        "trace.decodes": n("trace.decode"),
        "trace.decode_us_per_record": (s("trace.decode") / records * 1e6
                                       if records else 0.0),
        "trace.settle_s": s("trace.settle"),
        "trace.settles": n("trace.settle"),
        "store.read_verify_s": s("store.read_verify"),
        "store.reads": n("store.read_verify"),
        "store.open_s": s("store.open"),
        "store.result_io_s": s("store.result_io"),
        "store.result_ios": n("store.result_io"),
        "store.ingest_s": s("store.ingest"),
        "store.ingests": n("store.ingest"),
    }


def _figure_layers(run: Run, traced: dict, untraced_wall: float) -> None:
    wall = traced["cold"]["seconds"]
    run.layers.update(_layer_values(traced["layers"]))
    residual = traced["layers"]["self_s"].get("harness", 0.0)
    run.layers.update({
        "residual_s": residual,
        "residual_frac": residual / wall,
        "traced_wall_s": wall,
        "tracing_overhead_s": wall - untraced_wall,
    })


# -- serve workload ------------------------------------------------------


def _serve(run: Run, work: Path) -> None:
    import serveload

    args = run.args
    reference = json.loads((args.reference / "serve.json").read_text())
    out = serveload.run(args.seed, args.seconds, work, bool(args.trace),
                        args.smoke, reference)
    cold, hot = out["cold"], out["hot"]
    run.reps = len(cold.walls)
    for phase in (cold, hot):
        run.attempted += phase.attempted
        run.failed += phase.failed
        run.problems.extend(phase.failures[:5])
    if not cold.samples or not hot.samples:
        return
    if not args.trace:
        _serve_metrics(run, out)
        return

    def p50(phase, pick):
        return percentile([pick(*sample) for sample in phase.samples], 50)

    def count(name, block="counters"):
        return sum(stats[block].get(name, 0) for stats in out["stats"])

    hits, misses = count("cache_hits"), count("cache_misses")
    busy_client_s = (sum(sample[0] for sample in cold.samples) / 1000.0
                     / serveload.CONCURRENCY)
    residual = sum(cold.walls) - busy_client_s
    run.layers.update(_layer_values(out["layers"]))
    run.layers.update({
        "serve.cold.client_ms": p50(cold, lambda c, s, w: c),
        "serve.cold.server_ms": p50(cold, lambda c, s, w: s),
        "serve.cold.worker_ms": p50(cold, lambda c, s, w: w * 1000.0),
        "serve.cold.queue_ipc_ms": p50(cold, lambda c, s, w: s - w * 1000.0),
        "serve.cold.wire_ms": p50(cold, lambda c, s, w: c - s),
        "serve.hot.client_ms": p50(hot, lambda c, s, w: c),
        "serve.hot.server_ms": p50(hot, lambda c, s, w: s),
        "serve.hot.wire_ms": p50(hot, lambda c, s, w: c - s),
        "serve.cache_hits": hits,
        "serve.cache_misses": misses,
        "serve.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "serve.single_flight_hits": count("single_flight_hits"),
        "serve.traces_ingested": count("traces_ingested"),
        "serve.busy_total": count("busy_total"),
        "serve.worker_restarts": count("worker_restarts", "gauges"),
        "serve.retries": cold.retries + hot.retries,
        "residual_s": residual,
        "residual_frac": residual / sum(cold.walls),
        "traced_wall_s": statistics.median(cold.walls),
        "tracing_overhead_s": out["traced_record_s"] - out["untraced_record_s"],
    })


def _serve_metrics(run: Run, out: dict) -> None:
    """End-to-end serve metrics, each round's times scaled by the host's
    speed over that phase: on every CPU for set-up and the cold phase, on
    the pinned CPU for the hot phase."""
    monitor = run.monitor
    monitor.stop()
    pinned = [max(monitor.samples)]  # serveload pins the hot phase to the last CPU

    def scaled(seconds, start, cpus=None):
        return seconds / monitor.factor(start, start + seconds, cpus)

    for parts in out["setup_parts"]:
        run.add("setup_s", sum(scaled(seconds, start) for seconds, start in parts))
        run.add("measured.setup_s", sum(seconds for seconds, _start in parts))
    run.add("peak_rss_mb", out["peak_rss_mb"])
    for name, cpus in (("cold", None), ("hot", pinned)):
        phase = out[name]
        factors = [monitor.factor(start, end, cpus) for start, end in phase.intervals]
        client_ms = [sample[0] / factor
                     for samples, factor in zip(phase.per_run(), factors)
                     for sample in samples]
        walls = [wall / factor for wall, factor in zip(phase.walls, factors)]
        if name == "cold":
            run.add("wall_s", *walls)
            run.add("measured.wall_s", *phase.walls)
        run.add(f"{name}_p50_ms", percentile(client_ms, 50))
        run.add(f"{name}_p90_ms", percentile(client_ms, 90))
        run.add(f"{name}_rps", len(client_ms) / sum(walls))


# -- output --------------------------------------------------------------


def _commit() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _report(run: Run, spec: dict) -> int:
    args = run.args
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    stats = {name: summary(samples) for name, samples in run.samples.items()}
    metrics, missing = {}, []
    for entry in wanted:
        name = entry["name"]
        if args.trace:
            if not run.layers:
                missing.append(name)
                continue
            value = run.layers.get(name, 0)  # a layer this workload never reaches
        else:
            if name not in stats:
                missing.append(name)
                continue
            value = stats[name]["median"]
        metrics[name] = {"value": value, "unit": entry["unit"]}
    if missing:
        print(f"error: no samples for {', '.join(missing)}; "
              + "; ".join(run.problems[:5]), file=sys.stderr)
        return 1

    for name, metric in metrics.items():
        print(f"{name:32s} {metric['value']:>16.6g} {metric['unit']}")
    failed_frac = run.failed / run.attempted if run.attempted else 1.0
    print(f"{'failed_frac':32s} {failed_frac:>16.6g} fraction")
    if run.sim_overhead_x:
        print(f"{'sim_overhead_x':32s} {run.sim_overhead_x[0]!r:>16} x")
    for problem in run.problems[:10]:
        print(f"problem: {problem}")
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "runs": run.reps, "nproc": os.cpu_count(),
        "python": platform.python_version(), "platform": platform.platform(),
        "commit": _commit(), "failed_frac": failed_frac,
        "sim_overhead_x": run.sim_overhead_x[:1], "metrics": stats,
    }
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({"correct": run.failed == 0 and run.attempted > 0,
                      "attempted": max(run.attempted, 1), "failed": run.failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", type=Path, default=REFERENCE_DIR,
                        help="directory of correctness references")
    parser.add_argument("--smoke", action="store_true",
                        help="smallest size, for the benchmark's own test")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark at {SRC / 'repro'}", file=sys.stderr)
        return 2
    spec = load_benchmark_spec()
    run = Run(args)
    work = WORK_DIR / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    cpus = sorted(os.sched_getaffinity(0))
    try:
        if not args.trace:
            if args.workload != "serve-cold-hot":
                # A figure runs on one CPU: pin its processes (they inherit
                # this process's mask) beside the monitor that scales them.
                cpus = cpus[-1:]
                os.sched_setaffinity(0, cpus)
            run.monitor = Monitor(cpus, work)
        if args.workload == "serve-cold-hot":
            _serve(run, work)
        else:
            _figure(run, work)
    finally:
        if run.monitor is not None:
            run.monitor.stop()
        shutil.rmtree(work, ignore_errors=True)
    return _report(run, spec)


if __name__ == "__main__":
    sys.exit(main())

"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/sweep.py [--workload NAME ...] [--seeds 1-10] [--trace 0|1]
        [--out FILE]

For every workload and metric it prints the median, the quartiles of the
per-run values (``statistics.quantiles(n=4)``) and the spread: the
distance between the quartiles as a share of the median.  An end-to-end
metric is steady when its spread is below a third of its bound in
``BENCHMARK.json`` (``setup_s`` is exempt).  The ``measured.*`` rows are
the same times before scaling to the reference host speed.  ``--out`` also writes the
per-run values, the summaries and the host and run metadata as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from common import ROOT, load_benchmark_spec


def _seeds(text: str):
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(seed) for seed in text.split(",")]


def main(argv=None) -> int:
    spec = load_benchmark_spec()
    parser = argparse.ArgumentParser(prog="python3 perfbench/sweep.py")
    parser.add_argument("--workload", action="append", default=None)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    steady = True
    for workload in workloads:
        runs, metas = [], []
        for seed in _seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            result = json.loads(lines[-1])
            metas.append(json.loads(next(line[5:] for line in lines
                                         if line.startswith("meta "))))
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect output")
                steady = False
            runs.append(result)
            print(f"{workload} seed {seed}: " + " ".join(
                f"{name}={m['value']:.4g}" for name, m in result["metrics"].items()),
                flush=True)
        summaries = {}
        # the measured (unscaled) medians of the meta lines, beside the metrics
        per_run = [{**{name: m["median"] for name, m in meta["metrics"].items()
                       if name.startswith("measured.")},
                    **{name: m["value"] for name, m in run["metrics"].items()}}
                   for run, meta in zip(runs, metas)]
        for name in per_run[0]:
            values = [values[name] for values in per_run]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else 0.0
            summaries[name] = {"median": median, "q1": q1, "q3": q3,
                               "spread": spread, "values": values}
            bound = bounds.get(name)
            verdict = ""
            if bound is not None and name != "setup_s":
                ok = spread < bound / 3
                steady &= ok
                verdict = f"bound {bound}  {'ok' if ok else 'NOT STEADY'}"
            print(f"  {name:30s} median {median:12.6g}  q1 {q1:12.6g}  "
                  f"q3 {q3:12.6g}  spread {spread:6.3f}  {verdict}")
        report["workloads"][workload] = {
            "runs": len(runs), "seeds": _seeds(args.seeds),
            "failed": sum(run["failed"] for run in runs),
            "attempted": sum(run["attempted"] for run in runs),
            "host": {key: metas[0][key] for key in ("nproc", "python", "platform",
                                                    "commit")},
            "metrics": summaries,
        }
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())

"""Partitioned-replay benchmarks: scaling vs shard count, and the keep rule.

``test_partition_scaling`` is the acceptance bar for
:mod:`repro.partition`: fanning one trace's decode across a persistent
worker pool must cut replay wall-clock on the largest bundled workloads,
monotonically with shard count, while staying bit-identical to the
monolithic path (asserted inline here on cycles/reports).  Results land
in ``benchmarks/artifacts/BENCH_partition.json``.  The speedup
assertions (monotone across 1/2/4 and >=1.5x at 4 shards) only run on
machines with at least 4 CPUs: with every worker pinned to one core,
shard counts change scheduling, not parallelism.

``test_partition_keep_rule`` records the keep-or-delete rule: 2 shards
must beat monolithic replay in at least 9 of 10 alternating pairs *and*
by more than the interquartile range of the monolithic runs in the
median (``statistics.quantiles``, exclusive method).  Monolithic is the
batch path (a verified ``open_path`` and ``settle_trace``); 2 shards is
``replay_partitioned`` on a 2-worker pool.  The verdict is recorded in
``benchmarks/artifacts/BENCH_partition_rule.json``, not asserted: on a
shared host it can flip between runs.
"""

import dataclasses
import json
import os
import platform
import statistics
import time

from benchmarks.conftest import save_artifact
from repro.exec.pool import build_analysis
from repro.exec.workers import PersistentWorkerPool
from repro.partition import replay_partitioned
from repro.trace.replayer import TraceReplayer, settle_trace
from repro.trace.store import TraceStore
from repro.workloads import ALL

WORKLOADS = ["sort", "sjeng", "mcf"]
SPEC = "eraser.full"
SHARD_COUNTS = [1, 2, 4]
REPEATS = 3

RULE_CASES = [("eraser.full", "sort"), ("eraser.full", "sjeng"),
              ("eraser.full", "mcf"), ("fig5.combined", "sort")]
PAIRS = 10


def _best_of(fn, repeats=REPEATS):
    best = None
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return result, best


def test_partition_scaling(tmp_path):
    store = TraceStore(tmp_path / "bench-traces")
    results = {"cpu_count": os.cpu_count(), "spec": SPEC,
               "repeats": REPEATS, "workloads": {}}

    with PersistentWorkerPool(4) as pool:
        for name in WORKLOADS:
            store.get_or_record(ALL[name], 1)
            path = store.trace_path(ALL[name], 1)

            def mono():
                replayer = TraceReplayer(store.open_path(path))
                profile, reporter = replayer.replay([build_analysis(SPEC)])
                return dataclasses.asdict(profile), list(reporter)

            expected, mono_secs = _best_of(mono)
            entry = {"monolithic_seconds": mono_secs, "shards": {}}

            for shards in SHARD_COUNTS:
                def part():
                    profile, reporter, stats = replay_partitioned(
                        store, path, [SPEC], shards, pool=pool
                    )
                    return (dataclasses.asdict(profile), list(reporter),
                            stats["planned_shards"])

                (profile, reports, planned), secs = _best_of(part)
                assert (profile, reports) == expected, \
                    f"{name}/x{shards}: partitioned result diverged"
                entry["shards"][str(shards)] = {
                    "seconds": secs,
                    "planned_shards": planned,
                    "speedup_vs_monolithic": mono_secs / secs,
                }
            results["workloads"][name] = entry

    multi_core = (os.cpu_count() or 1) >= 4
    results["speedup_asserted"] = multi_core
    for name, entry in results["workloads"].items():
        times = [entry["shards"][str(s)]["seconds"] for s in SHARD_COUNTS]
        entry["monotone"] = all(a >= b for a, b in zip(times, times[1:]))
        entry["speedup_at_4"] = entry["monolithic_seconds"] / times[-1]
        if multi_core:
            assert entry["monotone"], (
                f"{name}: wall-clock not monotone across shard counts {times}"
            )
            assert entry["speedup_at_4"] >= 1.5, (
                f"{name}: 4-shard speedup {entry['speedup_at_4']:.2f}x "
                f"is under the 1.5x bar"
            )

    save_artifact(
        "BENCH_partition.json", json.dumps(results, indent=2, sort_keys=True)
    )
    print(json.dumps(results["workloads"], indent=2, sort_keys=True))


def test_partition_keep_rule(tmp_path):
    store = TraceStore(tmp_path / "bench-traces")
    results = {"cpu_count": os.cpu_count(), "python": platform.python_version(),
               "pairs": PAIRS, "pool_workers": 2, "cases": {}}

    with PersistentWorkerPool(2) as pool:
        for spec, name in RULE_CASES:
            store.get_or_record(ALL[name], 1)
            path = store.trace_path(ALL[name], 1)

            def monolithic():
                ((profile, reporter, _),) = settle_trace(
                    store.open_path(path), [[build_analysis(spec)]])
                return dataclasses.asdict(profile), list(reporter)

            def shards_2():
                profile, reporter, _ = replay_partitioned(
                    store, path, [spec], 2, pool=pool)
                return dataclasses.asdict(profile), list(reporter)

            expected = monolithic()  # warm-up; also the reference result
            assert shards_2() == expected, \
                f"{spec}/{name}: partitioned result diverged"

            mono, part = [], []
            for index in range(PAIRS):
                order = [(monolithic, mono), (shards_2, part)]
                for run, times in order if index % 2 == 0 else order[::-1]:
                    started = time.perf_counter()
                    outcome = run()
                    times.append(time.perf_counter() - started)
                    assert outcome == expected

            q1, _, q3 = statistics.quantiles(mono, n=4)
            wins = sum(b < a for a, b in zip(mono, part))
            gap = statistics.median(mono) - statistics.median(part)
            results["cases"][f"{spec}@{name}"] = {
                "monolithic_seconds": mono,
                "shards_2_seconds": part,
                "monolithic_median": statistics.median(mono),
                "shards_2_median": statistics.median(part),
                "monolithic_iqr": q3 - q1,
                "wins": wins,
                "median_gap": gap,
                "passes": wins >= 9 and gap > q3 - q1,
            }

    results["rule_passes"] = any(case["passes"]
                                 for case in results["cases"].values())
    save_artifact(
        "BENCH_partition_rule.json", json.dumps(results, indent=2, sort_keys=True)
    )
    print(json.dumps(results, indent=2, sort_keys=True))

"""Paired elision benches: instrumentation cost with and without the
static elision pass.

Each pair runs the same workload/analysis on the compiled backend with
``elide=False`` and ``elide=True`` and records handler-call counts,
simulated analysis cycles, and wall-clock time into
``benchmarks/artifacts/BENCH_staticpass.json``.  Event-count reduction
is deterministic (the mask is static), so it is asserted strictly;
wall-clock only has to not regress, because on small subject programs
CI machine noise can swamp the saved dispatch work.

A race detector on a single-threaded subject elides every site (a lone
thread cannot race with itself; docs/STATICPASS.md), so its elided run
makes no handler call at all.  Every other pair keeps some.
"""

import json
import platform
import time

import pytest

from benchmarks.conftest import save_artifact
from repro.exec.pool import build_analysis
from repro.staticpass.elide import analyze_elision, policy_for
from repro.vm import Interpreter
from repro.workloads import ALL

#: (bench name, workload, spec) — covers both race detectors, one
#: single-threaded and one multithreaded subject each.
PAIRS = [
    ("eraser.bzip2", "bzip2", "eraser.full"),
    ("eraser.radix", "radix", "eraser.full"),
    ("fasttrack.bzip2", "bzip2", "fasttrack.alda"),
    ("fasttrack.fft", "fft", "fasttrack.alda"),
    ("uaf.bzip2", "bzip2", "uaf.alda"),
]


def _run(workload, spec, elide):
    vm = Interpreter(
        workload.make_module(1),
        extern=workload.make_extern(),
        input_lines=list(workload.input_lines),
        track_shadow=True,
        backend="compiled",
    )
    build_analysis(spec).attach(vm, elide=elide)
    return vm.run()


def _fully_elided(workload, spec):
    """Whether the pass elides every site: a race-detection policy (the
    lock-protected tier) on a subject module that never spawns."""
    policy = policy_for(build_analysis(spec))
    report = analyze_elision(workload.make_module(1), policy)
    return policy.skip_lock_protected and not report.multithreaded


def _best_of(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.parametrize("bench,workload,spec", PAIRS)
def test_elision_pair_throughput(benchmark, bench, workload, spec):
    """pytest-benchmark view of the elided configuration."""
    subject = ALL[workload]
    profile = benchmark(lambda: _run(subject, spec, elide=True))
    if _fully_elided(subject, spec):
        assert profile.handler_calls == 0
    else:
        assert profile.handler_calls > 0


def test_staticpass_bench_artifact():
    """Paired on/off measurements -> BENCH_staticpass.json.

    Handler calls must drop on every pair (each subject has elidable
    sites for these policies); simulated analysis cycles must not grow;
    wall-clock must not regress beyond noise.
    """
    rows = []
    for bench, workload, spec in PAIRS:
        subject = ALL[workload]
        _run(subject, spec, elide=True)  # warm compile + mask caches
        off = _run(subject, spec, elide=False)
        on = _run(subject, spec, elide=True)
        off_s = _best_of(lambda: _run(subject, spec, elide=False))
        on_s = _best_of(lambda: _run(subject, spec, elide=True))
        assert on.handler_calls < off.handler_calls, (
            f"{bench}: elision skipped no handler calls"
        )
        assert on.cycles <= off.cycles, f"{bench}: elision grew simulated cost"
        assert on_s <= off_s * 1.25, f"{bench}: elision regressed wall-clock"
        rows.append({
            "bench": bench,
            "workload": workload,
            "spec": spec,
            "handler_calls_off": off.handler_calls,
            "handler_calls_on": on.handler_calls,
            "event_reduction": round(1 - on.handler_calls / off.handler_calls, 4),
            "cycles_off": off.cycles,
            "cycles_on": on.cycles,
            "wall_off_ms": round(off_s * 1e3, 3),
            "wall_on_ms": round(on_s * 1e3, 3),
            "wall_speedup": round(off_s / on_s, 3),
        })
    # The headline claim: with elision on, eraser and fasttrack see a
    # measured event-count reduction AND a wall-clock improvement in
    # aggregate (per-row wall-clock can wobble on tiny subjects).
    for prefix in ("eraser", "fasttrack"):
        group = [r for r in rows if r["bench"].startswith(prefix)]
        assert all(r["event_reduction"] > 0 for r in group)
        assert sum(r["wall_off_ms"] for r in group) > sum(
            r["wall_on_ms"] for r in group
        ), f"{prefix}: no aggregate wall-clock improvement"
    payload = {
        "bench": "staticpass",
        "python": platform.python_version(),
        "pairs": rows,
    }
    save_artifact("BENCH_staticpass.json", json.dumps(payload, indent=2))

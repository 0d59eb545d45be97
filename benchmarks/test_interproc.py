"""Interprocedural-vs-intraprocedural elision differential.

For each pair this runs the compiled backend three ways — elision off,
intra-procedural masks only (the seed behaviour: calls clear facts, no
lock tier, escape stops at function boundaries), and the full
interprocedural masks — and records per-category site counts, handler
calls, and wall-clock into ``benchmarks/artifacts/BENCH_interproc.json``.

Asserted invariants:

* reports are bit-identical in all three configurations;
* the interprocedural mask is a superset of the intra mask, and on the
  race-detector pairs it strictly adds elided sites;
* handler calls are monotone: off >= intra >= interproc, strictly
  dropping on the race-detector pairs.
"""

import dataclasses
import json
import platform
import time

from benchmarks.conftest import save_artifact
from repro.exec.pool import build_analysis
from repro.staticpass import analyze_elision, policy_for
from repro.vm import Interpreter
from repro.workloads import ALL

#: (bench name, workload, spec) — race detectors on one single-threaded
#: and one lock-disciplined multithreaded subject each, uaf for the
#: cross-call dominated tier.
PAIRS = [
    ("eraser.bzip2", "bzip2", "eraser.full"),
    ("eraser.water_ns", "water_ns", "eraser.full"),
    ("fasttrack.fft", "fft", "fasttrack.alda"),
    ("fasttrack.water_ns", "water_ns", "fasttrack.alda"),
    ("uaf.bzip2", "bzip2", "uaf.alda"),
    ("uaf.sjeng", "sjeng", "uaf.alda"),
]


def _reports(module, spec):
    """(interproc report, intra report) for one module/spec pair."""
    policy = policy_for(build_analysis(spec))
    inter = analyze_elision(module, policy)
    intra = analyze_elision(
        module, dataclasses.replace(policy, interproc=False)
    )
    return inter, intra


def _run(workload, spec, mode):
    """One compiled-backend run; mode is "off", "intra", or "inter"."""
    module = workload.make_module(1)
    vm = Interpreter(
        module,
        extern=workload.make_extern(),
        input_lines=list(workload.input_lines),
        track_shadow=True,
        backend="compiled",
    )
    build_analysis(spec).attach(vm, elide=mode != "off")
    if mode == "intra":
        # masks intersect across registrations, and the intra mask is a
        # subset of the attached interprocedural one: registering it
        # restores exactly the seed's intra-only behaviour.
        _, intra = _reports(module, spec)
        vm.register_elision(intra.mask)
    profile = vm.run()
    return profile, list(vm.reporter)


def _best_of(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_interproc_bench_artifact():
    rows = []
    for bench, workload, spec in PAIRS:
        subject = ALL[workload]
        module = subject.make_module(1)
        inter, intra = _reports(module, spec)
        for site, positions in intra.mask.items():
            assert positions <= inter.mask.get(site, frozenset()), (
                f"{bench}: interproc mask lost intra site {site}"
            )
        off_profile, off_reports = _run(subject, spec, "off")
        intra_profile, intra_reports = _run(subject, spec, "intra")
        inter_profile, inter_reports = _run(subject, spec, "inter")
        assert intra_reports == off_reports, f"{bench}: intra drifted reports"
        assert inter_reports == off_reports, f"{bench}: interproc drifted reports"
        assert intra_profile.handler_calls <= off_profile.handler_calls
        assert inter_profile.handler_calls <= intra_profile.handler_calls, (
            f"{bench}: interproc masks fired more handlers than intra"
        )
        if not bench.startswith("uaf"):
            assert inter.elided > intra.elided, (
                f"{bench}: interproc added no elided sites"
            )
            assert inter_profile.handler_calls < intra_profile.handler_calls, (
                f"{bench}: interproc skipped no additional handler calls"
            )
        off_s = _best_of(lambda: _run(subject, spec, "off"))
        inter_s = _best_of(lambda: _run(subject, spec, "inter"))
        off_calls = off_profile.handler_calls
        rows.append({
            "bench": bench,
            "workload": workload,
            "spec": spec,
            "sites": {
                "intra": intra.counts(),
                "interproc": inter.counts(),
            },
            "handler_calls_off": off_calls,
            "handler_calls_intra": intra_profile.handler_calls,
            "handler_calls_interproc": inter_profile.handler_calls,
            "event_reduction_intra": round(
                1 - intra_profile.handler_calls / off_calls, 4
            ),
            "event_reduction_interproc": round(
                1 - inter_profile.handler_calls / off_calls, 4
            ),
            "wall_off_ms": round(off_s * 1e3, 3),
            "wall_interproc_ms": round(inter_s * 1e3, 3),
        })

    payload = {
        "bench": "interproc",
        "python": platform.python_version(),
        "pairs": rows,
    }
    save_artifact("BENCH_interproc.json", json.dumps(payload, indent=2))

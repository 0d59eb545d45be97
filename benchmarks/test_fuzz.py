"""Fuzz firehose benchmark: sweep throughput and the fault invariant.

Two measurements land in ``benchmarks/artifacts/BENCH_fuzz.json``:

* a deterministic seed sweep over the full 7-cell matrix — cases/sec is
  the firehose's throughput figure, and the sweep itself asserts the
  headline equivalence claim (every case MATCH, or at worst TIMEOUT —
  never DIVERGENCE or CRASH);
* a fuzz-under-fault sweep at a nonzero fault rate — the
  correct-or-typed-never-wrong invariant over generated programs, with
  the fault-point fire counts recorded so a zero-fire run (faults
  configured but never reached) is visible in the artifact.
"""

import json
import platform
import time

from benchmarks.conftest import save_artifact
from repro.fuzz import FIND_OUTCOMES
from repro.fuzz.faults import run_under_faults
from repro.fuzz.oracle import DEFAULT_MATRIX, Oracle

SWEEP_SEEDS = 40
SWEEP_EVENTS = 600
FAULT_SEEDS = 8
FAULT_RATE = 0.05


def test_bench_fuzz_firehose():
    outcomes = {}
    started = time.perf_counter()
    with Oracle(DEFAULT_MATRIX, case_timeout=120.0) as oracle:
        for seed in range(SWEEP_SEEDS):
            outcome = oracle.run_seed(seed, events=SWEEP_EVENTS)
            outcomes[outcome.outcome] = outcomes.get(outcome.outcome, 0) + 1
            assert outcome.outcome not in FIND_OUTCOMES, (
                f"seed {seed}: {outcome.outcome} — {outcome.detail}"
            )
    sweep_wall = time.perf_counter() - started

    faulted = run_under_faults(
        range(FAULT_SEEDS), rate=FAULT_RATE, fault_seed=1337,
        events=SWEEP_EVENTS,
    )
    assert faulted["invariant_held"], faulted["violations"]
    assert sum(faulted["fault_checks"].values()) > 0, (
        "fault plan installed but no fault point was ever consulted"
    )

    payload = {
        "bench": "fuzz",
        "python": platform.python_version(),
        "sweep": {
            "seeds": SWEEP_SEEDS,
            "events_per_case": SWEEP_EVENTS,
            "matrix": list(DEFAULT_MATRIX),
            "matrix_cells": len(DEFAULT_MATRIX),
            "outcomes": outcomes,
            "wall_s": round(sweep_wall, 2),
            "cases_per_s": round(SWEEP_SEEDS / sweep_wall, 2),
        },
        "fault_mode": {
            "seeds": FAULT_SEEDS,
            "rate": FAULT_RATE,
            "fault_seed": faulted["fault_seed"],
            "outcomes": faulted["outcomes"],
            "fault_fires": faulted["fault_fires"],
            "fault_checks_total": sum(faulted["fault_checks"].values()),
            "invariant_held": faulted["invariant_held"],
        },
    }
    save_artifact("BENCH_fuzz.json", json.dumps(payload, indent=2))

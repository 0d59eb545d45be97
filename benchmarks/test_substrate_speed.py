"""Substrate throughput benches: interpreter and compiler hot paths.

Not a paper experiment — these keep the reproduction's own performance
honest (a slow substrate would make the figure benches unusable).

The interpreter benches are *paired*: each runs on both backends — the
reference (object-walking) backend and the default closure-compiled
backend (see ``docs/SUBSTRATE.md``) — and ``test_substrate_bench_artifact``
records the head-to-head numbers in
``benchmarks/artifacts/BENCH_substrate.json`` so the substrate's perf
trajectory is tracked across changes.
"""

import json
import platform
import time

import pytest

from benchmarks.conftest import save_artifact
from repro.ir import parse_module, print_module
from repro.vm import Interpreter
from repro.workloads import ALL


def _plain_run(module, backend):
    def run():
        return Interpreter(module, backend=backend).run()
    return run


def _hooked_run(module, backend):
    from repro.analyses import uaf
    analysis = uaf.compile_()

    def run():
        vm = Interpreter(module, track_shadow=True, backend=backend)
        analysis.attach(vm)
        return vm.run()
    return run


@pytest.mark.parametrize("backend", ["reference", "compiled"])
def test_interpreter_throughput(benchmark, backend):
    """Plain interpretation speed on the heaviest single-threaded kernel."""
    module = ALL["sjeng"].make_module(1)
    profile = benchmark(_plain_run(module, backend))
    assert profile.instructions > 10_000


@pytest.mark.parametrize("backend", ["reference", "compiled"])
def test_interpreter_with_hooks_throughput(benchmark, backend):
    module = ALL["bzip2"].make_module(1)
    profile = benchmark(_hooked_run(module, backend))
    assert profile.handler_calls > 0


def test_ir_assembler_throughput(benchmark):
    module = ALL["mcf"].make_module(1)
    text = print_module(module)

    def roundtrip():
        return parse_module(text)

    parsed = benchmark(roundtrip)
    assert parsed.static_instruction_count() == module.static_instruction_count()


@pytest.mark.parametrize("backend", ["reference", "compiled"])
def test_multithreaded_scheduling_overhead(benchmark, backend):
    module = ALL["water_ns"].make_module(1)
    profile = benchmark(_plain_run(module, backend))
    assert profile.instructions > 5_000


def _best_of(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_substrate_bench_artifact():
    """Head-to-head backend timings -> BENCH_substrate.json.

    The compiled backend must beat the reference backend on every
    paired bench (the design target is >= 2x on plain sjeng, but machine
    variance makes >= 1x the only assertion safe in CI; the artifact
    records the actual ratios).
    """
    pairs = [
        ("interpreter_throughput.sjeng",
         lambda backend: _plain_run(ALL["sjeng"].make_module(1), backend)),
        ("interpreter_throughput.mcf",
         lambda backend: _plain_run(ALL["mcf"].make_module(1), backend)),
        ("interpreter_throughput.libquantum",
         lambda backend: _plain_run(ALL["libquantum"].make_module(1), backend)),
        ("interpreter_with_hooks.bzip2_uaf",
         lambda backend: _hooked_run(ALL["bzip2"].make_module(1), backend)),
        ("multithreaded_scheduling.water_ns",
         lambda backend: _plain_run(ALL["water_ns"].make_module(1), backend)),
    ]
    rows = []
    for name, make in pairs:
        # Warm the stage-1 closure cache out of band.
        make("compiled")()
        reference_s = _best_of(make("reference"))
        compiled_s = _best_of(make("compiled"))
        rows.append({
            "bench": name,
            "reference_ms": round(reference_s * 1e3, 3),
            "compiled_ms": round(compiled_s * 1e3, 3),
            "speedup": round(reference_s / compiled_s, 3),
        })
    payload = {
        "bench": "substrate",
        "python": platform.python_version(),
        "rows": rows,
    }
    save_artifact("BENCH_substrate.json", json.dumps(payload, indent=2))
    for row in rows:
        assert row["speedup"] >= 1.0, (
            f"{row['bench']}: compiled backend slower than reference ({row})"
        )

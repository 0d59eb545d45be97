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
import os
import platform
import statistics
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


def _hooked_run(module, backend, spec="uaf.alda"):
    from repro.exec.pool import build_analysis
    analysis = build_analysis(spec)

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


_REPEATS = 7


def _timings_ms(fn, repeats=_REPEATS):
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - start) * 1e3)
    return samples


def _quartiles(samples):
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return [round(q1, 3), round(median, 3), round(q3, 3)]


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
        # fig3's ALDA MSan: every load, store, branch and alloca is hooked,
        # so this row is dominated by event dispatch.
        ("interpreter_with_hooks.bzip2_msan",
         lambda backend: _hooked_run(ALL["bzip2"].make_module(1), backend,
                                     "msan.alda")),
        ("multithreaded_scheduling.water_ns",
         lambda backend: _plain_run(ALL["water_ns"].make_module(1), backend)),
    ]
    rows = []
    for name, make in pairs:
        # Warm the stage-1 closure cache out of band.
        make("compiled")()
        reference = _timings_ms(make("reference"))
        compiled = _timings_ms(make("compiled"))
        rows.append({
            "bench": name,
            "reference_ms": round(min(reference), 3),
            "compiled_ms": round(min(compiled), 3),
            "speedup": round(min(reference) / min(compiled), 3),
            "reference_quartiles_ms": _quartiles(reference),
            "compiled_quartiles_ms": _quartiles(compiled),
        })
    payload = {
        "bench": "substrate",
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "repeats": _REPEATS,
        "timing": "per row: best of the repeats (speedup from the bests) "
                  "and the repeats' quartiles",
        "rows": rows,
    }
    save_artifact("BENCH_substrate.json", json.dumps(payload, indent=2))
    for row in rows:
        assert row["speedup"] >= 1.0, (
            f"{row['bench']}: compiled backend slower than reference ({row})"
        )

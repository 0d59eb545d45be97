"""Smoke test of the benchmark itself, at its smallest size.

    python3 -m pytest perfbench -q

Checks that every metric ``BENCHMARK.json`` names is emitted with its
unit, that the outputs match the committed references, that an altered
reference is caught as failed operations, and that the benchmark fails
without printing a result when the program is missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

from common import BENCH_DIR, REFERENCE_DIR, ROOT, load_benchmark_spec

SPEC = load_benchmark_spec()


def _run(workload, trace=0, cwd=ROOT, extra=()):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = _result(_run(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        entry["name"]: entry["unit"] for entry in wanted}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _altered_reference(tmp_path):
    altered = tmp_path / "reference"
    shutil.copytree(REFERENCE_DIR, altered)
    fig3 = json.loads((altered / "fig3.json").read_text())
    first = next(iter(fig3["rows"].values()))
    first["ALDAcc"] *= 1.01
    (altered / "fig3.json").write_text(json.dumps(fig3))
    serve = json.loads((altered / "serve.json").read_text())
    for record in serve.values():
        record["n_reports"] += 1
    (altered / "serve.json").write_text(json.dumps(serve))
    return altered


@pytest.mark.parametrize("workload", ["fig3-inline", "serve-cold-hot"])
def test_altered_reference_counts_failures(workload, tmp_path):
    altered = _altered_reference(tmp_path)
    result = _result(_run(workload, extra=("--reference", str(altered))))
    assert result["correct"] is False
    assert result["failed"] / result["attempted"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = _run("fig3-inline", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

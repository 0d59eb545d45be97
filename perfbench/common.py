"""Shared helpers of the end-to-end benchmark: paths, statistics, checks.

Nothing here imports ``repro``; the figure child and the serve workload
put ``src/`` on the path themselves, so this module also works in a
directory that holds only the benchmark (where ``run.py`` must fail).
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_DIR = BENCH_DIR / "reference"
WORK_DIR = BENCH_DIR / ".work"

WORKLOADS = ("fig3-inline", "fig5-record-replay", "serve-cold-hot")


def load_benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def percentile(samples, p: float) -> float:
    """Linear-interpolated percentile of a non-empty sample list."""
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    rank = (p / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def summary(samples) -> dict:
    """Median, quartiles and count of one metric's samples within a run."""
    samples = list(samples)
    if len(samples) >= 2:
        q1, median, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = median = q3 = samples[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(samples)}


def compare_rows(rows: dict, reference: dict) -> tuple:
    """``(checked, mismatched)`` cell counts of figure rows vs a reference.

    Cells are compared exactly: the simulated cycle counts behind each
    overhead are deterministic, and JSON round-trips floats bit for bit.
    A cell missing on either side is a mismatch.
    """
    checked = mismatched = 0
    for workload in sorted(set(rows) | set(reference)):
        row, ref = rows.get(workload, {}), reference.get(workload, {})
        for series in sorted(set(row) | set(ref)):
            checked += 1
            if row.get(series) != ref.get(series):
                mismatched += 1
    return checked, mismatched

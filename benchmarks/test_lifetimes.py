"""Peak RSS of a figure-3 process -> ``BENCH_memory.json``.

Each run's VM, replay state and analysis runtime are freed by reference
counting when the run ends (``docs/SUBSTRATE.md``, "Object lifetimes"),
so a process that makes many runs holds one run's state at a time, not
every dead run the cycle collector has yet to reach.  This records the
peak RSS of fresh processes that each call ``figure3(scale=1)`` twice,
as perfbench's ``fig3-inline`` workload does.  It is a record, not a
gate: nothing is asserted about the number.

The child reads its peak from ``VmHWM`` in ``/proc/self/status``, the
high-water mark of its own address space.  Its ``ru_maxrss`` would not
do: Linux folds the forked copy of the parent's address space into it at
exec, so a child of this pytest process reports at least pytest's RSS.
"""

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from benchmarks.conftest import save_artifact

_REPEATS = 5
_SRC = Path(__file__).resolve().parent.parent / "src"
_CHILD = (
    "from repro.harness.figures import figure3\n"
    "figure3(scale=1)\n"
    "figure3(scale=1)\n"
    "print(open('/proc/self/status').read().split('VmHWM:')[1].split()[0])\n"
)


def _peak_rss_mb() -> float:
    env = dict(os.environ, PYTHONPATH=str(_SRC))
    out = subprocess.run([sys.executable, "-c", _CHILD], env=env, check=True,
                         capture_output=True, text=True).stdout
    return int(out.split()[-1]) / 1024.0  # VmHWM is in kB


def test_memory_bench_artifact():
    samples = [_peak_rss_mb() for _ in range(_REPEATS)]
    q1, median, q3 = statistics.quantiles(samples, n=4)
    payload = {
        "bench": "memory",
        "what": "peak RSS (VmHWM) of a fresh process calling figure3(scale=1) twice",
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "repeats": _REPEATS,
        "peak_rss_mb": [round(sample, 2) for sample in samples],
        "median_mb": round(median, 2),
        "quartiles_mb": [round(q1, 2), round(median, 2), round(q3, 2)],
    }
    save_artifact("BENCH_memory.json", json.dumps(payload, indent=2))

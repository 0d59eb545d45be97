"""Regenerate the benchmark's correctness references under ``reference/``.

    python3 perfbench/make_reference.py

* ``fig3.json``: rows and summary of the inline ``figure3(scale=1)``.
* ``fig5.json``: rows and summary of the *inline* ``figure5(scale=1)``.
  The benchmark runs fig5 through the trace cache, so this reference
  comes from an independent execution path.
* ``serve.json``: per (workload, spec) key, the cycles, metadata bytes
  and report count of an inline ``measure_overhead`` run.

Run it only when a change is meant to alter the simulated results; the
references pin them bit for bit.
"""

from __future__ import annotations

import json
import sys

from common import REFERENCE_DIR, SRC

sys.path.insert(0, str(SRC))

from repro.exec.pool import ANALYSIS_SPECS  # noqa: E402
from repro.harness.figures import figure3, figure5  # noqa: E402
from repro.harness.runner import geomean, measure_overhead, run_plain  # noqa: E402
from repro.workloads import ALL  # noqa: E402


def _write(name: str, payload: dict) -> None:
    REFERENCE_DIR.mkdir(exist_ok=True)
    path = REFERENCE_DIR / name
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


def main() -> int:
    fig3 = figure3(scale=1)
    _write("fig3.json", {"rows": fig3.rows, "summary": fig3.summary,
                         "sim_overhead_x": fig3.summary["avg_aldacc"]})
    fig5 = figure5(scale=1)
    _write("fig5.json", {"rows": fig5.rows, "summary": fig5.summary,
                         "sim_overhead_x": geomean(fig5.series_values("combined"))})
    keys = {}
    for name, workload in ALL.items():
        baseline = run_plain(workload, 1)
        for spec, builder in ANALYSIS_SPECS.items():
            # A fresh attachable per run: hand-tuned baselines keep state.
            result = measure_overhead(workload, builder, 1, spec, baseline)
            keys[f"{name}|{spec}"] = {
                "baseline_cycles": result.baseline_cycles,
                "instrumented_cycles": result.instrumented_cycles,
                "metadata_bytes": result.profile.metadata_bytes,
                "n_reports": len(result.reports),
            }
        print(f"  {name}: {len(ANALYSIS_SPECS)} specs", flush=True)
    _write("serve.json", keys)
    return 0


if __name__ == "__main__":
    sys.exit(main())

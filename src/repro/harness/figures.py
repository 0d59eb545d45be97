"""Regeneration of the paper's Figures 3, 4 and 5.

Each ``figureN`` function returns a :class:`FigureData` whose rows carry
one normalized-overhead value per series per workload, plus derived
summary statistics matching the claims in the paper's text (averages,
the layout-optimization speedup, the combined-analysis speedup).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.harness.runner import geomean
from repro.workloads import fig3_workloads, fig4_workloads, fig5_workloads


@dataclass
class FigureData:
    name: str
    series: List[str]
    rows: Dict[str, Dict[str, float]] = field(default_factory=dict)
    summary: Dict[str, float] = field(default_factory=dict)
    #: per-measurement records (cycles, wall-clock, cache hits) feeding
    #: the harness's ``--json`` BENCH export
    bench: List[dict] = field(default_factory=list)

    def add(self, workload: str, series: str, overhead: float) -> None:
        self.rows.setdefault(workload, {})[series] = overhead

    def series_values(self, series: str) -> List[float]:
        return [row[series] for row in self.rows.values() if series in row]

    def render(self) -> str:
        width = max(len(name) for name in self.rows) if self.rows else 8
        header = " ".join([f"{'workload':<{width}}"] + [f"{s:>14}" for s in self.series])
        lines = [f"== {self.name} ==", header, "-" * len(header)]
        for workload, row in self.rows.items():
            cells = [f"{row.get(s, float('nan')):>14.2f}" for s in self.series]
            lines.append(" ".join([f"{workload:<{width}}"] + cells))
        lines.append("-" * len(header))
        averages = [f"{geomean(self.series_values(s)):>14.2f}" for s in self.series]
        lines.append(" ".join([f"{'geomean':<{width}}"] + averages))
        for key, value in self.summary.items():
            lines.append(f"{key}: {value:.3f}")
        return "\n".join(lines)


def _run_jobs(names, series, scale: int, jobs: int, trace_cache,
              server) -> dict:
    """Run every ``(spec, label)`` of ``series`` on every workload of
    ``names``; results by ``(workload, label)``.

    :func:`repro.exec.run_batch` runs them in process (``jobs=1``) or on
    a worker pool of ``jobs`` processes: inline, through the trace and
    result cache with ``trace_cache``, or on the analysis daemon at
    ``server`` (a ``HOST:PORT`` string).  Replay is bit-identical to
    the inline run, so every way gives the same results.
    """
    # Imported per call, so importing the harness does not load the
    # batch executor.
    from repro.exec import JobSpec, run_batch

    job_specs = [JobSpec(workload, spec, label, scale)
                 for workload in names for spec, label in series]
    results = run_batch(job_specs, processes=jobs, store=trace_cache,
                        server=server)
    return {(r.workload, r.label): r for r in results}


def figure3(scale: int = 1, jobs: int = 1, trace_cache=None,
            server=None) -> FigureData:
    """LLVM MSan vs ALDA MSan across the 20 bug-free workloads."""
    data = FigureData("Figure 3: LLVM MSan vs ALDA MSan (normalized overhead)",
                      series=["LLVM", "ALDAcc"])
    memory_ratios = []
    names = list(fig3_workloads())
    by = _run_jobs(names, (("msan.handtuned", "LLVM"), ("msan.alda", "ALDAcc")),
                   scale, jobs, trace_cache, server)
    for name in names:
        llvm, alda = by[(name, "LLVM")], by[(name, "ALDAcc")]
        data.add(name, "LLVM", llvm.overhead)
        data.add(name, "ALDAcc", alda.overhead)
        memory_ratios.append(
            (alda.metadata_bytes or 1) / (llvm.metadata_bytes or 1)
        )
        data.bench.extend([llvm.to_dict(), alda.to_dict()])
    data.summary["avg_llvm"] = geomean(data.series_values("LLVM"))
    data.summary["avg_aldacc"] = geomean(data.series_values("ALDAcc"))
    # Paper: "we measured the memory overhead ... roughly equivalent
    # memory footprints" — the geomean ALDAcc/LLVM metadata-bytes ratio.
    data.summary["metadata_footprint_ratio"] = geomean(memory_ratios)
    return data


def figure4(scale: int = 1, jobs: int = 1, trace_cache=None,
            server=None) -> FigureData:
    """Hand-tuned Eraser vs ALDAcc-full vs ALDAcc-ds-only on Splash2."""
    data = FigureData(
        "Figure 4: Eraser on Splash2 (normalized overhead)",
        series=["Hand-Tuned", "ALDAcc-full", "ALDAcc-ds-only"],
    )
    memory_ratios = []
    names = list(fig4_workloads())
    series = (("eraser.handtuned", "Hand-Tuned"), ("eraser.full", "ALDAcc-full"),
              ("eraser.ds_only", "ALDAcc-ds-only"))
    by = _run_jobs(names, series, scale, jobs, trace_cache, server)
    for name in names:
        hand = by[(name, "Hand-Tuned")]
        alda = by[(name, "ALDAcc-full")]
        ablate = by[(name, "ALDAcc-ds-only")]
        data.add(name, "Hand-Tuned", hand.overhead)
        data.add(name, "ALDAcc-full", alda.overhead)
        data.add(name, "ALDAcc-ds-only", ablate.overhead)
        memory_ratios.append(
            (alda.metadata_bytes or 1) / (hand.metadata_bytes or 1)
        )
        data.bench.extend([hand.to_dict(), alda.to_dict(), ablate.to_dict()])
    data.summary["avg_hand_tuned"] = geomean(data.series_values("Hand-Tuned"))
    data.summary["avg_aldacc_full"] = geomean(data.series_values("ALDAcc-full"))
    data.summary["avg_ds_only"] = geomean(data.series_values("ALDAcc-ds-only"))
    # The paper reports layout optimizations (coalescing + CSE) as a
    # percentage speedup of full over ds-only.
    data.summary["layout_opt_speedup"] = (
        data.summary["avg_ds_only"] / data.summary["avg_aldacc_full"] - 1.0
    )
    # Paper: "The metadata memory overhead of ALDAcc is also nearly
    # identical between the two implementations."
    data.summary["metadata_footprint_ratio"] = geomean(memory_ratios)
    return data


#: analysis spec key (see repro.exec.pool.ANALYSIS_SPECS) per fig5 series
_FIG5_SPECS = {
    "eraser": "eraser.full",
    "fasttrack": "fasttrack.alda",
    "uaf": "uaf.alda",
    "taint": "taint.alda",
}


def figure5(scale: int = 1, jobs: int = 1, trace_cache=None,
            server=None) -> FigureData:
    """Four analyses run individually vs combined into one (Figure 5)."""
    series = list(_FIG5_SPECS) + ["sum_individual", "combined"]
    data = FigureData("Figure 5: combined analysis (normalized overhead)", series)
    speedups = []
    names = list(fig5_workloads())
    runs = [(spec, label) for label, spec in _FIG5_SPECS.items()]
    runs.append(("fig5.combined", "combined"))
    by = _run_jobs(names, runs, scale, jobs, trace_cache, server)
    for name in names:
        total = 0.0
        for analysis_name in _FIG5_SPECS:
            result = by[(name, analysis_name)]
            data.add(name, analysis_name, result.overhead)
            data.bench.append(result.to_dict())
            total += result.overhead
        combined_result = by[(name, "combined")]
        data.add(name, "sum_individual", total)
        data.add(name, "combined", combined_result.overhead)
        data.bench.append(combined_result.to_dict())
        speedups.append(1.0 - combined_result.overhead / total)
    data.summary["avg_combined_speedup"] = sum(speedups) / len(speedups)
    return data

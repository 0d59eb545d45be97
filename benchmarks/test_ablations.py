"""Ablation benches for the design choices DESIGN.md calls out:

* metadata granularity sweep (paper section 5.1);
* shadow-factor threshold sweep (section 5.3);
* data-structure selection off (the paper's out-of-memory ablation,
  reproduced as a footprint + cycles blowup).
"""

import pytest

from benchmarks.conftest import save_artifact
from repro.analyses import eraser, msan, uaf
from repro.compiler import CompileOptions, compile_analysis
from repro.harness.runner import measure_overhead, run_plain
from repro.workloads import ALL


# ----------------------------------------------------------------------
# granularity sweep
# ----------------------------------------------------------------------
@pytest.mark.parametrize("granularity", [1, 2, 4, 8])
def test_ablation_granularity(benchmark, granularity):
    """MSan at byte/quarter/half/word granularity on bzip2.

    Coarser granularity means fewer shadow slots per range operation:
    cheaper, at the cost of sub-word precision (section 5.1)."""
    analysis = compile_analysis(
        msan.SOURCE,
        CompileOptions(granularity=granularity, analysis_name=f"msan-g{granularity}"),
    )
    workload = ALL["bzip2"]
    baseline = run_plain(workload)
    result = benchmark(
        lambda: measure_overhead(workload, analysis, baseline=baseline)
    )
    assert result.overhead > 1.0


def test_ablation_granularity_monotone(benchmark):
    """Word-granularity MSan is cheaper than byte-granularity MSan."""
    workload = ALL["bzip2"]
    baseline = run_plain(workload)

    def sweep():
        results = {}
        for granularity in (1, 8):
            analysis = compile_analysis(
                msan.SOURCE, CompileOptions(granularity=granularity)
            )
            results[granularity] = measure_overhead(
                workload, analysis, baseline=baseline
            ).overhead
        return results

    overheads = benchmark.pedantic(sweep, rounds=1, iterations=1)
    save_artifact(
        "ablation_granularity.txt",
        "\n".join(f"granularity={g}: {o:.3f}x" for g, o in sorted(overheads.items())),
    )
    assert overheads[8] < overheads[1]


# ----------------------------------------------------------------------
# shadow-factor threshold sweep
# ----------------------------------------------------------------------
@pytest.mark.parametrize("threshold", [0.5, 3.0, 64.0])
def test_ablation_shadow_factor(benchmark, threshold):
    """Eraser with the shadow/page-table cutover moved.

    threshold 0.5 pushes everything into page tables (memory-thrifty,
    slower lookups); 64 pushes the fat Eraser record into offset shadow
    memory (faster lookups, huge committed footprint)."""
    analysis = compile_analysis(
        eraser.SOURCE,
        CompileOptions(
            granularity=8,
            shadow_factor_threshold=threshold,
            analysis_name=f"eraser-sf{threshold}",
        ),
    )
    workload = ALL["fft"]
    baseline = run_plain(workload)
    result = benchmark(
        lambda: measure_overhead(workload, analysis, baseline=baseline)
    )
    assert result.overhead > 1.0


def test_ablation_shadow_factor_tradeoff(benchmark):
    """Shadow memory trades memory for speed vs the page table."""
    workload = ALL["fft"]
    baseline = run_plain(workload)

    def sweep():
        out = {}
        for threshold, label in ((0.5, "pagetable"), (64.0, "shadow")):
            analysis = compile_analysis(
                eraser.SOURCE,
                CompileOptions(granularity=8, shadow_factor_threshold=threshold),
            )
            out[label] = measure_overhead(workload, analysis, baseline=baseline)
        return out

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    save_artifact(
        "ablation_shadow_factor.txt",
        "\n".join(
            f"{label}: {r.overhead:.3f}x, metadata {r.profile.metadata_bytes} B"
            for label, r in results.items()
        ),
    )
    # shadow is at least as fast; the page table's committed footprint is
    # in the same ballpark (its real savings are virtual reservation: the
    # shadow span covers the whole program address space)
    assert results["shadow"].overhead <= results["pagetable"].overhead * 1.02
    assert (
        results["pagetable"].profile.metadata_bytes
        <= results["shadow"].profile.metadata_bytes * 1.5
    )


# ----------------------------------------------------------------------
# data-structure selection off
# ----------------------------------------------------------------------
def test_ablation_structure_selection(benchmark):
    """Everything in generic hash maps + tree sets: the configuration the
    paper could not even finish (out of memory).  Here: a measured
    footprint and cycle blowup."""
    selected = compile_analysis(uaf.SOURCE, CompileOptions(granularity=8))
    unselected = compile_analysis(
        uaf.SOURCE,
        CompileOptions(granularity=8, structure_selection=False,
                       analysis_name="uaf-hash"),
    )
    workload = ALL["bzip2"]
    baseline = run_plain(workload)
    good = measure_overhead(workload, selected, baseline=baseline)
    bad = benchmark(
        lambda: measure_overhead(workload, unselected, baseline=baseline)
    )
    save_artifact(
        "ablation_structure_selection.txt",
        f"selected:   {good.overhead:.3f}x, metadata {good.profile.metadata_bytes} B\n"
        f"unselected: {bad.overhead:.3f}x, metadata {bad.profile.metadata_bytes} B",
    )
    assert bad.overhead > good.overhead
    assert bad.profile.metadata_bytes > good.profile.metadata_bytes


"""Local batch harness paths: figures computed on a worker pool, inline
or through the trace cache (record once, settle from it), are
bit-identical to the in-process inline path (the acceptance bar for
``--jobs`` and ``--trace-cache``)."""

import os
import subprocess
import sys
import textwrap

import pytest

from repro.harness.figures import figure4
from repro.trace import TraceStore


@pytest.fixture(scope="module")
def batch_fig4(tmp_path_factory):
    store = TraceStore(tmp_path_factory.mktemp("fig4-batch-traces"))
    return figure4(jobs=2, trace_cache=store)


def test_figure4_rows_bit_identical(inline_fig4, batch_fig4):
    assert batch_fig4.rows == inline_fig4.rows


def test_figure4_summary_bit_identical(inline_fig4, batch_fig4):
    assert batch_fig4.summary == inline_fig4.summary


def test_figure4_render_identical(inline_fig4, batch_fig4):
    assert batch_fig4.render() == inline_fig4.render()


def test_batch_bench_records_complete(batch_fig4):
    assert len(batch_fig4.bench) == 12 * 3
    for record in batch_fig4.bench:
        assert record["instrumented_cycles"] > 0
        assert record["baseline_cycles"] > 0


def test_trace_cache_at_one_job_matches_inline(inline_fig4, tmp_path_factory):
    """``trace_cache=`` alone runs through the trace cache in process."""
    store = TraceStore(tmp_path_factory.mktemp("fig4-jobs1-traces"))
    result = figure4(trace_cache=store)
    assert result.render() == inline_fig4.render()
    assert len(result.bench) == 12 * 3


def test_pool_without_trace_cache_matches_inline(inline_fig4):
    """``jobs=2`` alone runs each workload inline on a pool worker."""
    result = figure4(jobs=2)
    assert result.rows == inline_fig4.rows
    assert result.summary == inline_fig4.summary
    assert result.render() == inline_fig4.render()
    assert len(result.bench) == 12 * 3
    assert not any(record["cached"] for record in result.bench)


def test_inline_figure_loads_no_trace_package():
    """Without a trace cache nothing is recorded or decoded, and without
    a server nothing is sent, so a fresh process running ``figure3``
    inline imports neither ``repro.trace`` nor ``repro.serve``."""
    script = textwrap.dedent("""
        import sys
        import repro.harness.figures as figures
        from repro.workloads import ALL

        figures.fig3_workloads = lambda: {"bzip2": ALL["bzip2"]}
        assert list(figures.figure3().rows) == ["bzip2"]
        print(sorted(name for name in sys.modules
                     if name.startswith(("repro.trace", "repro.serve"))))
    """)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.strip() == "[]"

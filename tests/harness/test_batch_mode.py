"""Local batch harness path: figures computed through ``run_batch``
(record once, settle from the trace cache) are bit-identical to the
inline sequential path (the acceptance bar for ``--jobs`` and
``--trace-cache``)."""

import pytest

from repro.harness.figures import figure4
from repro.trace import TraceStore


@pytest.fixture(scope="module")
def inline_fig4():
    return figure4()


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
    """``trace_cache=`` alone selects batch mode in process."""
    store = TraceStore(tmp_path_factory.mktemp("fig4-jobs1-traces"))
    result = figure4(trace_cache=store)
    assert result.render() == inline_fig4.render()
    assert len(result.bench) == 12 * 3

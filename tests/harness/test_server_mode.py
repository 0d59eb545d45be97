"""Server-mode harness path: figures computed against a daemon are
bit-identical to the inline sequential path (the acceptance bar for
`--server`)."""

import pytest

from repro.harness.figures import figure4
from repro.serve import ServeConfig, serve_in_thread


@pytest.fixture(scope="module")
def server():
    handle = serve_in_thread(ServeConfig(workers=2))
    yield handle
    handle.stop()


@pytest.fixture(scope="module")
def served_fig4(server, tmp_path_factory):
    from repro.trace import TraceStore

    store = TraceStore(tmp_path_factory.mktemp("fig4-client-traces"))
    return figure4(server=server.address, trace_cache=store)


def test_figure4_rows_bit_identical(inline_fig4, served_fig4):
    assert served_fig4.rows == inline_fig4.rows


def test_figure4_summary_bit_identical(inline_fig4, served_fig4):
    assert served_fig4.summary == inline_fig4.summary


def test_figure4_render_identical(inline_fig4, served_fig4):
    assert served_fig4.render() == inline_fig4.render()


def test_served_bench_records_complete(served_fig4):
    assert len(served_fig4.bench) == 12 * 3
    for record in served_fig4.bench:
        assert record["instrumented_cycles"] > 0
        assert record["baseline_cycles"] > 0
        assert record["overhead"] > 0

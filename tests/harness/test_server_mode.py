"""Server-mode harness path: figures computed against a daemon are
bit-identical to the inline sequential path (the acceptance bar for
`--server`)."""

import pytest

import repro.harness.figures as figures
from repro.exec import workers
from repro.harness.figures import figure4
from repro.serve import ServeClient, ServeConfig, serve_in_thread
from repro.trace import TraceStore
from repro.workloads import ALL


@pytest.fixture(scope="module")
def server():
    handle = serve_in_thread(ServeConfig(workers=2))
    yield handle
    handle.stop()


@pytest.fixture(scope="module")
def served_fig4(server, tmp_path_factory):
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


def test_served_jobs_run_on_a_pool(inline_fig4, server, monkeypatch):
    """``jobs=2`` with ``server=`` runs the workloads' clients on a
    two-process pool, as it does without a daemon."""
    sizes = []

    class CountingPool(workers.PersistentWorkerPool):
        def __init__(self, size, *args, **kwargs):
            sizes.append(size)
            super().__init__(size, *args, **kwargs)

    monkeypatch.setattr(workers, "PersistentWorkerPool", CountingPool)
    served = figure4(server=server.address, jobs=2)
    assert sizes == [2]
    assert served.rows == inline_fig4.rows


def test_daemon_answers_a_figure_cache_as_hits(tmp_path, monkeypatch):
    """A daemon over the store a ``figure4(trace_cache=...)`` run filled
    answers every key from the result cache with a complete record, and
    opens no trace to do it."""
    names = ("fft", "radix")
    monkeypatch.setattr(figures, "fig4_workloads",
                        lambda: {name: ALL[name] for name in names})
    figure4(trace_cache=str(tmp_path))
    specs = ("eraser.handtuned", "eraser.full", "eraser.ds_only")
    handle = serve_in_thread(ServeConfig(workers=0, store_root=str(tmp_path)))
    try:
        store = handle.server.store
        before = store.integrity_stats()["verified_trace_reads"]
        with ServeClient(handle.address) as client:
            for name in names:
                meta = store.read_tail_meta(store.trace_path(ALL[name], 1))
                for spec in specs:
                    response = client.submit(spec, digest=meta["digest"])
                    record = response["result"]
                    assert response["cached"], (name, spec)
                    assert record["trace_digest"] == meta["digest"]
                    assert (record["baseline_cycles"]
                            == meta["summary"]["plain_cycles"])
            snap = client.stats()
        assert store.integrity_stats()["verified_trace_reads"] == before
    finally:
        handle.stop()
    assert snap["counters"]["cache_hits"] == len(names) * len(specs)
    assert snap["counters"].get("cache_misses", 0) == 0

"""Server-mode harness path: figures computed against a daemon are
bit-identical to the inline sequential path (the acceptance bar for
`--server`)."""

from pathlib import Path

import pytest

import repro.harness.figures as figures
from repro.exec import JobSpec, run_batch, workers
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


def test_served_group_reads_its_trace_once(server, tmp_path, monkeypatch):
    """A served group verifies its recorded trace and uploads the same
    bytes: the trace file is read once."""
    monkeypatch.setattr(figures, "fig4_workloads", lambda: {"fft": ALL["fft"]})
    reads = []
    read_bytes = Path.read_bytes

    def spy(path):
        if path.suffix == ".trace" and tmp_path in path.parents:
            reads.append(path.name)
        return read_bytes(path)

    monkeypatch.setattr(Path, "read_bytes", spy)
    store = TraceStore(tmp_path)
    before = store.integrity_stats()["verified_trace_reads"]
    figure4(server=server.address, trace_cache=store)
    assert store.integrity_stats()["verified_trace_reads"] == before + 1
    assert len(reads) == 1


def test_daemon_over_a_figure_cache_answers_inline_numbers(tmp_path,
                                                           monkeypatch):
    """A daemon over the store a ``figure4(trace_cache=...)`` run filled
    answers every ``(trace, spec)`` key with the inline numbers: the
    figure's results, keyed by module digest, never answer for a trace,
    and the daemon's replays leave the figure's results in place."""
    names = ("fft", "radix")
    monkeypatch.setattr(figures, "fig4_workloads",
                        lambda: {name: ALL[name] for name in names})
    cold = figure4(trace_cache=str(tmp_path))
    specs = ("eraser.handtuned", "eraser.full", "eraser.ds_only")
    inline = {(r.workload, r.spec): r for r in run_batch(
        [JobSpec(name, spec) for name in names for spec in specs])}
    traces = TraceStore(tmp_path / "client")
    handle = serve_in_thread(ServeConfig(workers=0, store_root=str(tmp_path)))
    try:
        with ServeClient(handle.address) as client:
            for name in names:
                reader, data = traces.get_or_record_bytes(ALL[name], 1)
                for spec in specs:
                    response = client.submit_digest_first(spec, reader.digest, data)
                    record, expected = response["result"], inline[(name, spec)]
                    assert record["trace_digest"] == reader.digest
                    for field in ("baseline_cycles", "instrumented_cycles",
                                  "metadata_bytes", "n_reports"):
                        assert record[field] == getattr(expected, field), \
                            (name, spec, field)
            snap = client.stats()
    finally:
        handle.stop()
    assert snap["counters"].get("cache_hits", 0) == 0
    warm = figure4(trace_cache=str(tmp_path))
    assert warm.rows == cold.rows
    assert all(record["cached"] for record in warm.bench)

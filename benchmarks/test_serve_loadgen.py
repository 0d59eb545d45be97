"""Serve-daemon load benchmark: amortization under sustained traffic.

The serving-layer acceptance bar for :mod:`repro.serve`: a resident
daemon with warm workers answers cache hits an order of magnitude (at
least 10x) faster than cold replays, sustains a mixed request stream
with zero errors, and reports latency percentiles through its metrics
layer.  The full loadgen report is saved as an artifact.
"""

import json

from benchmarks.conftest import save_artifact
from repro.serve import ServeConfig, serve_in_thread
from repro.serve.client import ServeClient
from repro.serve.loadgen import LoadGen, render_report
from repro.trace import TraceStore
from repro.workloads import ALL

REQUESTS = 120
SPECS = ["eraser.full", "msan.alda", "eraser.ds_only"]


def test_loadgen_amortization(tmp_path):
    store = TraceStore(tmp_path / "client-traces")
    reader = store.get_or_record(ALL["fft"], 1)
    trace_bytes = store.trace_path(ALL["fft"], 1).read_bytes()

    handle = serve_in_thread(
        ServeConfig(workers=2, store_root=str(tmp_path / "store"))
    )
    try:
        report = LoadGen(
            handle.address,
            SPECS,
            reader.digest,
            trace_bytes,
            requests=REQUESTS,
            concurrency=4,
        ).run()
        report["config"]["workload"] = "fft"
        report["config"]["scale"] = 1
        with ServeClient(handle.address) as client:
            snap = client.stats()
    finally:
        handle.stop()

    assert report["completed"] == REQUESTS
    assert report["errors"] == 0
    assert report["latency_ms"]["p99"] > 0
    # The serving payoff: warm cache hits vs cold replays of the same
    # trace.  The paper-scale bar is 10x; locally this lands >100x.
    assert report["amortization_speedup"] >= 10.0
    assert snap["counters"]["results_total"] == REQUESTS
    assert snap["histograms"]["request_latency_ms"]["count"] == REQUESTS

    report["server_stats"] = snap
    save_artifact(
        "serve_loadgen.json", json.dumps(report, indent=2, sort_keys=True)
    )
    print(render_report(report))

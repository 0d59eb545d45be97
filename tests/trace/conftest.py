"""Golden traces shared by the codec tests."""

import io

import pytest

from repro.fuzz.gen import GenParams, synthetic_workload
from repro.trace.recorder import record_workload
from repro.workloads import ALL

#: A call-heavy, two-thread generated program: 153 frame pushes (serials
#: past 127) and 151 interned strings (string ids past 127).
CALL_HEAVY = GenParams(seed=11, events=3000, call_shape="scc", threads=2)

#: Scale-1 payload SHA-256 digests, committed from an earlier encoder.
#: gcc is single-threaded; memcached runs four threads; water_ns has
#: register values wider than 64 bits.
GOLDEN = {
    "gcc": "6371679e3cf8c8707b49f32da90434c837af80225460bb2d24dd9b079700bfe5",
    "memcached": "f6bcaed46086da8780996fce7cab72e0ca474dad7c006d547d687eb8637cd671",
    "water_ns": "6bf48e7679159d6df7b4ec142c0da56bc84edfcc8b80de03f7e7b57a467a0e7c",
    "call-heavy": "f0d9a51295e081b946aa17fd01be50f24fb98f97b67b9b888d031e2f4fac3650",
}


@pytest.fixture(scope="session")
def golden_traces():
    """name -> trace container bytes, recorded once.

    A 4 KiB segment target cuts every trace into many segments, so the
    tests read across segment boundaries.
    """
    traces = {}
    for name in GOLDEN:
        workload = synthetic_workload(CALL_HEAVY) if name == "call-heavy" else ALL[name]
        sink = io.BytesIO()
        record_workload(workload, 1, sink, segment_target_bytes=4096)
        traces[name] = sink.getvalue()
    return traces

"""The headline invariant: partitioned replay is bit-identical to
monolithic replay — every profile field, every report, every workload,
every analysis spec.

Mirrors ``tests/vm/test_backends.py``: the full 25-workload x 9-spec
matrix runs through both paths and compares everything observable.  To
keep the sweep affordable each (workload, spec) cell replays
partitioned at one shard count, rotating through 1/2/4 across the spec
axis so every workload is exercised at every shard count; dedicated
sweeps then run all shard counts on representative traces (the largest
multi-segment trace and a small few-segment one).  Backend coverage
rides on byte-identical recording: both VM backends must produce the
same trace container, so one replay covers both.
"""

import dataclasses
import io

import pytest

from repro.exec.pool import ANALYSIS_SPECS, build_analysis
from repro.trace import record_workload
from repro.trace.replayer import TraceReplayer
from repro.workloads import ALL

from repro.partition import replay_partitioned

SPECS = sorted(ANALYSIS_SPECS)
SHARD_ROTATION = (1, 2, 4)


def _mono(store, path, spec):
    replayer = TraceReplayer(store.open_path(path))
    profile, reporter = replayer.replay([build_analysis(spec)])
    return dataclasses.asdict(profile), list(reporter)


def _partitioned(store, path, spec, shards):
    profile, reporter, stats = replay_partitioned(store, path, [spec], shards)
    return dataclasses.asdict(profile), list(reporter), stats


@pytest.mark.parametrize("name", sorted(ALL))
def test_partitioned_bit_identical(name, recorded, part_store):
    """All analysis specs on one workload, shard counts rotating 1/2/4."""
    path = recorded(name)
    for i, spec in enumerate(SPECS):
        shards = SHARD_ROTATION[i % len(SHARD_ROTATION)]
        expected = _mono(part_store, path, spec)
        profile, reports, stats = _partitioned(part_store, path, spec, shards)
        assert profile == expected[0], f"{name}/{spec}/x{shards}: profile"
        assert reports == expected[1], f"{name}/{spec}/x{shards}: reports"
        assert stats["records"] > 0


@pytest.mark.parametrize("shards", [1, 2, 4])
def test_largest_trace_all_shard_counts(recorded, part_store, shards):
    """sort: the largest, most-segmented trace, full shard sweep."""
    path = recorded("sort")
    for spec in ("eraser.full", "fig5.combined", "msan.handtuned"):
        expected = _mono(part_store, path, spec)
        profile, reports, stats = _partitioned(part_store, path, spec, shards)
        assert profile == expected[0], f"sort/{spec}/x{shards}"
        assert reports == expected[1]
        assert stats["planned_shards"] <= shards


@pytest.mark.parametrize("shards", [1, 2, 4])
def test_small_trace_all_shard_counts(recorded, part_store, shards):
    """fft: few segments, so requested > planned; still exact."""
    path = recorded("fft")
    for spec in SPECS:
        expected = _mono(part_store, path, spec)
        profile, reports, _stats = _partitioned(part_store, path, spec, shards)
        assert profile == expected[0], f"fft/{spec}/x{shards}"
        assert reports == expected[1]


def test_v2_recording_identical_across_backends():
    """Both VM backends must emit byte-identical containers — which
    makes every differential result above backend-independent."""
    streams = {}
    for backend in ("reference", "compiled"):
        buffer = io.BytesIO()
        record_workload(ALL["radix"], 1, buffer, backend=backend,
                        segment_target_bytes=64 * 1024)
        streams[backend] = buffer.getvalue()
    assert streams["reference"] == streams["compiled"]

"""v2 segment integrity: range reads verify per-segment digests.

The streaming contract extends ``test_store_integrity.py`` to the v2
container: :meth:`TraceStore.read_segment` returns verified bytes for
exactly one segment without touching the rest of the blob, a corrupt
*middle* segment quarantines the trace on its own read, and the tail
meta is readable without any payload IO.
"""

import json

import pytest

from repro import faultline
from repro.faultline import FaultPlan, FaultSpec
from repro.trace.format import TraceReader
from repro.trace.store import StoreCorruptionError, TraceStore
from repro.workloads import ALL


@pytest.fixture(autouse=True)
def _no_plan():
    faultline.clear()
    yield
    faultline.clear()


@pytest.fixture
def store(tmp_path):
    return TraceStore(tmp_path / "store")


def _recorded_v2(store, name="sort"):
    store.get_or_record(ALL[name], 1)
    path = store.trace_path(ALL[name], 1)
    meta = TraceReader.read_tail_meta(path)
    assert len(meta["segments"]) >= 3, "need a multi-segment trace"
    return path, meta


def test_read_segment_returns_verified_slice(store):
    path, meta = _recorded_v2(store)
    reader = store.open_path(path)
    for entry in meta["segments"]:
        chunk = store.read_segment(path, entry)
        assert chunk == reader.payload[
            entry_start(meta, entry):entry_start(meta, entry) + entry["ulen"]
        ]


def entry_start(meta, entry):
    start = 0
    for candidate in meta["segments"]:
        if candidate is entry:
            return start
        start += candidate["ulen"]
    raise AssertionError("entry not in meta")


def test_corrupt_middle_segment_quarantines_on_range_read(store):
    path, meta = _recorded_v2(store)
    middle = meta["segments"][len(meta["segments"]) // 2]
    data = bytearray(path.read_bytes())
    data[middle["offset"] + middle["clen"] // 2] ^= 0xFF
    path.write_bytes(bytes(data))

    before = store.integrity_stats()
    with pytest.raises(StoreCorruptionError):
        store.read_segment(path, middle)
    assert store.integrity_stats()["corrupt_detected"] > before["corrupt_detected"]
    assert path.name in store.quarantined_entries()
    sidecar = store.quarantine_dir / f"{path.name}.reason.json"
    assert json.loads(sidecar.read_text())["reason"]


def test_intact_segments_still_read_after_another_corrupts(store):
    """Range reads are independent: segment k's corruption is invisible
    to a read of segment j (detection happens on k's own read)."""
    path, meta = _recorded_v2(store)
    first, last = meta["segments"][0], meta["segments"][-1]
    data = bytearray(path.read_bytes())
    data[last["offset"] + 2] ^= 0xFF
    path.write_bytes(bytes(data))
    assert len(store.read_segment(path, first)) == first["ulen"]
    with pytest.raises(StoreCorruptionError):
        store.read_segment(path, last)


def test_read_tail_meta_needs_no_payload(store):
    path, meta = _recorded_v2(store)
    # Corrupt every payload byte; the tail meta must still read.
    data = bytearray(path.read_bytes())
    for entry in meta["segments"]:
        data[entry["offset"]] ^= 0xFF
    path.write_bytes(bytes(data))
    tail = store.read_tail_meta(path)
    assert tail["digest"] == meta["digest"]
    assert len(tail["segments"]) == len(meta["segments"])


def test_read_tail_meta_quarantines_garbage(store):
    path = store.root / "garbage.trace"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(b"ALDATRC1" + b"\x00" * 32)
    with pytest.raises(StoreCorruptionError):
        store.read_tail_meta(path)
    assert path.name in store.quarantined_entries()


def test_verify_segments_reports_failing_indices(store):
    path, meta = _recorded_v2(store)
    reader = store.open_path(path)
    assert reader.verify_segments() == []
    # Construction already verifies the container, so probe the
    # re-verification path by corrupting the decoded payload in place.
    victim = 1
    start = sum(e["ulen"] for e in meta["segments"][:victim])
    payload = bytearray(reader.payload)
    payload[start] ^= 0xFF
    reader.payload = bytes(payload)
    assert reader.verify_segments() == [victim]


def test_store_read_corrupt_fault_hits_segment_reads(store):
    path, meta = _recorded_v2(store)
    faultline.install(FaultPlan(seed=5, points={
        "store.read.corrupt": FaultSpec(probability=1.0, max_fires=1),
    }))
    with pytest.raises(StoreCorruptionError):
        store.read_segment(path, meta["segments"][0])
    assert path.name in store.quarantined_entries()


def test_segment_reads_counted_as_verified(store):
    path, meta = _recorded_v2(store)
    before = store.integrity_stats()["verified_trace_reads"]
    store.read_segment(path, meta["segments"][0])
    assert store.integrity_stats()["verified_trace_reads"] == before + 1


def test_fsck_passes_v2_store(store):
    _recorded_v2(store)
    report = store.fsck()
    assert report["clean"] is True

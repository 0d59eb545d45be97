"""Store integrity: digest verification, quarantine, fsck, fault points.

The contract under test: a corrupt store entry is *never served*.  Reads
either return verified bytes or raise the typed
:class:`StoreCorruptionError` (traces) / read as a cache miss (results),
and the corrupt entry lands in ``quarantine/`` with a reason sidecar.
"""

import json
import struct
import zlib

import pytest

from repro import faultline
from repro.faultline import FaultPlan, FaultSpec
from repro.trace import __main__ as trace_cli
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


def _ingested(store) -> str:
    """Record fft and mirror it into by-digest/; returns the digest."""
    store.get_or_record(ALL["fft"], 1)
    blob = store.trace_path(ALL["fft"], 1).read_bytes()
    return store.ingest(blob).digest


def _flip_byte(path, index=100):
    data = bytearray(path.read_bytes())
    data[index] ^= 0xFF
    path.write_bytes(bytes(data))


# ----------------------------------------------------------------------
# trace verification + quarantine
# ----------------------------------------------------------------------
def test_bit_flip_raises_typed_error_and_quarantines(store):
    digest = _ingested(store)
    path = store.digest_path(digest)
    _flip_byte(path)
    with pytest.raises(StoreCorruptionError) as excinfo:
        store.open_by_digest(digest)
    assert "corrupt store entry" in str(excinfo.value)
    assert not path.exists()
    assert path.name in store.quarantined_entries()
    sidecar = store.quarantine_dir / f"{path.name}.reason.json"
    reason = json.loads(sidecar.read_text())
    assert reason["entry"] == path.name
    assert reason["reason"]
    # quarantined: the digest now reads as unknown, not as garbage
    with pytest.raises(KeyError):
        store.open_by_digest(digest)


def test_truncated_trace_raises_typed_error(store):
    digest = _ingested(store)
    path = store.digest_path(digest)
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
    with pytest.raises(StoreCorruptionError):
        store.open_by_digest(digest)
    assert path.name in store.quarantined_entries()


def test_wrong_address_detected_even_with_valid_payload(store):
    # A self-consistent trace filed under the wrong digest is still
    # corruption: content-addressing is the lookup contract.
    digest = _ingested(store)
    blob = store.digest_path(digest).read_bytes()
    bogus = "0" * 64
    store.digest_path(bogus).write_bytes(blob)
    with pytest.raises(StoreCorruptionError, match="does not match its address"):
        store.open_by_digest(bogus)


def test_get_or_record_self_heals_local_corruption(store):
    reader = store.get_or_record(ALL["fft"], 1)
    path = store.trace_path(ALL["fft"], 1)
    _flip_byte(path)
    healed = store.get_or_record(ALL["fft"], 1)  # quarantine + re-record
    assert healed.digest == reader.digest
    assert healed.verify()
    assert path.name in store.quarantined_entries()


def test_stale_v1_cache_entry_self_heals(store, tmp_path):
    """A version-1 file left in the cache is quarantined and re-recorded
    in place as the current container, with the same payload digest."""
    fresh = TraceStore(tmp_path / "fresh").get_or_record(ALL["fft"], 1)
    meta = json.dumps({"version": 1, "digest": fresh.digest}).encode()
    path = store.trace_path(ALL["fft"], 1)
    path.write_bytes(b"ALDATRC1" + zlib.compress(fresh.payload) + meta
                     + struct.pack("<I", len(meta)) + b"ALDT")
    healed = store.get_or_record(ALL["fft"], 1)
    assert path.name in store.quarantined_entries()
    assert path.read_bytes()[:8] == b"ALDATRC2"
    assert healed.digest == fresh.digest
    assert healed.verify()


def test_verified_reads_counted(store):
    before = store.integrity_stats()
    digest = _ingested(store)
    store.open_by_digest(digest)
    after = store.integrity_stats()
    assert after["verified_trace_reads"] > before["verified_trace_reads"]


# ----------------------------------------------------------------------
# result-cache verification
# ----------------------------------------------------------------------
def test_result_round_trip_is_sha_wrapped(store):
    store.store_result("k" * 64, {"spec": "x", "instrumented_cycles": 7})
    raw = json.loads(store._result_path("k" * 64).read_text())
    assert set(raw) == {"sha256", "record"}
    assert store.load_result("k" * 64) == {"spec": "x", "instrumented_cycles": 7}


def test_tampered_result_reads_as_miss_and_quarantines(store):
    key = "k" * 64
    store.store_result(key, {"instrumented_cycles": 7})
    path = store._result_path(key)
    payload = json.loads(path.read_text())
    payload["record"]["instrumented_cycles"] = 8  # the lie
    path.write_text(json.dumps(payload))
    assert store.load_result(key) is None
    assert path.name in store.quarantined_entries()


def test_garbage_result_reads_as_miss(store):
    key = "k" * 64
    store._result_path(key).write_text("{not json")
    assert store.load_result(key) is None
    assert store._result_path(key).name in store.quarantined_entries()


def test_legacy_bare_result_still_loads(store):
    key = "k" * 64
    store._result_path(key).write_text(json.dumps({"instrumented_cycles": 7}))
    assert store.load_result(key) == {"instrumented_cycles": 7}


# ----------------------------------------------------------------------
# fault points
# ----------------------------------------------------------------------
def test_read_corrupt_fault_detected_never_served(store):
    digest = _ingested(store)
    faultline.install(FaultPlan(seed=11, points={
        "store.read.corrupt": FaultSpec(probability=1.0, max_fires=1),
    }))
    with pytest.raises(StoreCorruptionError):
        store.open_by_digest(digest)
    # The fault flipped a byte of the *read*, not the file: the on-disk
    # entry was good, but it is quarantined anyway (indistinguishable
    # from media corruption at detection time).  Upload heals it.
    assert store.find_by_digest(digest) is None


def test_write_partial_fault_caught_on_next_read(store):
    store.get_or_record(ALL["fft"], 1)
    blob = store.trace_path(ALL["fft"], 1).read_bytes()
    faultline.install(FaultPlan(seed=11, points={
        "store.write.partial": FaultSpec(probability=1.0, max_fires=1),
    }))
    reader = store.ingest(blob)  # write is truncated by the fault
    with pytest.raises(StoreCorruptionError):
        store.open_by_digest(reader.digest)
    faultline.clear()
    healed = store.ingest(blob)  # re-upload repairs
    assert store.open_by_digest(healed.digest).verify()


# ----------------------------------------------------------------------
# fsck
# ----------------------------------------------------------------------
def test_fsck_clean_store(store):
    _ingested(store)
    store.store_result("k" * 64, {"ok": 1})
    report = store.fsck()
    assert report["clean"] is True
    assert report["traces_ok"] == 2  # local + by-digest copy
    assert report["results_ok"] == 1
    assert report["corrupt"] == []


def test_fsck_quarantines_all_corruption_kinds(store):
    digest = _ingested(store)
    _flip_byte(store.digest_path(digest))
    _flip_byte(store.trace_path(ALL["fft"], 1))
    store.store_result("k" * 64, {"ok": 1})
    result_path = store._result_path("k" * 64)
    result_path.write_text(result_path.read_text().replace('"ok": 1', '"ok": 2'))

    report = store.fsck(repair=True)
    assert report["clean"] is False
    assert report["repaired"] is True
    assert len(report["corrupt"]) == 3
    assert len(store.quarantined_entries()) == 3
    # a second pass over the repaired store is clean
    clean = store.fsck()
    assert clean["clean"] is True
    assert len(clean["already_quarantined"]) == 3


def test_fsck_dry_run_reports_without_moving(store):
    digest = _ingested(store)
    path = store.digest_path(digest)
    _flip_byte(path)
    report = store.fsck(repair=False)
    assert report["clean"] is False
    assert report["repaired"] is False
    assert path.exists()
    assert store.quarantined_entries() == []


def test_fsck_cli(store, capsys):
    digest = _ingested(store)
    assert trace_cli.main(["fsck", "--store", str(store.root)]) == 0
    capsys.readouterr()
    _flip_byte(store.digest_path(digest))
    assert trace_cli.main(["fsck", "--store", str(store.root), "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["clean"] is False and len(report["corrupt"]) == 1
    assert trace_cli.main(["fsck", "--store", str(store.root)]) == 0  # repaired


def test_fsck_cli_usage_error(capsys):
    assert trace_cli.main([]) == 2


# ----------------------------------------------------------------------
# quarantine pruning (the pen must not grow without bound)
# ----------------------------------------------------------------------
def _quarantine_one(store) -> str:
    """Corrupt the by-digest entry and trip verification; returns its name."""
    digest = _ingested(store)
    path = store.digest_path(digest)
    _flip_byte(path)
    with pytest.raises(StoreCorruptionError):
        store.open_by_digest(digest)
    return path.name


def test_prune_empties_the_pen_by_default(store):
    name = _quarantine_one(store)
    report = store.prune_quarantine()
    assert report["pruned"] == [name]
    assert report["kept"] == 0
    assert store.quarantined_entries() == []
    # the reason sidecar went with the entry
    assert list(store.quarantine_dir.glob("*.reason.json")) == []


def test_prune_max_age_keeps_young_entries(store):
    import time

    name = _quarantine_one(store)
    young = store.prune_quarantine(max_age_seconds=3600)
    assert young["kept"] == 1 and young["pruned"] == []
    assert name in store.quarantined_entries()
    # two hours later the same entry ages out
    old = store.prune_quarantine(max_age_seconds=3600, now=time.time() + 7200)
    assert old["pruned"] == [name]
    assert store.quarantined_entries() == []


def test_prune_falls_back_to_mtime_without_sidecar(store):
    name = _quarantine_one(store)
    (store.quarantine_dir / f"{name}.reason.json").unlink()
    report = store.prune_quarantine()
    assert report["pruned"] == [name]


def test_prune_sweeps_orphan_sidecars(store):
    name = _quarantine_one(store)
    (store.quarantine_dir / name).unlink()  # entry gone, sidecar orphaned
    store.prune_quarantine(max_age_seconds=10**9)  # prunes nothing by age
    assert list(store.quarantine_dir.glob("*.reason.json")) == []


def test_prune_on_empty_store(store):
    assert store.prune_quarantine() == {"examined": 0, "pruned": [], "kept": 0}


def test_fsck_cli_prune(store, capsys):
    name = _quarantine_one(store)
    assert trace_cli.main(["fsck", "--store", str(store.root), "--prune",
                           "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pruned"]["pruned"] == [name]
    assert store.quarantined_entries() == []


def test_fsck_cli_prune_respects_max_age(store, capsys):
    name = _quarantine_one(store)
    assert trace_cli.main(["fsck", "--store", str(store.root), "--prune",
                           "--quarantine-max-age", "3600"]) == 0
    capsys.readouterr()
    assert name in store.quarantined_entries()

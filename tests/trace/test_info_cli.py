"""`python -m repro.trace info` — container inspection CLI."""

import json

import pytest

from repro.trace import __main__ as trace_cli
from repro.trace.format import TraceReader
from repro.trace.store import TraceStore
from repro.workloads import ALL


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    return TraceStore(tmp_path_factory.mktemp("info_cli") / "store")


def _recorded(store, name):
    store.get_or_record(ALL[name], 1)
    return store.trace_path(ALL[name], 1)


def test_info_v2_prints_segment_table(store, capsys):
    path = _recorded(store, "sort")
    meta = TraceReader.read_tail_meta(path)
    assert trace_cli.main(["info", str(path)]) == 0
    out = capsys.readouterr().out
    assert "ALDATRC v2" in out
    assert f"segments: {len(meta['segments'])}" in out
    assert meta["digest"] in out
    # One table row per segment, each carrying its record count.
    for i, entry in enumerate(meta["segments"]):
        assert f"{i:>4} {entry['offset']:>10}" in out
        assert str(entry["n_records"]) in out


def test_info_rejects_v1_container(store, tmp_path, capsys):
    path = tmp_path / "v1.trace"
    path.write_bytes(b"ALDATRC1" + _recorded(store, "sort").read_bytes()[8:])
    assert trace_cli.main(["info", str(path)]) == 1
    assert "unsupported trace container version '1'" in capsys.readouterr().err


def test_info_json_is_machine_readable(store, capsys):
    path = _recorded(store, "sort")
    meta = TraceReader.read_tail_meta(path)
    assert trace_cli.main(["info", str(path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["version"] == 2
    assert report["digest"] == meta["digest"]
    assert report["n_segments"] == len(meta["segments"])
    assert sum(s["n_records"] for s in report["segments"]) == meta["n_records"]
    for row, entry in zip(report["segments"], meta["segments"]):
        assert row["compressed_bytes"] == entry["clen"]
        assert row["uncompressed_bytes"] == entry["ulen"]


def test_info_rejects_garbage(tmp_path, capsys):
    path = tmp_path / "garbage.trace"
    path.write_bytes(b"not a trace at all")
    assert trace_cli.main(["info", str(path)]) == 1
    assert "bad" in capsys.readouterr().err


def test_info_rejects_missing_file(tmp_path, capsys):
    assert trace_cli.main(["info", str(tmp_path / "nope.trace")]) == 1
    assert "cannot read" in capsys.readouterr().err

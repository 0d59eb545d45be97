"""Tests for the varint trace container format."""

import io

import pytest

from repro.trace.format import (
    MAGIC,
    OP_ACCESS,
    OP_EVENT,
    OP_POP,
    OP_PUSH,
    OP_SET0,
    OP_SUMMARY,
    TraceFormatError,
    TraceReader,
    TraceWriter,
    read_varint,
    unzigzag,
    write_varint,
    zigzag,
)


@pytest.mark.parametrize(
    "value", [0, 1, 127, 128, 300, 2**16, 2**32, 2**63, 2**100]
)
def test_varint_roundtrip(value):
    buf = bytearray()
    write_varint(buf, value)
    decoded, pos = read_varint(bytes(buf), 0)
    assert decoded == value
    assert pos == len(buf)


def test_varint_rejects_negative():
    with pytest.raises(ValueError):
        write_varint(bytearray(), -1)


def test_varint_sequence_roundtrip():
    values = [0, 5, 2**40, 7, 2**7, 2**7 - 1]
    buf = bytearray()
    for value in values:
        write_varint(buf, value)
    data = bytes(buf)
    pos = 0
    out = []
    for _ in values:
        value, pos = read_varint(data, pos)
        out.append(value)
    assert out == values


@pytest.mark.parametrize("value", [0, 1, -1, 2**33, -(2**33), 2**80, -(2**80)])
def test_zigzag_roundtrip(value):
    encoded = zigzag(value)
    assert encoded >= 0
    assert unzigzag(encoded) == value


def _write_sample(meta=None):
    sink = io.BytesIO()
    writer = TraceWriter(sink, meta or {"workload": "unit", "scale": 1})
    writer.frame_push(0, None)
    writer.event(False, "store", 0, 0, (1024, -8), None,
                 writer.site(("%v", None), "%r", (8,), 0, "main:1"), "main:1")
    writer.access(1024, 8)
    writer.access(1032, 8)
    writer.shadow_set0(0, "%r")
    writer.frame_pop(0, 0)
    writer.summary(base_cycles=10, instructions=3, mem_cycles=6,
                   heap_peak_bytes=64)
    written_meta = writer.close()
    return sink.getvalue(), written_meta


def test_writer_reader_roundtrip():
    data, meta = _write_sample()
    reader = TraceReader(data)
    assert reader.meta["workload"] == "unit"
    assert reader.digest == meta["digest"]
    assert reader.summary["plain_cycles"] == 16
    assert reader.meta["n_events"] == 1
    assert reader.meta["n_accesses"] == 2
    assert reader.verify()  # payload digest matches the recorded one


def test_reader_records_iterator():
    data, _ = _write_sample()
    records = list(TraceReader(data).records())
    assert [r[0] for r in records] == [
        OP_PUSH, OP_EVENT, OP_ACCESS, OP_ACCESS, OP_SET0, OP_POP, OP_SUMMARY
    ]
    event = records[1]
    assert event[1] == "before" and event[2] == "store"
    assert event[5] == (1024, -8)  # zigzagged operands decode signed
    access = records[2]
    assert access[1:] == (1024, 8)  # delta-coded address resolves absolute
    assert records[3][1:] == (1032, 8)


def test_event_after_flag_and_backtrace():
    sink = io.BytesIO()
    writer = TraceWriter(sink, {})
    writer.frame_push(0, None)
    writer.event(True, "func:main", 0, 0, (), 7,
                 writer.site((), None, (), 8, "lib:3"), "caller:9")
    writer.summary(1, 1, 0, 0)
    writer.close()
    event = [r for r in TraceReader(sink.getvalue()).records()
             if r[0] == OP_EVENT][0]
    assert event[1] == "after"
    assert event[6] == 7  # result survives
    assert event[12] == "caller:9"  # bt stored because it differs from loc


def test_reader_rejects_bad_magic():
    data, _ = _write_sample()
    with pytest.raises(TraceFormatError):
        TraceReader(b"NOTATRACE" + data[len(MAGIC):])


def test_reader_rejects_truncated():
    data, _ = _write_sample()
    with pytest.raises(TraceFormatError):
        TraceReader(data[: len(data) // 2])


def test_verify_detects_digest_mismatch():
    data, _ = _write_sample()
    reader = TraceReader(data)
    reader.meta["digest"] = "0" * 64
    assert not reader.verify()


def test_from_file(tmp_path):
    data, meta = _write_sample()
    path = tmp_path / "sample.trace"
    path.write_bytes(data)
    reader = TraceReader.from_file(path)
    assert reader.digest == meta["digest"]

"""Error paths in the trace container: every malformed input must raise
a typed :class:`TraceFormatError` (never a wrong decode), whether the
damage is in the framing, the meta block, the segment index, or a
segment.
"""

import io
import json
import struct
import zlib

import pytest

from repro.trace.format import (
    DEFAULT_SEGMENT_TARGET,
    MAGIC,
    TAIL_MAGIC,
    TraceFormatError,
    TraceReader,
    TraceWriter,
)


def _sample(segment_target_bytes=DEFAULT_SEGMENT_TARGET):
    sink = io.BytesIO()
    writer = TraceWriter(sink, {"workload": "unit", "scale": 1},
                         segment_target_bytes=segment_target_bytes)
    for i in range(8):
        writer.frame_push(0, None)
        writer.event(False, "store", 0, 0, (64 * i, -8), None,
                     writer.site(("%v", None), "%r", (8,), 0, "main:1"), "main:1")
        writer.access(64 * i, 8)
        writer.frame_pop(0, 0)
    writer.summary(base_cycles=10, instructions=3, mem_cycles=6,
                   heap_peak_bytes=64)
    writer.close()
    return sink.getvalue()


def _sample_v2():
    """A sample cut into one segment per frame."""
    data = _sample(segment_target_bytes=1)
    reader = TraceReader(data)
    assert len(reader.segments) >= 2, "need a multi-segment sample"
    return data, reader.meta


# ---------------------------------------------------------------- magic


def test_unknown_container_version_rejected():
    data = _sample()
    with pytest.raises(TraceFormatError, match="unsupported trace container"):
        TraceReader(b"ALDATRC3" + data[len(MAGIC):])


def test_v1_container_rejected(tmp_path):
    """The retired monolithic container: magic, one zlib stream, meta."""
    reader = TraceReader(_sample())
    meta = json.dumps({"version": 1, "digest": reader.digest}).encode()
    data = (b"ALDATRC1" + zlib.compress(reader.payload) + meta
            + struct.pack("<I", len(meta)) + TAIL_MAGIC)
    with pytest.raises(TraceFormatError, match="container version '1'"):
        TraceReader(data)
    path = tmp_path / "v1.trace"
    path.write_bytes(data)
    with pytest.raises(TraceFormatError, match="container version '1'"):
        TraceReader.read_tail_meta(path)


def test_unknown_container_version_in_tail_meta(tmp_path):
    path = tmp_path / "future.trace"
    path.write_bytes(b"ALDATRC9" + _sample()[len(MAGIC):])
    with pytest.raises(TraceFormatError, match="unsupported trace container"):
        TraceReader.read_tail_meta(path)


def test_non_trace_bytes_rejected():
    with pytest.raises(TraceFormatError, match="bad magic"):
        TraceReader(b"PNG\x0d\x0a" + b"\x00" * 64)


# ----------------------------------------------------------- tail frame


@pytest.mark.parametrize("make", [_sample, lambda: _sample_v2()[0]])
def test_bad_tail_magic_rejected(make):
    data = bytearray(make())
    data[-4:] = b"XXXX"
    with pytest.raises(TraceFormatError, match="bad tail magic"):
        TraceReader(bytes(data))


def test_bad_tail_magic_rejected_by_tail_reader(tmp_path):
    data = bytearray(_sample_v2()[0])
    data[-1] ^= 0xFF
    path = tmp_path / "bad_tail.trace"
    path.write_bytes(bytes(data))
    with pytest.raises(TraceFormatError, match="bad tail magic"):
        TraceReader.read_tail_meta(path)


def test_tail_reader_rejects_too_short_file(tmp_path):
    path = tmp_path / "stub.trace"
    path.write_bytes(MAGIC + b"\x00" * 4)
    with pytest.raises(TraceFormatError, match="too short"):
        TraceReader.read_tail_meta(path)


def test_meta_length_overruns_file():
    data = bytearray(_sample())
    data[-8:-4] = struct.pack("<I", len(data))  # meta "starts" before magic
    with pytest.raises(TraceFormatError, match="corrupt trace meta"):
        TraceReader(bytes(data))


def test_meta_block_must_be_json():
    data = _sample()
    meta_len = struct.unpack("<I", data[-8:-4])[0]
    body = data[:-8 - meta_len]
    garbage = b"\xff" * meta_len
    with pytest.raises(TraceFormatError, match="corrupt trace meta"):
        TraceReader(body + garbage + data[-8:])


def test_meta_version_must_match_container_magic():
    data = _sample()
    meta_len = struct.unpack("<I", data[-8:-4])[0]
    meta = json.loads(data[-8 - meta_len:-8])
    meta["version"] = 7
    raw = json.dumps(meta).encode()
    patched = (data[:-8 - meta_len] + raw
               + struct.pack("<I", len(raw)) + TAIL_MAGIC)
    with pytest.raises(TraceFormatError, match="unsupported trace version"):
        TraceReader(patched)


# ------------------------------------------------------------- payloads


def test_truncated_payload_rejected():
    data = _sample()
    with pytest.raises(TraceFormatError):
        TraceReader(data[: len(data) // 2])


def test_corrupt_payload_rejected():
    data = bytearray(_sample())
    data[len(MAGIC) + 4] ^= 0xFF
    with pytest.raises(TraceFormatError, match="segment 0"):
        TraceReader(bytes(data))


def test_truncated_v2_segment_rejected():
    """Dropping bytes from a middle segment breaks the offset chain."""
    data, meta = _sample_v2()
    entry = meta["segments"][0]
    cut = entry["offset"] + entry["clen"] - 2
    with pytest.raises(TraceFormatError):
        TraceReader(data[:cut] + data[cut + 2:])


def test_corrupt_v2_segment_named_by_index():
    data, meta = _sample_v2()
    victim = len(meta["segments"]) // 2
    entry = meta["segments"][victim]
    patched = bytearray(data)
    patched[entry["offset"] + 2] ^= 0xFF
    with pytest.raises(TraceFormatError, match=f"segment {victim}"):
        TraceReader(bytes(patched))


def _patch_v2_meta(data, mutate):
    meta_len = struct.unpack("<I", data[-8:-4])[0]
    meta = json.loads(data[-8 - meta_len:-8])
    mutate(meta)
    raw = json.dumps(meta).encode()
    return (data[:-8 - meta_len] + raw
            + struct.pack("<I", len(raw)) + TAIL_MAGIC)


def test_v2_without_segment_index_rejected():
    data, _meta = _sample_v2()
    patched = _patch_v2_meta(data, lambda m: m.pop("segments"))
    with pytest.raises(TraceFormatError, match="no segment index"):
        TraceReader(patched)


def test_v2_segment_index_must_be_contiguous():
    data, _meta = _sample_v2()

    def shift(meta):
        meta["segments"][1]["offset"] += 1

    with pytest.raises(TraceFormatError, match="does not follow"):
        TraceReader(_patch_v2_meta(data, shift))


def test_v2_segment_index_must_span_payload():
    data, _meta = _sample_v2()
    patched = _patch_v2_meta(
        data, lambda m: m.__setitem__("segments", m["segments"][:-1])
    )
    with pytest.raises(TraceFormatError, match="span"):
        TraceReader(patched)

"""The trace decoder against the reference, and its typed errors.

* The decoder (:func:`repro.trace.replayer.decode`, behind both
  ``TraceReplayer`` and partitioned replay's ``decode_slice``) must agree
  record for record with the reference :meth:`TraceReader.records`.
* Malformed payloads raise :class:`TraceFormatError` with an offset,
  never a bare ``IndexError``.
"""

import hashlib
import io
import json
import struct
import zlib

import pytest

from repro.baselines import HandTunedEraser
from repro.partition.shard import decode_slice
from repro.trace.format import (
    DEFAULT_SEGMENT_TARGET,
    FORMAT_VERSION,
    MAGIC,
    OP_ACCESS,
    OP_DEFAULT,
    OP_EVENT,
    OP_MOV,
    OP_OR2,
    OP_POP,
    OP_PUSH,
    OP_SET0,
    OP_STR,
    OP_SUMMARY,
    TAIL_MAGIC,
    TraceFormatError,
    TraceReader,
    TraceWriter,
)
from repro.trace.replayer import (
    R_ACCESS,
    R_DEFAULT,
    R_EVENT,
    R_MOV,
    R_OR2,
    R_POP,
    R_PUSH,
    R_SET0,
    R_SUMMARY,
    TraceReplayer,
    decode,
)

from tests.trace.conftest import GOLDEN


def _expected(reference):
    """Map :meth:`TraceReader.records` tuples onto the decoder's tags."""
    tags = {OP_ACCESS: R_ACCESS, OP_SET0: R_SET0, OP_DEFAULT: R_DEFAULT,
            OP_OR2: R_OR2, OP_MOV: R_MOV, OP_POP: R_POP}
    out = []
    for rec in reference:
        op = rec[0]
        if op == OP_EVENT:  # the decoder groups the site's static fields
            when, loc, bt = rec[1], rec[11], rec[12]
            site = (rec[9], rec[10], rec[7], rec[8], loc)
            out.append((R_EVENT, when == "after", *rec[2:7], site,
                        loc if bt is None else bt))
        elif op == OP_PUSH:  # the decoder leaves serials implicit
            out.append((R_PUSH, rec[2], rec[3]))
        elif op == OP_SUMMARY:  # the event/access totals are not kept
            out.append((R_SUMMARY, *rec[1:5]))
        else:
            out.append((tags[op], *rec[1:]))
    return out


def _container(payload, string_table=()):
    """A single-segment trace around an arbitrary (possibly malformed)
    payload.  ``string_table`` lists the strings the payload interns;
    decoders rebuild the table from its ``OP_STR`` records."""
    blob = zlib.compress(payload)
    digest = hashlib.sha256(payload).hexdigest()
    snapshot = {"n_strings": 0, "last_address": 0, "next_serial": 0,
                "records_before": 0, "events_before": 0,
                "accesses_before": 0}
    meta = json.dumps({
        "version": FORMAT_VERSION, "digest": digest,
        "segments": [{"offset": len(MAGIC), "clen": len(blob),
                      "ulen": len(payload), "sha256": digest,
                      "n_records": 0, "n_events": 0, "n_accesses": 0,
                      "snapshot": snapshot}],
        "string_table": list(string_table),
    }).encode("utf-8")
    return MAGIC + blob + meta + struct.pack("<I", len(meta)) + TAIL_MAGIC


# ----------------------------------------------------------------------
# differential: the decoder against the reference
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_decoder_matches_reference(golden_traces, name):
    data = golden_traces[name]
    reader = TraceReader(data)
    expected = _expected(reader.records())
    assert decode(reader.payload)[0] == expected
    assert TraceReplayer(data).records == expected


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_decode_slice_matches_reference(golden_traces, name):
    reader = TraceReader(golden_traces[name])
    expected = _expected(reader.records())
    artifact = decode_slice(reader.payload)
    assert artifact.records == expected
    assert artifact.n_records == reader.meta["n_records"]
    assert artifact.n_events == reader.meta["n_events"]
    assert artifact.saw_summary and artifact.n_filtered == 0


def _wide_trace(segment_target_bytes=DEFAULT_SEGMENT_TARGET):
    """A writer-driven trace with a multi-byte varint in every field."""
    sink = io.BytesIO()
    writer = TraceWriter(sink, {"workload": "unit", "scale": 1},
                         segment_target_bytes=segment_target_bytes)
    for i in range(130):  # string ids >= 128 from here on
        writer.intern(f"pad:{i}")
    tid = 300
    serials = [writer.frame_push(tid, None if i == 0 else f"caller:{i}")
               for i in range(130)]
    top = serials[-1]
    ops = tuple(range(-70, 70)) + (2**64 + 5, -(2**70), 2**100)
    sizes = (256,) * len(ops)
    regs = tuple(None if i % 3 == 0 else f"%r{i}" for i in range(len(ops)))
    for after in (False, True):
        writer.event(after, "func:wide", tid, top, ops, -(2**65),
                     writer.site(regs, "%res", sizes, 1000, "wide.c:1"), "caller:7")
    writer.event(False, "load", tid, top, (2**40,), 2**63,
                 writer.site(("%p",), "%v", (8,), 8, "wide.c:2"), "wide.c:2")
    writer.access(2**40, 300)
    writer.access(8, 8)  # negative address delta
    writer.shadow_set0(top, "%r1")
    writer.shadow_or2(top, "%r2", "%r1", None)
    writer.shadow_mov(top, "%r4", serials[0], "%r2")
    writer.shadow_default(top, "%r5")
    for serial in reversed(serials):
        writer.frame_pop(serial, tid)
    writer.summary(base_cycles=2**40, instructions=2**33, mem_cycles=2**35,
                   heap_peak_bytes=2**20)
    writer.close()
    return sink.getvalue()


def test_decoder_matches_reference_on_wide_fields():
    whole, cut = _wide_trace(), _wide_trace(segment_target_bytes=64)
    reader = TraceReader(whole)
    assert len(reader.segments) == 1 and len(TraceReader(cut).segments) > 1
    assert TraceReader(cut).digest == reader.digest
    expected = _expected(reader.records())
    events = [rec for rec in expected if rec[0] == R_EVENT]
    assert events[0][5][-3:] == (2**64 + 5, -(2**70), 2**100)
    assert events[0][6] == -(2**65) and events[0][8] == "caller:7"
    assert events[2][8] == "wide.c:2"  # no backtrace entry recorded
    assert decode(reader.payload)[0] == expected
    assert TraceReplayer(whole).records == TraceReplayer(cut).records == expected
    sliced = decode_slice(reader.payload).records
    assert [rec for rec in sliced if rec[0] == R_EVENT] == events


def test_decode_slice_filters_and_seeds():
    payload = TraceReader(_wide_trace()).payload
    full = decode(payload)[0]
    artifact = decode_slice(payload, events_before=40,
                            fire_before=frozenset({"load"}),
                            fire_after=frozenset(), keep_shadow=False)
    kept = [rec for rec in artifact.records if rec[0] == R_EVENT]
    assert [rec[2] for rec in kept] == ["load"]
    assert artifact.events_before == 40
    assert artifact.n_filtered == 2 + 4  # two wide events, four shadow ops
    assert artifact.n_records == len(full) and artifact.n_events == 3
    assert artifact.n_pushes == 130


# ----------------------------------------------------------------------
# typed errors on malformed payloads
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def memcached_payload(golden_traces):
    return TraceReader(golden_traces["memcached"]).payload


def test_truncated_payload_raises_typed_error(memcached_payload):
    payload = memcached_payload
    # the wrapper itself is a valid container: only the cuts below fail
    assert TraceReader(_container(payload)).verify()
    cuts = list(range(1, len(payload), len(payload) // 37)) + [len(payload) - 1]
    raised = 0
    for cut in cuts:
        head = payload[:cut]
        try:
            artifact = decode_slice(head)
        except TraceFormatError as exc:
            assert "offset" in str(exc)
            raised += 1
        else:  # the cut fell on a record boundary
            assert not artifact.saw_summary
        with pytest.raises(TraceFormatError):
            TraceReplayer(_container(head)).replay([HandTunedEraser])
    assert raised > len(cuts) // 2
    with pytest.raises(TraceFormatError, match="offset"):
        TraceReplayer(_container(payload[:-1])).records  # mid-summary


def _event(kind_id=0, loc_id=0, reg_id=0, bt_id=None):
    flags = 0 if bt_id is None else 2
    fields = [OP_EVENT, flags, kind_id, 0, 0, 0, 0, 0, 1, reg_id, 0, loc_id]
    if bt_id is not None:
        fields.append(bt_id)
    return bytes(fields)


@pytest.mark.parametrize("event", [
    _event(kind_id=5),
    _event(loc_id=9),
    _event(reg_id=3),
    _event(bt_id=2),
], ids=["kind", "loc", "reg", "bt"])
def test_undefined_string_id_raises_typed_error(event):
    payload = bytes([OP_STR, 1]) + b"x" + event
    with pytest.raises(TraceFormatError, match="offset 3"):
        decode_slice(payload)
    with pytest.raises(TraceFormatError, match="offset 3"):
        TraceReplayer(_container(payload, ["x"])).records


def test_well_formed_event_with_string_ids_decodes():
    payload = bytes([OP_STR, 1]) + b"x" + _event(reg_id=1, bt_id=0)
    (event,) = decode(payload)[0]
    assert event[2] == "x" and event[7][0] == ("x",) and event[8] == "x"

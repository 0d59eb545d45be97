"""Versioned binary event-trace format (varint records, zlib segments).

The container (version 2, magic ``ALDATRC2``) frames one logical record
payload as independently zlib-compressed *segments* cut at frame
push/pop and synchronization boundaries::

    +--------------------------------------------------------------+
    | magic  b"ALDATRC2"                                           |
    | zlib segment 0 | zlib segment 1 | ...                        |
    | meta   UTF-8 JSON (digest, summary, "segments" index, ...)   |
    | u32 LE length of the meta JSON                               |
    | tail magic b"ALDT"                                           |
    +--------------------------------------------------------------+

Each entry in ``meta["segments"]`` records the segment's absolute file
offset, compressed/uncompressed length, SHA-256 of its uncompressed
bytes, its record/event/access counts, and a *snapshot* of the decoder
state at the segment's first record — string-table length, last access
address, next frame serial and running record/event/access totals.  A
segment is therefore decodable standalone: seed the decoder from the
snapshot, range-read only that segment's bytes, and verify them against
the per-segment digest.  (Its replay needs the frames live at the cut,
which a settle threads through the segments in order.)  The concatenation of all
uncompressed segments is the record payload; its digest does not
depend on where the segments were cut, so neither does any
digest-keyed cache.  Any other container version (such as the retired
monolithic version 1) is rejected with :class:`TraceFormatError`.

The payload is a flat stream of records, each an opcode byte followed by
unsigned LEB128 varints (zigzag for signed fields).  Strings (event
kinds, register names, source locations, backtrace entries) are interned
in-stream: an ``OP_STR`` record defines the next string id, so readers
reconstruct the table while streaming.  The trace *digest* is the
SHA-256 of the uncompressed payload — two runs of a deterministic
workload produce byte-identical payloads, so digest equality is the
determinism check.

Record vocabulary (see :mod:`repro.trace.recorder` for the exact
emission points and :mod:`repro.trace.replayer` for consumption):

=============  ==================================================================
``OP_STR``     define next string id: ``len`` + UTF-8 bytes
``OP_EVENT``   one instrumentation event (flags, kind, tid, frame serial,
               operands, result, sizes, operand/result register bindings,
               loc, optional backtrace-top entry)
``OP_ACCESS``  one program cache access: zigzag address delta + size
``OP_SET0``    shadow op ``reg.m := 0``
``OP_OR2``     shadow op ``dst.m := lhs.m | rhs.m`` (bills 1 cycle on replay)
``OP_MOV``     shadow op ``dst.m := src.m`` across frames
``OP_DEFAULT`` shadow op ``reg.m := 0`` unless set
``OP_PUSH``    frame push (serial implicit, incrementing): tid + caller entry
``OP_POP``     frame pop: serial + tid
``OP_SUMMARY`` run totals: base cycles, instructions, plain mem cycles,
               heap peak, event/access counts
=============  ==================================================================
"""

from __future__ import annotations

import hashlib
import json
import struct
import zlib
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import VMError

MAGIC = b"ALDATRC2"
TAIL_MAGIC = b"ALDT"
FORMAT_VERSION = 2

#: Default uncompressed segment size for writers.  Chosen so the
#: largest bundled workloads (~4 MB of payload) land around 16 segments
#: — enough cut points for 4-way partitioned replay with headroom —
#: while small workloads stay single-segment.
DEFAULT_SEGMENT_TARGET = 256 * 1024

#: ``after`` events of these kinds are segment-cut opportunities in
#: addition to frame push/pop: synchronization operations are the
#: natural epoch boundaries partitioned analyses merge at.
SYNC_CUT_KINDS = frozenset(
    {"func:mutex_lock", "func:mutex_unlock", "func:spawn", "func:join"}
)

OP_STR = 1
OP_EVENT = 2
OP_ACCESS = 3
OP_SET0 = 4
OP_OR2 = 5
OP_MOV = 6
OP_DEFAULT = 7
OP_PUSH = 8
OP_POP = 9
OP_SUMMARY = 10

# OP_EVENT flag bits
EVF_HAS_RESULT = 1
EVF_HAS_BT = 2
EVF_AFTER = 4


class TraceFormatError(VMError):
    """Raised for malformed or incompatible trace files."""


# ----------------------------------------------------------------------
# varint primitives
# ----------------------------------------------------------------------
def write_varint(out: bytearray, value: int) -> None:
    """Unsigned LEB128."""
    if value < 0:
        raise ValueError(f"write_varint needs a non-negative value, got {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _put(buf: bytearray, *fields: int) -> None:
    """Append unsigned varints, writing single-byte ones inline."""
    for value in fields:
        if value < 0x80:
            buf.append(value)
        else:
            write_varint(buf, value)


def zigzag(value: int) -> int:
    # Arbitrary-precision zigzag (register values may exceed 64 bits:
    # the VM masks logical ops but not add/mul).
    return (value << 1) if value >= 0 else ((-value << 1) - 1)


def unzigzag(value: int) -> int:
    return (value >> 1) if (value & 1) == 0 else -((value + 1) >> 1)


def read_varint(buf: bytes, pos: int) -> Tuple[int, int]:
    """Decode one unsigned varint; returns (value, new_pos)."""
    result = 0
    shift = 0
    while True:
        byte = buf[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


# ----------------------------------------------------------------------
# writer
# ----------------------------------------------------------------------
class TraceWriter:
    """Streaming trace writer: interning, compression, digest.

    Records accumulate in a bytearray and are flushed through a zlib
    compressor in chunks, so arbitrarily long traces never hold the
    whole payload in memory.  Compression restarts at frame/sync
    boundaries once a segment reaches ``segment_target_bytes``
    (uncompressed), and each segment's offset, digest, counts, and
    carried-in decoder snapshot land in the tail index.  ``close``
    appends the JSON meta block and returns the final meta dict
    (including the payload digest).
    """

    _FLUSH_BYTES = 1 << 20

    def __init__(
        self,
        fileobj,
        meta: Optional[dict] = None,
        segment_target_bytes: int = DEFAULT_SEGMENT_TARGET,
    ) -> None:
        if segment_target_bytes <= 0:
            raise ValueError("segment_target_bytes must be positive")
        self._file = fileobj
        self._meta = dict(meta or {})
        self._buf = bytearray()
        self._compress = zlib.compressobj(6)
        self._sha = hashlib.sha256()
        self._strings: Dict[str, int] = {}
        self._last_address = 0
        self._next_serial = 0
        self.n_events = 0
        self.n_accesses = 0
        self.n_shadow_ops = 0
        self.n_records = 0
        self._closed = False
        self._seg_target = segment_target_bytes
        self._file.write(MAGIC)
        self._entries: List[dict] = []
        self._seg_offset = len(MAGIC)
        self._seg_ulen = 0
        self._seg_clen = 0
        self._seg_sha = hashlib.sha256()
        self._snapshot = self._capture_snapshot()

    # -- plumbing ------------------------------------------------------
    def _write_compressed(self, chunk: bytes) -> None:
        self._sha.update(chunk)
        self._seg_sha.update(chunk)
        self._seg_ulen += len(chunk)
        out = self._compress.compress(chunk)
        if out:
            self._file.write(out)
            self._seg_clen += len(out)

    def _maybe_flush(self) -> None:
        if len(self._buf) >= self._FLUSH_BYTES:
            self._write_compressed(bytes(self._buf))
            self._buf.clear()

    def _capture_snapshot(self) -> dict:
        return {
            "n_strings": len(self._strings),
            "last_address": self._last_address,
            "next_serial": self._next_serial,
            "records_before": self.n_records,
            "events_before": self.n_events,
            "accesses_before": self.n_accesses,
        }

    def _finalize_segment(self) -> None:
        if self._buf:
            self._write_compressed(bytes(self._buf))
            self._buf.clear()
        tail = self._compress.flush()
        if tail:
            self._file.write(tail)
            self._seg_clen += len(tail)
        snapshot = self._snapshot
        self._entries.append({
            "offset": self._seg_offset,
            "clen": self._seg_clen,
            "ulen": self._seg_ulen,
            "sha256": self._seg_sha.hexdigest(),
            "n_records": self.n_records - snapshot["records_before"],
            "n_events": self.n_events - snapshot["events_before"],
            "n_accesses": self.n_accesses - snapshot["accesses_before"],
            "snapshot": snapshot,
        })
        self._seg_offset += self._seg_clen
        self._seg_ulen = 0
        self._seg_clen = 0
        self._seg_sha = hashlib.sha256()
        self._compress = zlib.compressobj(6)
        self._snapshot = self._capture_snapshot()

    def _maybe_cut(self, soft: bool = False) -> None:
        """Close the current segment if it has reached the target size.

        Only called at cut-safe boundaries, so segments never split a
        record or separate an ``OP_STR`` from the record that interned
        it.  Frame push/pop and synchronization events are the preferred
        (hard) boundaries and cut at the target size.  Because hot loops
        can run hundreds of thousands of records without a call (``fft``
        records 3 frame pushes in 21k records), any instruction boundary
        — immediately before a ``before`` event — is a fallback (soft)
        cut that fires once a segment reaches twice the target, keeping
        call-sparse traces partitionable.
        """
        threshold = self._seg_target * 2 if soft else self._seg_target
        if self._seg_ulen + len(self._buf) >= threshold:
            self._finalize_segment()

    def intern(self, text: str) -> int:
        ident = self._strings.get(text)
        if ident is None:
            ident = len(self._strings)
            self._strings[text] = ident
            raw = text.encode("utf-8")
            buf = self._buf
            buf.append(OP_STR)
            write_varint(buf, len(raw))
            buf.extend(raw)
        return ident

    # -- records -------------------------------------------------------
    @staticmethod
    def site(operand_regs: Tuple[Optional[str], ...], result_reg: Optional[str],
             sizes: Tuple[int, ...], result_size: int, loc: str) -> list:
        """A recording site for :meth:`event`: its static fields plus a
        slot for its tail bytes, filled in by the site's first event."""
        return [operand_regs, result_reg, sizes, result_size, loc, None]

    def _event_tail(self, operand_regs: Tuple[Optional[str], ...],
                    result_reg: Optional[str], sizes: Tuple[int, ...],
                    result_size: int, loc: str) -> bytes:
        """Intern one event site's strings and return its tail bytes
        (sizes, result size, operand/result register ids, loc id)."""
        loc_id = self.intern(loc)
        reg_ids = [0 if reg is None else self.intern(reg) + 1 for reg in operand_regs]
        result_reg_id = 0 if result_reg is None else self.intern(result_reg) + 1
        tail = bytearray()
        _put(tail, len(sizes), *sizes, result_size, len(reg_ids), *reg_ids,
             result_reg_id, loc_id)
        return bytes(tail)

    def event(
        self,
        after: bool,
        kind: str,
        tid: int,
        frame_serial: int,
        ops: Tuple[int, ...],
        result: Optional[int],
        site: list,
        bt_top: str,
    ) -> None:
        """One event at ``site`` (see :meth:`site`)."""
        if not after:
            self._maybe_cut(soft=True)
        # Intern order (kind, loc, operand regs, result reg, bt) is part
        # of the byte format: string ids are assigned in first-use order.
        kind_id = self._strings.get(kind)
        if kind_id is None:
            kind_id = self.intern(kind)
        tail = site[5]
        if tail is None:
            tail = site[5] = self._event_tail(*site[:5])
        loc = site[4]
        flags = EVF_AFTER if after else 0
        if result is not None:
            flags |= EVF_HAS_RESULT
        if bt_top != loc:
            flags |= EVF_HAS_BT
            bt_id = self.intern(bt_top)
        buf = self._buf
        append = buf.append
        append(OP_EVENT)
        append(flags)
        # Single-byte varints inline; write_varint is the slow path.
        for value in (kind_id, tid, frame_serial, len(ops)):
            if value < 0x80:
                append(value)
            else:
                write_varint(buf, value)
        for value in ops:
            value = (value << 1) if value >= 0 else ((-value << 1) - 1)
            if value < 0x80:
                append(value)
            else:
                write_varint(buf, value)
        if result is not None:
            value = (result << 1) if result >= 0 else ((-result << 1) - 1)
            if value < 0x80:
                append(value)
            else:
                write_varint(buf, value)
        buf += tail
        if flags & EVF_HAS_BT:
            if bt_id < 0x80:
                append(bt_id)
            else:
                write_varint(buf, bt_id)
        self.n_events += 1
        self.n_records += 1
        if len(buf) >= self._FLUSH_BYTES:
            self._maybe_flush()
        if after and kind in SYNC_CUT_KINDS:
            self._maybe_cut()

    def access(self, address: int, size: int) -> None:
        delta = address - self._last_address
        _put(self._buf, OP_ACCESS,
             (delta << 1) if delta >= 0 else ((-delta << 1) - 1), size)
        self._last_address = address
        self.n_accesses += 1
        self.n_records += 1
        self._maybe_flush()

    def shadow_set0(self, serial: int, reg: str) -> None:
        _put(self._buf, OP_SET0, serial, self.intern(reg))
        self.n_shadow_ops += 1
        self.n_records += 1

    def shadow_or2(self, serial: int, dst: str, lhs: Optional[str],
                   rhs: Optional[str]) -> None:
        dst_id = self.intern(dst)
        lhs_id = 0 if lhs is None else self.intern(lhs) + 1
        rhs_id = 0 if rhs is None else self.intern(rhs) + 1
        _put(self._buf, OP_OR2, serial, dst_id, lhs_id, rhs_id)
        self.n_shadow_ops += 1
        self.n_records += 1

    def shadow_mov(self, dst_serial: int, dst: str, src_serial: int,
                   src: Optional[str]) -> None:
        dst_id = self.intern(dst)
        src_id = 0 if src is None else self.intern(src) + 1
        _put(self._buf, OP_MOV, dst_serial, dst_id, src_serial, src_id)
        self.n_shadow_ops += 1
        self.n_records += 1

    def shadow_default(self, serial: int, reg: str) -> None:
        _put(self._buf, OP_DEFAULT, serial, self.intern(reg))
        self.n_shadow_ops += 1
        self.n_records += 1

    def frame_push(self, tid: int, caller_entry: Optional[str]) -> int:
        """Returns the serial assigned to the pushed frame."""
        self._maybe_cut()
        entry_id = 0 if caller_entry is None else self.intern(caller_entry) + 1
        _put(self._buf, OP_PUSH, tid, entry_id)
        serial = self._next_serial
        self._next_serial += 1
        self.n_records += 1
        return serial

    def frame_pop(self, serial: int, tid: int) -> None:
        _put(self._buf, OP_POP, serial, tid)
        self.n_records += 1
        self._maybe_cut()

    def summary(self, base_cycles: int, instructions: int, mem_cycles: int,
                heap_peak_bytes: int) -> None:
        self.n_records += 1
        _put(self._buf, OP_SUMMARY, base_cycles, instructions, mem_cycles,
             heap_peak_bytes, self.n_events, self.n_accesses)
        self._meta["summary"] = {
            "base_cycles": base_cycles,
            "instructions": instructions,
            "mem_cycles": mem_cycles,
            "heap_peak_bytes": heap_peak_bytes,
            "plain_cycles": base_cycles + mem_cycles,
        }

    # -- finalization --------------------------------------------------
    @property
    def digest(self) -> str:
        if not self._closed:
            raise TraceFormatError("digest is only final after close()")
        return self._meta["digest"]

    def close(self) -> dict:
        if self._closed:
            return self._meta
        if self._buf or self._seg_ulen or not self._entries:
            self._finalize_segment()
        self._meta.update(
            version=FORMAT_VERSION,
            segments=self._entries,
            # Keys in insertion order == intern-id order: segment
            # decoders seed their table with the first ``n_strings``.
            string_table=list(self._strings),
            digest=self._sha.hexdigest(),
            n_events=self.n_events,
            n_accesses=self.n_accesses,
            n_shadow_ops=self.n_shadow_ops,
            n_records=self.n_records,
            n_strings=len(self._strings),
        )
        raw_meta = json.dumps(self._meta, sort_keys=True).encode("utf-8")
        self._file.write(raw_meta)
        self._file.write(struct.pack("<I", len(raw_meta)))
        self._file.write(TAIL_MAGIC)
        self._closed = True
        return self._meta


# ----------------------------------------------------------------------
# reader
# ----------------------------------------------------------------------
def _check_magic(head: bytes) -> None:
    """Reject any 8-byte head but the supported container's magic."""
    if head.startswith(MAGIC):
        return
    if head.startswith(b"ALDATRC"):
        raise TraceFormatError(
            f"unsupported trace container version {head[7:8].decode('ascii', 'replace')!r} "
            f"(supported: {FORMAT_VERSION})"
        )
    raise TraceFormatError("not an ALDA trace (bad magic)")


def _check_meta(meta: dict) -> None:
    version = meta.get("version")
    if version != FORMAT_VERSION:
        raise TraceFormatError(
            f"unsupported trace version {version!r} "
            f"(container magic says {FORMAT_VERSION})"
        )
    entries = meta.get("segments")
    if not isinstance(entries, list) or not entries:
        raise TraceFormatError("trace has no segment index")


def _split_trace(data: bytes) -> Tuple[dict, int]:
    """Validate framing; return (meta dict, payload end offset)."""
    _check_magic(data[:8])
    if not data.endswith(TAIL_MAGIC):
        raise TraceFormatError("truncated trace (bad tail magic)")
    meta_len = struct.unpack("<I", data[-8:-4])[0]
    meta_end = len(data) - 8
    meta_start = meta_end - meta_len
    if meta_start < len(MAGIC):
        raise TraceFormatError("corrupt trace meta block")
    try:
        meta = json.loads(data[meta_start:meta_end].decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise TraceFormatError(f"corrupt trace meta block: {exc}") from None
    _check_meta(meta)
    return meta, meta_start


def decompress_segment(blob: bytes, entry: dict) -> bytes:
    """Decompress one segment's byte range and verify it.

    ``blob`` is exactly ``entry["clen"]`` bytes read from the segment's
    file offset.  Raises :class:`TraceFormatError` when the bytes do not
    inflate, do not match the recorded uncompressed length, or fail the
    per-segment SHA-256 — the caller never has to touch the rest of the
    trace to detect a corrupt segment.
    """
    if len(blob) != entry["clen"]:
        raise TraceFormatError(
            f"segment short read: got {len(blob)} bytes, expected {entry['clen']}"
        )
    try:
        raw = zlib.decompress(blob)
    except zlib.error as exc:
        raise TraceFormatError(f"corrupt trace segment: {exc}") from None
    if len(raw) != entry["ulen"]:
        raise TraceFormatError(
            f"segment length mismatch: inflated to {len(raw)}, "
            f"index says {entry['ulen']}"
        )
    if hashlib.sha256(raw).hexdigest() != entry["sha256"]:
        raise TraceFormatError("segment digest mismatch")
    return raw


class TraceReader:
    """Reads one trace: meta block plus the decompressed payload.

    The payload (every segment, verified and concatenated) is exposed
    as raw bytes (``payload``) for the replayer's tight decode loop, and
    as a generic :meth:`records` iterator for tools and tests.
    """

    def __init__(self, data: bytes) -> None:
        self.meta, meta_start = _split_trace(data)
        parts = []
        position = len(MAGIC)
        for index, entry in enumerate(self.meta["segments"]):
            if entry["offset"] != position:
                raise TraceFormatError(
                    f"segment {index} offset {entry['offset']} does not "
                    f"follow previous segment (expected {position})"
                )
            blob = data[entry["offset"]:entry["offset"] + entry["clen"]]
            try:
                parts.append(decompress_segment(blob, entry))
            except TraceFormatError as exc:
                raise TraceFormatError(f"segment {index}: {exc}") from None
            position += entry["clen"]
        if position != meta_start:
            raise TraceFormatError(
                "segment index does not span the payload "
                f"(ends at {position}, payload ends at {meta_start})"
            )
        self.payload = b"".join(parts)

    @classmethod
    def from_file(cls, path) -> "TraceReader":
        with open(path, "rb") as handle:
            return cls(handle.read())

    @staticmethod
    def read_tail_meta(path) -> dict:
        """Read the meta block with seeks only (head + tail of the file).

        Never loads the payload bytes, so it stays cheap on
        multi-megabyte traces — the entry point for callers that need
        the digest or cost summary, and for segment range reads (the
        meta carries the segment index).
        """
        with open(path, "rb") as handle:
            _check_magic(handle.read(8))
            handle.seek(0, 2)
            size = handle.tell()
            if size < 16:
                raise TraceFormatError("truncated trace (too short)")
            handle.seek(size - 8)
            tail = handle.read(8)
            if tail[4:] != TAIL_MAGIC:
                raise TraceFormatError("truncated trace (bad tail magic)")
            meta_len = struct.unpack("<I", tail[:4])[0]
            meta_start = size - 8 - meta_len
            if meta_start < 8:
                raise TraceFormatError("corrupt trace meta block")
            handle.seek(meta_start)
            raw = handle.read(meta_len)
        try:
            meta = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise TraceFormatError(f"corrupt trace meta block: {exc}") from None
        _check_meta(meta)
        return meta

    @property
    def digest(self) -> str:
        return self.meta["digest"]

    @property
    def summary(self) -> dict:
        return self.meta["summary"]

    @property
    def segments(self) -> List[dict]:
        """The segment index from the tail meta."""
        return self.meta["segments"]

    def verify(self) -> bool:
        """Recompute the payload digest and compare with the meta block."""
        return hashlib.sha256(self.payload).hexdigest() == self.meta["digest"]

    def verify_segments(self) -> List[int]:
        """Re-verify each segment digest; returns failing indices."""
        bad = []
        position = 0
        for index, entry in enumerate(self.meta["segments"]):
            raw = self.payload[position:position + entry["ulen"]]
            if hashlib.sha256(raw).hexdigest() != entry["sha256"]:
                bad.append(index)
            position += entry["ulen"]
        return bad

    def records(self) -> Iterator[Tuple]:
        """Generic record iterator: the plain reference decoder.

        Yields tuples whose first element is the opcode; string ids are
        resolved to the interned text.  Replay uses the fast decoder,
        :func:`repro.trace.replayer.decode`, which tests check against
        this one.
        """
        buf = self.payload
        pos = 0
        end = len(buf)
        strings: List[str] = []
        last_address = 0
        serial = 0
        while pos < end:
            op = buf[pos]
            pos += 1
            if op == OP_STR:
                length, pos = read_varint(buf, pos)
                strings.append(buf[pos:pos + length].decode("utf-8"))
                pos += length
            elif op == OP_EVENT:
                flags, pos = read_varint(buf, pos)
                kind_id, pos = read_varint(buf, pos)
                tid, pos = read_varint(buf, pos)
                frame_serial, pos = read_varint(buf, pos)
                n_ops, pos = read_varint(buf, pos)
                ops = []
                for _ in range(n_ops):
                    value, pos = read_varint(buf, pos)
                    ops.append(unzigzag(value))
                result = None
                if flags & EVF_HAS_RESULT:
                    value, pos = read_varint(buf, pos)
                    result = unzigzag(value)
                n_sizes, pos = read_varint(buf, pos)
                sizes = []
                for _ in range(n_sizes):
                    value, pos = read_varint(buf, pos)
                    sizes.append(value)
                result_size, pos = read_varint(buf, pos)
                n_regs, pos = read_varint(buf, pos)
                regs = []
                for _ in range(n_regs):
                    value, pos = read_varint(buf, pos)
                    regs.append(None if value == 0 else strings[value - 1])
                result_reg_id, pos = read_varint(buf, pos)
                loc_id, pos = read_varint(buf, pos)
                bt = None
                if flags & EVF_HAS_BT:
                    bt_id, pos = read_varint(buf, pos)
                    bt = strings[bt_id]
                yield (
                    OP_EVENT,
                    "after" if flags & EVF_AFTER else "before",
                    strings[kind_id], tid, frame_serial, tuple(ops), result,
                    tuple(sizes), result_size, tuple(regs),
                    None if result_reg_id == 0 else strings[result_reg_id - 1],
                    strings[loc_id], bt,
                )
            elif op == OP_ACCESS:
                delta, pos = read_varint(buf, pos)
                size, pos = read_varint(buf, pos)
                last_address += unzigzag(delta)
                yield (OP_ACCESS, last_address, size)
            elif op in (OP_SET0, OP_DEFAULT):
                frame_serial, pos = read_varint(buf, pos)
                reg_id, pos = read_varint(buf, pos)
                yield (op, frame_serial, strings[reg_id])
            elif op == OP_OR2:
                frame_serial, pos = read_varint(buf, pos)
                dst_id, pos = read_varint(buf, pos)
                lhs_id, pos = read_varint(buf, pos)
                rhs_id, pos = read_varint(buf, pos)
                yield (
                    OP_OR2, frame_serial, strings[dst_id],
                    None if lhs_id == 0 else strings[lhs_id - 1],
                    None if rhs_id == 0 else strings[rhs_id - 1],
                )
            elif op == OP_MOV:
                dst_serial, pos = read_varint(buf, pos)
                dst_id, pos = read_varint(buf, pos)
                src_serial, pos = read_varint(buf, pos)
                src_id, pos = read_varint(buf, pos)
                yield (
                    OP_MOV, dst_serial, strings[dst_id], src_serial,
                    None if src_id == 0 else strings[src_id - 1],
                )
            elif op == OP_PUSH:
                tid, pos = read_varint(buf, pos)
                entry_id, pos = read_varint(buf, pos)
                yield (
                    OP_PUSH, serial, tid,
                    None if entry_id == 0 else strings[entry_id - 1],
                )
                serial += 1
            elif op == OP_POP:
                frame_serial, pos = read_varint(buf, pos)
                tid, pos = read_varint(buf, pos)
                yield (OP_POP, frame_serial, tid)
            elif op == OP_SUMMARY:
                base_cycles, pos = read_varint(buf, pos)
                instructions, pos = read_varint(buf, pos)
                mem_cycles, pos = read_varint(buf, pos)
                heap_peak, pos = read_varint(buf, pos)
                n_events, pos = read_varint(buf, pos)
                n_accesses, pos = read_varint(buf, pos)
                yield (OP_SUMMARY, base_cycles, instructions, mem_cycles,
                       heap_peak, n_events, n_accesses)
            else:
                raise TraceFormatError(f"unknown opcode {op} at offset {pos - 1}")

"""Content-addressed on-disk trace cache.

Traces are keyed by ``(workload name, scale, module digest)``, where the
module digest hashes the *content* the recorder would execute: the
workload module's canonical disassembly, its input lines, and the names
of its simulated extern functions.  Editing a workload therefore
invalidates its cached traces automatically; re-running with an
unchanged workload is a pure cache hit that skips interpretation
entirely.

The store also hosts a result cache for the batch executor
(:mod:`repro.exec.pool`) and the serve daemon (:mod:`repro.serve`):
replay results keyed by ``(trace digest, analysis fingerprint)``, plus a
``by-digest/`` index of ingested trace payloads for digest-addressed
lookups over the wire.

Every write is atomic — bytes land in a temp file *in the destination
directory* and are published with ``os.replace`` — so any number of
concurrent writers (server workers, parallel CI jobs) race benignly:
readers observe either the complete old file or the complete new file,
never a partial write, and identical content makes the race a no-op.

**Integrity.**  Every trace read re-verifies the payload digest against
the meta block; a mismatch (bit rot, truncation, a partial copy) raises
the typed :class:`StoreCorruptionError` and *quarantines* the entry —
moves it to ``quarantine/`` with a reason sidecar — instead of ever
serving garbage.  Locally recorded traces self-heal (quarantine, then
re-record); digest-addressed entries surface as ``UNKNOWN_TRACE`` to
serve clients, which re-upload.  ``python -m repro.trace fsck`` runs
the same checks over a whole store offline.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import re
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, Optional, Union

from repro import faultline
from repro.errors import VMError
from repro.ir.text import print_module
from repro.obs import MetricsRegistry
from repro.workloads.base import Workload

from repro.trace.format import (
    DEFAULT_SEGMENT_TARGET,
    TraceFormatError,
    TraceReader,
    decompress_segment,
)
from repro.trace.recorder import record_workload


class StoreCorruptionError(VMError):
    """A store entry failed its integrity check and was quarantined."""

    def __init__(self, path, reason: str) -> None:
        super().__init__(f"corrupt store entry {Path(path).name}: {reason}")
        self.path = Path(path)
        self.reason = reason


# This process's integrity counters, one registry per store root:
# TraceStore instances are created ad hoc, so per-instance counters
# never accumulate.
_root_metrics: Dict[str, MetricsRegistry] = {}
_COUNTERS = ("verified_trace_reads", "verified_result_reads",
             "corrupt_detected", "quarantined")
_resolved = functools.lru_cache(maxsize=1024)(os.path.realpath)  # once per root


#: What :attr:`TraceReader.digest` produces: a lowercase hex SHA-256.
_DIGEST = re.compile(r"[0-9a-f]{64}")


def module_digest(workload: Workload, scale: int) -> str:
    """Digest of everything that determines a workload's event stream."""
    sha = hashlib.sha256()
    sha.update(print_module(workload.make_module(scale)).encode("utf-8"))
    for line in workload.input_lines:
        sha.update(b"\x00input\x00")
        sha.update(line)
    extern = workload.make_extern() or {}
    for name in sorted(extern):
        sha.update(b"\x00extern\x00")
        sha.update(name.encode("utf-8"))
    sha.update(f"\x00scale={scale}\x00threads={workload.threads}".encode("utf-8"))
    return sha.hexdigest()


def _atomic_write(path: Path, write: Callable) -> None:
    """Publish a file atomically: temp file in the same dir + os.replace.

    ``write`` receives the open temp-file handle.  Concurrent writers of
    the same path each stage their own temp file; whichever replaces
    last wins, and readers never see a half-written file.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    handle = tempfile.NamedTemporaryFile(
        mode="wb", dir=str(path.parent), suffix=".tmp", delete=False
    )
    try:
        with handle:
            write(handle)
            handle.flush()
            if faultline.inject("store.write.partial"):
                handle.truncate(max(0, handle.tell() // 2))
        os.replace(handle.name, path)
    except BaseException:
        try:
            os.unlink(handle.name)
        except OSError:
            pass
        raise


class TraceStore:
    """Directory of recorded traces plus the replay-result cache."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        (self.root / "results").mkdir(exist_ok=True)
        root = _resolved(str(self.root))
        self._metrics = (_root_metrics.get(root)
                         or _root_metrics.setdefault(root, MetricsRegistry()))

    def _bump(self, name: str) -> None:
        self._metrics.counter(name).inc()

    def integrity_stats(self) -> dict:
        """Verified-read / corruption / quarantine counters of this
        store's root, in this process."""
        return {name: self._metrics.counter(name).value for name in _COUNTERS}

    # -- integrity -----------------------------------------------------
    @property
    def quarantine_dir(self) -> Path:
        return self.root / "quarantine"

    def quarantined_entries(self) -> list:
        """Names of quarantined entries (data files, not reason sidecars)."""
        if not self.quarantine_dir.is_dir():
            return []
        return sorted(
            p.name for p in self.quarantine_dir.iterdir()
            if not p.name.endswith(".reason.json")
        )

    def quarantine(self, path: Path, reason: str) -> Optional[Path]:
        """Move a corrupt entry into ``quarantine/`` with a reason sidecar.

        Returns the quarantined path, or None if the entry vanished
        first (a concurrent quarantine of the same file is benign).
        """
        self.quarantine_dir.mkdir(exist_ok=True)
        target = self.quarantine_dir / path.name
        try:
            os.replace(path, target)
        except OSError:
            return None
        sidecar = self.quarantine_dir / f"{path.name}.reason.json"
        _atomic_write(sidecar, lambda handle: handle.write(json.dumps({
            "entry": path.name,
            "reason": reason,
            "quarantined_at": time.time(),
        }, sort_keys=True).encode("utf-8")))
        self._bump("quarantined")
        return target

    def prune_quarantine(self, max_age_seconds: float = 0.0,
                         now: Optional[float] = None) -> dict:
        """Delete quarantined entries older than ``max_age_seconds``.

        Quarantine is a holding pen, not an archive: entries only exist
        so an operator can inspect *why* a file failed verification,
        and under sustained chaos (every injected corruption lands one)
        the directory grows without bound.  Age comes from the reason
        sidecar's ``quarantined_at``, falling back to file mtime for
        entries quarantined before sidecars carried timestamps; each
        pruned entry takes its sidecar with it, and orphan sidecars
        (entry already gone) are swept too.  The default
        ``max_age_seconds=0`` empties the pen.
        """
        now = time.time() if now is None else now
        report = {"examined": 0, "pruned": [], "kept": 0}
        if not self.quarantine_dir.is_dir():
            return report
        for name in self.quarantined_entries():
            path = self.quarantine_dir / name
            sidecar = self.quarantine_dir / f"{name}.reason.json"
            quarantined_at = None
            try:
                quarantined_at = json.loads(
                    sidecar.read_text()
                ).get("quarantined_at")
            except (OSError, ValueError):
                pass
            if not isinstance(quarantined_at, (int, float)):
                try:
                    quarantined_at = path.stat().st_mtime
                except OSError:
                    continue  # vanished concurrently
            report["examined"] += 1
            if now - float(quarantined_at) >= max_age_seconds:
                for victim in (path, sidecar):
                    try:
                        victim.unlink()
                    except OSError:
                        pass
                report["pruned"].append(name)
            else:
                report["kept"] += 1
        entries = set(self.quarantined_entries())
        for sidecar in self.quarantine_dir.glob("*.reason.json"):
            if sidecar.name[:-len(".reason.json")] not in entries:
                try:
                    sidecar.unlink()
                except OSError:
                    pass
        return report

    def _read_trace_verified(self, path: Path,
                             expect_digest: Optional[str] = None) -> TraceReader:
        """Read + integrity-check one trace file; quarantine on failure."""
        data = path.read_bytes()
        if faultline.inject("store.read.corrupt"):
            plan = faultline.active_plan()
            index = plan.rng_int(len(data)) if (plan and data) else 0
            data = data[:index] + bytes([data[index] ^ 0xFF]) + data[index + 1:]
        try:
            reader = TraceReader(data)
        except TraceFormatError as exc:
            self._bump("corrupt_detected")
            self.quarantine(path, f"unreadable: {exc}")
            raise StoreCorruptionError(path, str(exc)) from None
        if not reader.verify():
            self._bump("corrupt_detected")
            reason = "payload does not match its recorded digest"
            self.quarantine(path, reason)
            raise StoreCorruptionError(path, reason)
        if expect_digest is not None and reader.digest != expect_digest:
            self._bump("corrupt_detected")
            reason = (f"content digest {reader.digest[:16]}... does not match "
                      f"its address {expect_digest[:16]}...")
            self.quarantine(path, reason)
            raise StoreCorruptionError(path, reason)
        self._bump("verified_trace_reads")
        return reader

    # -- traces --------------------------------------------------------
    def trace_path(self, workload: Workload, scale: int,
                   digest: Optional[str] = None) -> Path:
        digest = digest or module_digest(workload, scale)
        return self.root / f"{workload.name}-s{scale}-{digest[:16]}.trace"

    def get_or_record(
        self,
        workload: Workload,
        scale: int = 1,
        segment_target_bytes: int = DEFAULT_SEGMENT_TARGET,
        digest: Optional[str] = None,
    ) -> TraceReader:
        """Open the cached trace for (workload, scale), recording on miss.

        ``segment_target_bytes`` sets where new recordings cut their
        segments; it moves no payload byte and no digest, so it is not
        part of the cache key.

        A cached trace that fails its integrity check — including one
        in an unsupported container version, such as a version-1 file
        left by an older release — is quarantined and re-recorded in
        place, so local corruption self-heals.  Only a corrupt
        *re-recording* (e.g. an injected partial write firing every
        time) escapes as :class:`StoreCorruptionError`.  ``digest`` is
        the :func:`module_digest`, when the caller already computed it.
        """
        digest = digest or module_digest(workload, scale)
        path = self.trace_path(workload, scale, digest)
        if path.exists():
            try:
                return self._read_trace_verified(path)
            except StoreCorruptionError:
                pass  # quarantined; fall through and re-record
        _atomic_write(
            path,
            lambda handle: record_workload(
                workload, scale, handle, meta={"module_digest": digest},
                segment_target_bytes=segment_target_bytes,
            ),
        )
        return self._read_trace_verified(path)

    def open_path(self, path) -> TraceReader:
        """Open an arbitrary trace file in this store with verification.

        The public face of the verified-read path for callers that hold
        a path: digest-checked, quarantining,
        :class:`StoreCorruptionError` on failure.
        """
        return self._read_trace_verified(Path(path))

    def read_tail_meta(self, path) -> dict:
        """Seek-read just the tail meta of a trace file (no payload IO).

        The cheap entry point for segment planning: the meta carries
        the full segment index.  Framing errors quarantine the entry
        like any other failed read.
        """
        path = Path(path)
        try:
            return TraceReader.read_tail_meta(path)
        except TraceFormatError as exc:
            self._bump("corrupt_detected")
            self.quarantine(path, f"unreadable tail: {exc}")
            raise StoreCorruptionError(path, str(exc)) from None

    def read_segment(self, path, entry: dict) -> bytes:
        """Range-read one segment and verify its own digest.

        Reads exactly ``entry["clen"]`` bytes at ``entry["offset"]`` and
        checks them against the per-segment SHA-256 from the tail index
        — a corrupt middle segment is detected (and the entry
        quarantined) without touching the rest of the blob.  Returns the
        verified *uncompressed* segment bytes.
        """
        path = Path(path)
        with open(path, "rb") as handle:
            handle.seek(entry["offset"])
            blob = handle.read(entry["clen"])
        if faultline.inject("store.read.corrupt"):
            plan = faultline.active_plan()
            index = plan.rng_int(len(blob)) if (plan and blob) else 0
            blob = blob[:index] + bytes([blob[index] ^ 0xFF]) + blob[index + 1:]
        try:
            raw = decompress_segment(blob, entry)
        except TraceFormatError as exc:
            self._bump("corrupt_detected")
            self.quarantine(path, f"segment at offset {entry['offset']}: {exc}")
            raise StoreCorruptionError(path, str(exc)) from None
        self._bump("verified_trace_reads")
        return raw

    def has_trace(self, workload: Workload, scale: int = 1) -> bool:
        return self.trace_path(workload, scale).exists()

    # -- digest-addressed traces (serve ingest path) -------------------
    @staticmethod
    def check_digest(digest: str) -> None:
        """Raise ValueError unless ``digest`` is 64 lowercase hex chars."""
        if not isinstance(digest, str) or not _DIGEST.fullmatch(digest):
            raise ValueError(f"malformed trace digest {digest!r:.80}")

    def digest_path(self, digest: str) -> Path:
        self.check_digest(digest)
        return self.root / "by-digest" / f"{digest}.trace"

    def ingest(self, data: Union[bytes, TraceReader]) -> TraceReader:
        """Store a trace received as raw bytes, keyed by payload digest.

        Validates the framing first (:class:`TraceFormatError` on
        garbage), verifies the advertised digest against the payload,
        then publishes atomically under ``by-digest/<digest>.trace``.
        Re-ingesting identical bytes is an idempotent no-op.
        """
        if isinstance(data, TraceReader):
            raise TypeError("ingest takes raw trace bytes")
        reader = TraceReader(data)
        if not reader.verify():
            raise TraceFormatError("trace payload does not match its digest")
        path = self.digest_path(reader.digest)
        if not path.exists():
            _atomic_write(path, lambda handle: handle.write(data))
        return reader

    def find_by_digest(self, digest: str) -> Optional[Path]:
        """Path of an ingested trace with this payload digest, if any."""
        path = self.digest_path(digest)
        return path if path.exists() else None

    def open_by_digest(self, digest: str) -> TraceReader:
        """Open an ingested trace, verifying content against its address.

        Raises :class:`KeyError` for an unknown digest and
        :class:`StoreCorruptionError` (after quarantining the entry)
        when the stored bytes no longer hash to the digest they are
        filed under — the caller must treat that as "trace gone".
        """
        path = self.find_by_digest(digest)
        if path is None:
            raise KeyError(f"no ingested trace with digest {digest}")
        return self._read_trace_verified(path, expect_digest=digest)

    # -- replay-result cache -------------------------------------------
    @staticmethod
    def result_key(trace_digest: str, analysis_fingerprint: str) -> str:
        sha = hashlib.sha256()
        sha.update(trace_digest.encode("utf-8"))
        sha.update(b"\x00")
        sha.update(analysis_fingerprint.encode("utf-8"))
        return sha.hexdigest()

    def _result_path(self, key: str) -> Path:
        return self.root / "results" / f"{key}.json"

    @staticmethod
    def _record_sha(record: dict) -> str:
        raw = json.dumps(record, sort_keys=True).encode("utf-8")
        return hashlib.sha256(raw).hexdigest()

    def _load_result_checked(self, path: Path) -> Optional[dict]:
        """Parse + integrity-check one result file.

        Returns the record, or None after quarantining a corrupt entry.
        Results are stored as ``{"sha256": ..., "record": {...}}``;
        bare dicts from stores written before the integrity layer are
        accepted as-is.
        """
        try:
            payload = json.loads(path.read_text())
        except OSError:
            return None  # missing or mid-replace: plain cache miss
        except ValueError:
            self._bump("corrupt_detected")
            self.quarantine(path, "result is not valid JSON")
            return None
        if not isinstance(payload, dict):
            self._bump("corrupt_detected")
            self.quarantine(path, "result is not a JSON object")
            return None
        if "record" not in payload:
            return payload  # legacy unwrapped record
        record = payload["record"]
        if (not isinstance(record, dict)
                or payload.get("sha256") != self._record_sha(record)):
            self._bump("corrupt_detected")
            self.quarantine(path, "result record does not match its sha256")
            return None
        self._bump("verified_result_reads")
        return record

    def load_result(self, key: str) -> Optional[dict]:
        """Cached replay record for ``key``; corrupt entries read as a
        miss (quarantined, then recomputed by the caller)."""
        return self._load_result_checked(self._result_path(key))

    def store_result(self, key: str, payload: dict) -> None:
        raw = json.dumps(
            {"sha256": self._record_sha(payload), "record": payload},
            sort_keys=True,
        ).encode("utf-8")
        _atomic_write(self._result_path(key), lambda handle: handle.write(raw))

    # -- recovery scan -------------------------------------------------
    def fsck(self, repair: bool = True) -> dict:
        """Integrity-scan every store entry; quarantine what fails.

        With ``repair=False`` corrupt entries are reported but left in
        place.  Returns a JSON-able report; ``clean`` is True when
        nothing failed.  Exposed as ``python -m repro.trace fsck``.
        """
        report = {
            "root": str(self.root),
            "traces_ok": 0,
            "results_ok": 0,
            "corrupt": [],
            "already_quarantined": self.quarantined_entries(),
        }

        def _check(path: Path, verify) -> None:
            try:
                ok, reason = verify(path)
            except OSError as exc:
                ok, reason = False, f"unreadable: {exc}"
            if ok:
                return
            report["corrupt"].append({"entry": str(path.relative_to(self.root)),
                                      "reason": reason})
            if repair:
                self.quarantine(path, reason)
                self._bump("corrupt_detected")

        def _verify_trace(path: Path):
            try:
                reader = TraceReader.from_file(path)
            except TraceFormatError as exc:
                return False, str(exc)
            if not reader.verify():
                return False, "payload does not match its recorded digest"
            if (path.parent.name == "by-digest"
                    and reader.digest != path.stem):
                return False, "content digest does not match its address"
            report["traces_ok"] += 1
            return True, ""

        def _verify_result(path: Path):
            try:
                payload = json.loads(path.read_text())
            except ValueError as exc:
                return False, f"not valid JSON: {exc}"
            if isinstance(payload, dict) and "record" in payload:
                record = payload["record"]
                if (not isinstance(record, dict)
                        or payload.get("sha256") != self._record_sha(record)):
                    return False, "result record does not match its sha256"
            report["results_ok"] += 1
            return True, ""

        for path in sorted(self.root.glob("*.trace")):
            _check(path, _verify_trace)
        by_digest = self.root / "by-digest"
        if by_digest.is_dir():
            for path in sorted(by_digest.glob("*.trace")):
                _check(path, _verify_trace)
        for path in sorted((self.root / "results").glob("*.json")):
            _check(path, _verify_result)

        report["clean"] = not report["corrupt"]
        report["repaired"] = bool(repair and report["corrupt"])
        return report

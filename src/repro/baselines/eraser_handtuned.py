"""Hand-tuned Eraser, mirroring the paper's optimized comparator.

The paper's hand-optimized Eraser uses "hash-based locking operations,
static tables to represent state transformations, and careful
data-structure selection".  Accordingly this implementation:

* co-locates all per-address metadata by hand in one 48-byte record
  (candidate lockset, accessor-thread mask, status byte) inside a
  page-table map — the layout a careful human lands on, which is also
  what ALDAcc derives;
* represents locksets as raw 256-bit masks with a complement flag
  (universe = all locks) and thread sets as a byte mask — no abstraction
  layers, ops billed per touched word;
* interns lock addresses through a fixed hash table;
* guards per-address records with striped hash locks.

Per-event Python-level structure differs from the generated code (no
per-event memo, one combined transition routine), giving the small
natural deviation Figure 4 shows between hand-tuned and ALDAcc-full.
"""

from __future__ import annotations

from repro.runtime.array_map import KeyInterner
from repro.runtime.metadata import MetadataSpace
from repro.runtime.page_table import PageTableMap
from repro.runtime.sync import SyncPolicy
from repro.vm.profile import CostMeter

VIRGIN, EXCLUSIVE, SHARED, SHARED_MODIFIED = 0, 1, 2, 3

_OUT_OF_LINE_CALL_CYCLES = 4


def _call(method):
    """Wrap a bound method as an out-of-line call hook (see attach)."""

    def callback(ctx):
        method(ctx)

    callback.dispatch_cycles = _OUT_OF_LINE_CALL_CYCLES
    return callback

_LOCK_DOMAIN = 256
_LOCK_WORDS = _LOCK_DOMAIN // 64
_FULL = (1 << _LOCK_DOMAIN) - 1

# Static state-transition table: (status, is_write, first_access) -> status.
_TRANSITION = {
    (VIRGIN, False, True): VIRGIN,  # paper's Eraser: reads leave VIRGIN
    (VIRGIN, False, False): VIRGIN,
    (VIRGIN, True, True): EXCLUSIVE,
    (VIRGIN, True, False): EXCLUSIVE,
    (EXCLUSIVE, False, True): SHARED,
    (EXCLUSIVE, False, False): EXCLUSIVE,
    (EXCLUSIVE, True, True): SHARED_MODIFIED,
    (EXCLUSIVE, True, False): EXCLUSIVE,
    (SHARED, False, True): SHARED,
    (SHARED, False, False): SHARED,
    (SHARED, True, True): SHARED_MODIFIED,
    (SHARED, True, False): SHARED_MODIFIED,
    (SHARED_MODIFIED, False, True): SHARED_MODIFIED,
    (SHARED_MODIFIED, False, False): SHARED_MODIFIED,
    (SHARED_MODIFIED, True, True): SHARED_MODIFIED,
    (SHARED_MODIFIED, True, False): SHARED_MODIFIED,
}

# Record layout (hand-chosen): lockset mask @0 (32B + flag), thread mask
# @40 (1B), status @41 (1B); record padded to 48B.
_RECORD_BYTES = 48
_OFF_LOCKSET = 0
_OFF_THREADS = 40
_OFF_STATUS = 41


class HandTunedEraser:
    """Attachable hand-written Eraser lockset detector."""

    name = "eraser-handtuned"
    needs_shadow = False

    def __init__(self, max_threads: int = 8) -> None:
        self.max_threads = max_threads
        self._vm = None
        self._meter = None
        self._records = None
        self._locks = None
        self._sync = None
        # Per-thread lock masks, held in simulated memory.
        self._thread_masks = None
        self._thread_table_base = 0

    def attach(self, vm, hooks=None) -> "HandTunedEraser":
        hooks = hooks if hooks is not None else vm.hooks
        self._vm = vm
        meter = CostMeter(vm.profile, vm.cache)
        self._meter = meter
        space = MetadataSpace.fresh()
        # Records are initialized lazily: status VIRGIN, empty thread mask,
        # lockset = universe (flag word 1, mask 0 exceptions-style is not
        # needed — a straight (inverted, bits) pair like the runtime's).
        self._records = PageTableMap(
            meter, space, value_bytes=_RECORD_BYTES, granularity=8,
            defaults=[True, 0, 0, VIRGIN],  # [inverted, lockbits, threadmask, status]
            name="eraser-records",
        )
        self._locks = KeyInterner(meter, space, _LOCK_DOMAIN, name="eraser-locks")
        self._sync = SyncPolicy(meter, space, name="eraser-sync")
        self._thread_table_base = space.reserve(
            self.max_threads * (_LOCK_WORDS * 8), label="eraser-thread-masks"
        )
        meter.footprint(self.max_threads * _LOCK_WORDS * 8)
        self._thread_masks = [0] * self.max_threads

        # The hand-tuned runtime is a library of out-of-line analysis
        # calls (the paper attributes part of ALDAcc's edge over it to
        # "inline function calls"): each hook pays a full call — spill,
        # argument marshalling, return — where ALDAcc's handlers inline.
        hooks.add_instruction("after", "LoadInst", _call(self._on_load))
        hooks.add_instruction("after", "StoreInst", _call(self._on_store))
        hooks.add_function("after", "mutex_lock", _call(self._on_lock))
        hooks.add_function("before", "mutex_unlock", _call(self._on_unlock))
        return self

    # -- lock bookkeeping -------------------------------------------------
    def _thread_mask_addr(self, tid: int) -> int:
        return self._thread_table_base + (tid % self.max_threads) * _LOCK_WORDS * 8

    def _on_lock(self, ctx) -> None:
        self._meter.cycles(2)
        lock_id = self._locks.intern(ctx.ops[0])
        tid = ctx.tid % self.max_threads
        self._meter.touch(self._thread_mask_addr(tid), _LOCK_WORDS * 8)
        self._thread_masks[tid] |= 1 << lock_id

    def _on_unlock(self, ctx) -> None:
        self._meter.cycles(2)
        lock_id = self._locks.intern(ctx.ops[0])
        tid = ctx.tid % self.max_threads
        self._meter.touch(self._thread_mask_addr(tid), _LOCK_WORDS * 8)
        self._thread_masks[tid] &= ~(1 << lock_id)

    # -- access handling ----------------------------------------------------
    def _access(self, address: int, tid: int, is_write: bool, loc: str) -> None:
        meter = self._meter
        meter.cycles(6)  # transition-table index + mask arithmetic
        self._sync.enter(address)
        slot_addr, columns, row = self._records.lookup(address)
        threads, statuses = columns[2], columns[3]
        tid = tid % self.max_threads

        # One cache access covers the hot header (thread mask + status).
        meter.touch(slot_addr + _OFF_THREADS, 2)
        first = not (threads[row] >> tid) & 1
        status = statuses[row]
        # Thread-set update per Eraser: stores always record the accessor;
        # loads record it only once the location has left VIRGIN.
        if first and (is_write or status != VIRGIN):
            threads[row] |= 1 << tid
        new_status = _TRANSITION[(status, is_write, first)]
        if new_status != status:
            statuses[row] = new_status
            meter.touch(slot_addr + _OFF_STATUS, 1)

        if new_status > EXCLUSIVE:
            # Refine the candidate lockset with the thread's current locks.
            meter.cycles(_LOCK_WORDS)
            meter.touch(slot_addr + _OFF_LOCKSET, _LOCK_WORDS * 8)
            meter.touch(self._thread_mask_addr(tid), _LOCK_WORDS * 8)
            held = self._thread_masks[tid]
            inverted, lockbits = columns[0], columns[1]
            if inverted[row]:  # universe: first refinement snaps to held set
                inverted[row] = False
                lockbits[row] = held
            else:
                lockbits[row] &= held
            # Emptiness test scans the 256-bit mask: four word compares.
            meter.cycles(_LOCK_WORDS)
            if new_status == SHARED_MODIFIED and lockbits[row] == 0:
                self._vm.reporter.report(
                    self.name, "access", "data race (empty lockset)", loc,
                    actual=1, expected=0,
                )

    def _on_load(self, ctx) -> None:
        self._access(ctx.ops[0], ctx.tid, False, ctx.loc)

    def _on_store(self, ctx) -> None:
        self._access(ctx.ops[1], ctx.tid, True, ctx.loc)

"""Hand-tuned MemorySanitizer, mirroring LLVM's implementation.

Layout choices a careful human (or the LLVM authors) would make:

* a flat 1:1 byte shadow via offset shadow memory (LLVM MSan's
  ``shadow = addr ^ 0x500000000000`` scheme is cost-equivalent);
* block sizes in a separate side table, looked up only on malloc/free;
* register (local) shadow piggybacks on the VM's metadata plane, which
  stands in for MSan's inlined shadow arithmetic.

Deliberately reproduced LLVM behaviour: **no ``gets`` interceptor** —
input read through ``gets`` keeps its poison, producing the Table 3
false positives on fmm and barnes.
"""

from __future__ import annotations

from repro.runtime.metadata import MetadataSpace
from repro.runtime.shadow_memory import ShadowMemory
from repro.runtime.page_table import PageTableMap
from repro.vm.profile import CostMeter

_POISON = -1


def _inlined(method, cycles: int = 1):
    """Wrap a bound method as a hook with a custom dispatch cost."""

    def callback(ctx):
        method(ctx)

    callback.dispatch_cycles = cycles
    return callback


class HandTunedMSan:
    """Attachable hand-written MSan; needs ``track_shadow=True`` VMs."""

    name = "msan-handtuned"
    needs_shadow = True

    def __init__(self) -> None:
        self._vm = None
        self._meter = None
        self._shadow = None
        self._sizes = None

    def attach(self, vm, hooks=None) -> "HandTunedMSan":
        hooks = hooks if hooks is not None else vm.hooks
        self._vm = vm
        meter = CostMeter(vm.profile, vm.cache)
        self._meter = meter
        space = MetadataSpace.fresh()
        self._shadow = ShadowMemory(
            meter, space, value_bytes=1, granularity=1,
            defaults=[0], name="msan-shadow",
        )
        self._sizes = PageTableMap(
            meter, space, value_bytes=8, granularity=1,
            defaults=[0], name="msan-sizes",
        )
        hooks.add_function("after", "malloc", self._on_malloc)
        hooks.add_function("after", "calloc", self._on_calloc)
        hooks.add_function("before", "free", self._on_free)
        hooks.add_function("after", "memset", self._on_memset)
        hooks.add_function("after", "memcpy", self._on_memcpy)
        # LLVM MSan inlines its per-instruction shadow code; only the
        # libc interceptors above are real out-of-line calls.
        hooks.add_instruction("after", "AllocaInst", _inlined(self._on_alloca))
        hooks.add_instruction("after", "LoadInst", _inlined(self._on_load))
        hooks.add_instruction("after", "StoreInst", _inlined(self._on_store))
        hooks.add_instruction("before", "BranchInst", _inlined(self._on_branch))
        # NOTE: no gets interceptor — see module docstring.
        return self

    # -- shadow range helpers --------------------------------------------
    # Contiguous byte-shadow runs are billed as one wide access: the
    # hand-tuned implementation copies shadow with word/SIMD moves, not
    # per-byte loads (same treatment as the generated code's range ops).
    # An empty range still bills the shadow's 1-cycle address arithmetic.
    def _bill_runs(self, runs) -> None:
        for lo, hi in runs:
            self._meter.touch(lo, hi - lo + 1)

    def _set_range(self, address: int, n_bytes: int, label: int) -> None:
        self._bill_runs(self._shadow.fold_or_store(address, n_bytes, 0, True, label)[1])

    def _get_range(self, address: int, n_bytes: int) -> int:
        label, runs = self._shadow.fold_or_store(address, n_bytes, 0)
        self._bill_runs(runs)
        return label

    # -- handlers ---------------------------------------------------------
    def _on_malloc(self, ctx) -> None:
        self._meter.cycles(3)
        ptr, size = ctx.result, ctx.ops[0]
        self._set_range(ptr, size, _POISON)
        slot_addr, columns, offset = self._sizes.lookup(ptr)
        self._meter.touch(slot_addr, 8)
        columns[0][offset] = size

    def _on_calloc(self, ctx) -> None:
        self._meter.cycles(4)
        ptr = ctx.result
        total = ctx.ops[0] * ctx.ops[1]
        self._set_range(ptr, total, 0)
        slot_addr, columns, offset = self._sizes.lookup(ptr)
        self._meter.touch(slot_addr, 8)
        columns[0][offset] = total

    def _on_free(self, ctx) -> None:
        self._meter.cycles(3)
        ptr = ctx.ops[0]
        slot_addr, columns, offset = self._sizes.lookup(ptr)
        self._meter.touch(slot_addr, 8)
        sizes = columns[0]
        if sizes[offset]:
            self._set_range(ptr, sizes[offset], _POISON)
            sizes[offset] = 0

    def _on_memset(self, ctx) -> None:
        self._meter.cycles(2)
        self._set_range(ctx.ops[0], ctx.ops[2], 0)

    def _on_memcpy(self, ctx) -> None:
        self._meter.cycles(2)
        label = self._get_range(ctx.ops[1], ctx.ops[2])
        self._set_range(ctx.ops[0], ctx.ops[2], label)

    def _on_alloca(self, ctx) -> None:
        self._meter.cycles(1)
        self._set_range(ctx.result, ctx.sizeof("r"), _POISON)

    def _on_load(self, ctx) -> None:
        self._meter.cycles(2)
        ctx.set_result_shadow(self._get_range(ctx.ops[0], ctx.sizeof("r")))

    def _on_store(self, ctx) -> None:
        self._meter.cycles(2)
        self._set_range(ctx.ops[1], ctx.sizeof(1), ctx.operand_shadow(1))

    def _on_branch(self, ctx) -> None:
        self._meter.cycles(1)
        label = ctx.operand_shadow(1)
        if label != 0:
            self._vm.reporter.report(
                self.name, "onBranch", "use of uninitialized value", ctx.loc,
                actual=label, expected=0,
            )

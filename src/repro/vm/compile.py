"""Closure-compilation backend for the VM (decode-once interpretation).

The reference interpreter (:meth:`repro.vm.interpreter.Interpreter._run_quantum`)
re-decodes every instruction object on every dynamic step: an
``isinstance``-style class dispatch, attribute loads on the instruction,
reg-vs-immediate checks on each operand, and hook-presence lookups — all
per step, forever.  In CPython that decode dominates the loop, and it is
pure waste: none of it can change after the module is built.

This module performs the decode exactly once.  Each IR instruction is
translated into a *specialized Python closure* ``step(thread, frame)``
with every static decision burned into the closure's cells:

* operand register names / immediate values (no ``type(op) is str`` per step),
* the operator implementation (no string comparison chains per step),
* resolved branch targets (closure lists, no label->block lookups),
* resolved call targets, arity checks, and callee categories,
* cost-model constants and the static source location string,
* and — per the Interpreter's flag combination — whether shadow
  tracking, tracing, or any hook bound to that event kind exists at all.

Compilation is two-staged so the expensive part is shared:

* **stage 1** (:func:`compile_module`) is per-module and *cacheable*:
  it walks the IR once and produces, for every instruction, an *emitter*
  ``bind(binder) -> step`` holding only static data.  Results are
  memoized process-wide keyed by the module's IR digest
  (:func:`ir_digest`), so warm workers — e.g.
  :class:`repro.exec.workers.PersistentWorkerPool` processes and the
  :mod:`repro.serve` daemon — compile each distinct module exactly once.
* **stage 2** (:func:`bind_module`) is per-``Interpreter`` and cheap: it
  calls each emitter with a :class:`_Binder` exposing that VM's profile,
  memory, cache, hooks, tracer and shadow flag, yielding the final
  closures.  Binding happens at ``run()`` time, after analyses have
  attached their hooks (and after the trace recorder has wrapped
  ``vm.cache.access``).

The contract with the reference backend is **bit-identical observable
state**: profiles (all cycle counters, cache stats, event counts),
shadow metadata, reports (including locations and backtraces), and event
sequence numbers match exactly.  ``tests/vm/test_backends.py`` enforces
this differentially across every workload and every bundled analysis.

Every hooked site binds its subscribers at bind time
(:func:`repro.vm.events.bind_site`) and calls the one ``fire(tid,
shadow, ops, result)`` it gets back.  So the hook table, tracer, and
``track_shadow`` flag are snapshotted when ``run()`` first binds the
module; :meth:`Hooks.add` raises after that instead of being missed.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import VMError
from repro.ir.instructions import (
    Alloca,
    BinOp,
    Br,
    Call,
    Cmp,
    Const,
    Jmp,
    Load,
    Ret,
    Store,
)
from repro.ir.module import Module
from repro.obs import Memo
from repro.vm.cache import CacheSim
from repro.vm.events import bind_site
from repro.vm.interpreter import (
    _CALL_CYCLES,
    _DONE,
    _EIGHT,
    _EIGHT_EIGHT,
    _MASK64,
    _RUNNABLE,
    _SHADOW_PROP_CYCLES,
    Frame,
    Interpreter,
)

_NONE1 = (None,)


def _cache_inlinable(cache) -> bool:
    """True when ``cache.access`` is the stock :class:`CacheSim` method —
    not wrapped by the trace recorder, not a subclass override — so
    load/store closures may inline its L1-MRU-hit fast path.  The
    inlined path re-reads ``cache.stats`` on every step, keeping it
    correct across ``reset_stats()``."""
    return (type(cache) is CacheSim
            and "access" not in cache.__dict__
            and cache.l1.n_sets > 0)

# A step closure takes (thread, frame) and returns one of three things,
# forming a threaded-code protocol that lets the quantum driver keep the
# current frame, code list, and instruction pointer in *locals*:
#
# * ``None``      — straight-line step; the driver advances its local ip.
#   Fast-path closures never touch ``frame.ip`` at all.
# * a ``Frame``   — control transfer (branch, jump, call, return): the
#   closure has set that frame's ``ip``/``code`` and the driver reloads
#   its locals from it.
# * anything else (truthy) — the thread left the RUNNABLE state (blocked
#   join/mutex, final return); the quantum ends.
#
# Because the driver's ip lives in a local, ``frame.ip`` is stale during
# fast straight-line runs.  Every closure that can *observe* the ip —
# fires hooks (handlers may call ``vm.backtrace()``), calls builtins,
# pushes or pops frames, or may block-and-retry — re-synchronizes it
# first with its static successor index (``frame.ip = I1``), restoring
# exactly the state the reference interpreter would have at that point.
# The driver writes the ip back when a quantum expires.
Step = Callable[[object, object], object]
Emitter = Tuple[Callable[["_Binder"], Step], str]


# ----------------------------------------------------------------------
# stage-1 output containers
# ----------------------------------------------------------------------
class CompiledFunction:
    """Static translation of one IR function: emitters per block."""

    __slots__ = ("name", "entry", "blocks")

    def __init__(self, name: str, entry: str,
                 blocks: Dict[str, List[Emitter]]) -> None:
        self.name = name
        self.entry = entry
        self.blocks = blocks


class CompiledModule:
    """Stage-1 result — shareable across Interpreters (and identical
    re-constructions of the same module: emitters reference nothing
    VM-specific, and globals/externs resolve per-VM at bind or run time)."""

    __slots__ = ("digest", "functions")

    def __init__(self, digest: str,
                 functions: Dict[str, CompiledFunction]) -> None:
        self.digest = digest
        self.functions = functions


# ----------------------------------------------------------------------
# stage-1 cache, keyed by IR digest
# ----------------------------------------------------------------------
_MEMO = Memo("vm.compile.", 128)


def ir_digest(module: Module) -> str:
    """Content digest of a module's canonical disassembly.

    The same addressing scheme the trace store uses: two modules with
    identical text compile identically, whatever their object identity.
    """
    from repro.ir.text import print_module

    return hashlib.sha256(print_module(module).encode("utf-8")).hexdigest()


def compile_module(module: Module, digest: Optional[str] = None) -> CompiledModule:
    """Stage 1 with digest-keyed, process-wide memoization."""
    if digest is None:
        digest = ir_digest(module)
    return _MEMO.get_or_build(digest, lambda: _compile_module(module, digest))


def _compile_module(module: Module, digest: str) -> CompiledModule:
    functions: Dict[str, CompiledFunction] = {}
    for name, function in module.functions.items():
        blocks: Dict[str, List[Emitter]] = {}
        for label, block in function.blocks.items():
            blocks[label] = [
                _EMITTERS[type(instr)](instr, name, label, index, module)
                for index, instr in enumerate(block.instructions)
            ]
        functions[name] = CompiledFunction(name, function.entry, blocks)
    return CompiledModule(digest, functions)


# ----------------------------------------------------------------------
# stage 2: binding to a concrete Interpreter
# ----------------------------------------------------------------------
class _Binder:
    """Everything an emitter may bake into a closure for one VM."""

    __slots__ = (
        "vm", "profile", "memory", "cache_access", "track_shadow",
        "tracer", "before", "after", "code", "entries", "elide",
    )

    def __init__(self, vm: Interpreter) -> None:
        self.vm = vm
        self.profile = vm.profile
        self.memory = vm.memory
        # Captured *after* any recorder has wrapped it (bind happens at
        # run() time), so recording sees every access.
        self.cache_access = vm.cache.access
        self.track_shadow = vm.track_shadow
        self.tracer = vm._tracer
        self.before = vm.hooks.before
        self.after = vm.hooks.after
        #: (function name, block label) -> the shared list object the
        #: block's closures live in; created empty up front so branch
        #: emitters can capture targets before they are filled.
        self.code: Dict[Tuple[str, str], list] = {}
        self.entries: Dict[str, list] = {}
        #: Effective instrumentation-elision mask (repro.staticpass):
        #: (function, label, index) -> suppressed hook positions.
        #: Stage 1 is digest-keyed and shared across VMs, so the
        #: per-analysis mask applies here, at bind time — suppressed
        #: sites see hb/ha as None and get the hookless fast path.
        self.elide = vm._elision_sites()

    def site_hooks(self, kind: str, fname: str, label: str, index: int):
        """Hook lists for one site, with the elision mask applied."""
        hb = self.before.get(kind)
        ha = self.after.get(kind)
        suppressed = self.elide.get((fname, label, index)) if self.elide else None
        if suppressed:
            if "before" in suppressed:
                hb = None
            if "after" in suppressed:
                ha = None
        return hb, ha

    def site(self, callbacks, kind: str, operand_regs, result_reg, sizes,
             result_size: int, loc: str):
        """One site's bound ``fire(tid, shadow, ops, result)``, or None."""
        return bind_site(self.vm, callbacks, kind, operand_regs, result_reg,
                         sizes, result_size, loc)


def bind_module(vm: Interpreter, compiled: Optional[CompiledModule] = None
                ) -> Dict[Tuple[str, str], list]:
    """Stage 2: produce executable code lists for one Interpreter.

    Returns ``{(function name, block label): closure list}``; every
    branch target inside the closures aliases the same list objects.
    The closures close over the VM, and a loop's list holds a closure
    that holds the list: the VM clears every list when its run ends.
    """
    if compiled is None:
        compiled = compile_module(vm.module)
    binder = _Binder(vm)
    for name, cf in compiled.functions.items():
        for label in cf.blocks:
            binder.code[(name, label)] = []
        binder.entries[name] = binder.code[(name, cf.entry)]
    for name, cf in compiled.functions.items():
        for label, emitters in cf.blocks.items():
            out = binder.code[(name, label)]
            for bind, raw_loc in emitters:
                step = bind(binder)
                if raw_loc:
                    # _bt_entry / backtrace() read `.loc` off whatever
                    # sits in frame.code — tag closures like instructions.
                    step.loc = raw_loc
                out.append(step)
    return binder.code


def _make_finish(b: _Binder, result_reg: Optional[str]):
    """Specialized :meth:`Interpreter._finish_call`."""
    if result_reg is None:
        def finish(frame, value):
            return None
        return finish
    if not b.track_shadow:
        def finish(frame, value):
            frame.regs[result_reg] = value
        return finish
    tracer = b.tracer
    if tracer is None:
        def finish(frame, value):
            frame.regs[result_reg] = value
            frame.shadow.setdefault(result_reg, 0)
        return finish

    def finish(frame, value):
        frame.regs[result_reg] = value
        shadow = frame.shadow
        shadow.setdefault(result_reg, 0)
        tracer.shadow_default(shadow, result_reg)
    return finish


def _args_extractor(args_spec: Tuple[object, ...]):
    """Closure turning a frame's regs into the call's args tuple."""
    n = len(args_spec)
    if n == 0:
        empty = ()

        def get0(regs):
            return empty
        return get0
    if n == 1:
        a0 = args_spec[0]
        if type(a0) is str:
            def get1(regs):
                return (regs[a0],)
            return get1
        k1 = (a0,)

        def get1c(regs):
            return k1
        return get1c
    if n == 2:
        a0, a1 = args_spec
        r0 = type(a0) is str
        r1 = type(a1) is str
        if r0 and r1:
            def get2(regs):
                return (regs[a0], regs[a1])
        elif r0:
            def get2(regs):
                return (regs[a0], a1)
        elif r1:
            def get2(regs):
                return (a0, regs[a1])
        else:
            k2 = (a0, a1)

            def get2(regs):
                return k2
        return get2

    def getn(regs):
        return tuple(regs[a] if type(a) is str else a for a in args_spec)
    return getn


# ----------------------------------------------------------------------
# operator implementations (shared by BinOp / Cmp emitters)
# ----------------------------------------------------------------------
def _binop_impl(op: str, loc: str):
    if op == "add":
        return lambda a, b: a + b
    if op == "sub":
        return lambda a, b: a - b
    if op == "mul":
        return lambda a, b: a * b
    if op == "and":
        return lambda a, b: (a & b) & _MASK64
    if op == "or":
        return lambda a, b: (a | b) & _MASK64
    if op == "xor":
        return lambda a, b: (a ^ b) & _MASK64
    if op == "shl":
        return lambda a, b: (a << (b & 63)) & _MASK64
    if op == "shr":
        return lambda a, b: (a & _MASK64) >> (b & 63)
    if op == "div":
        def div(a, b):
            if b == 0:
                raise VMError(f"division by zero at {loc}")
            return abs(a) // abs(b) * (1 if (a >= 0) == (b >= 0) else -1)
        return div
    if op == "rem":
        def rem(a, b):
            if b == 0:
                raise VMError(f"remainder by zero at {loc}")
            return abs(a) % abs(b) * (1 if a >= 0 else -1)
        return rem
    message = f"unknown binop {op!r}"

    def bad(a, b):
        raise VMError(message)
    return bad


_CMP_IMPL = {
    "eq": lambda a, b: 1 if a == b else 0,
    "ne": lambda a, b: 1 if a != b else 0,
    "lt": lambda a, b: 1 if a < b else 0,
    "le": lambda a, b: 1 if a <= b else 0,
    "gt": lambda a, b: 1 if a > b else 0,
}
_CMP_GE = lambda a, b: 1 if a >= b else 0  # noqa: E731  (reference's default arm)


# ----------------------------------------------------------------------
# emitters — one per instruction class
# ----------------------------------------------------------------------
def _emit_const(instr: Const, fname: str, label: str, index: int, module: Module) -> Emitter:
    result = instr.result
    value = instr.value
    nxt = index + 1
    loc = instr.loc or f"{fname}+{nxt}"
    ops = (value,)

    def bind(b: _Binder) -> Step:
        ha = b.after.get("ConstInst")
        shadow_on = b.track_shadow
        tracer = b.tracer
        if ha is None and not shadow_on:
            def step(thread, frame):
                frame.regs[result] = value
            return step
        fire_a = b.site(ha, "ConstInst", _NONE1, result, _EIGHT, 8, loc)

        def step(thread, frame):
            frame.ip = nxt
            frame.regs[result] = value
            if shadow_on:
                shadow = frame.shadow
                shadow[result] = 0
                if tracer is not None:
                    tracer.shadow_set0(shadow, result)
            if fire_a is not None:
                fire_a(thread.tid, frame.shadow, ops, value)
        return step

    return bind, instr.loc


def _emit_binop(instr: BinOp, fname: str, label: str, index: int, module: Module) -> Emitter:
    result = instr.result
    lhs = instr.lhs
    rhs = instr.rhs
    lreg = type(lhs) is str
    rreg = type(rhs) is str
    op = instr.op
    nxt = index + 1
    loc = instr.loc or f"{fname}+{nxt}"
    opfunc = _binop_impl(op, loc)
    operand_regs = (lhs if lreg else None, rhs if rreg else None)

    def bind(b: _Binder) -> Step:
        hb = b.before.get("BinaryOperator")
        ha = b.after.get("BinaryOperator")
        shadow_on = b.track_shadow
        tracer = b.tracer
        if hb is None and ha is None and not shadow_on:
            # Fully-specialized fast paths for the ops that dominate the
            # dynamic mix; anything exotic goes through opfunc.
            if lreg and rreg:
                if op == "add":
                    def step(thread, frame):
                        regs = frame.regs
                        regs[result] = regs[lhs] + regs[rhs]
                elif op == "sub":
                    def step(thread, frame):
                        regs = frame.regs
                        regs[result] = regs[lhs] - regs[rhs]
                elif op == "mul":
                    def step(thread, frame):
                        regs = frame.regs
                        regs[result] = regs[lhs] * regs[rhs]
                else:
                    def step(thread, frame):
                        regs = frame.regs
                        regs[result] = opfunc(regs[lhs], regs[rhs])
            elif lreg:
                if op == "add":
                    def step(thread, frame):
                        regs = frame.regs
                        regs[result] = regs[lhs] + rhs
                elif op == "sub":
                    def step(thread, frame):
                        regs = frame.regs
                        regs[result] = regs[lhs] - rhs
                else:
                    def step(thread, frame):
                        regs = frame.regs
                        regs[result] = opfunc(regs[lhs], rhs)
            elif rreg:
                def step(thread, frame):
                    regs = frame.regs
                    regs[result] = opfunc(lhs, regs[rhs])
            else:
                def step(thread, frame):
                    frame.regs[result] = opfunc(lhs, rhs)
            return step
        fire_b = b.site(hb, "BinaryOperator", operand_regs, result, _EIGHT_EIGHT, 8, loc)
        fire_a = b.site(ha, "BinaryOperator", operand_regs, result, _EIGHT_EIGHT, 8, loc)
        profile = b.profile

        def step(thread, frame):
            frame.ip = nxt
            regs = frame.regs
            a = regs[lhs] if lreg else lhs
            bv = regs[rhs] if rreg else rhs
            value = opfunc(a, bv)  # may raise, matching reference order
            if fire_b is not None:
                fire_b(thread.tid, frame.shadow, (a, bv), None)
            regs[result] = value
            if shadow_on:
                shadow = frame.shadow
                meta = (shadow.get(lhs, 0) if lreg else 0) | (
                    shadow.get(rhs, 0) if rreg else 0
                )
                shadow[result] = meta
                profile.instr_cycles += _SHADOW_PROP_CYCLES
                if tracer is not None:
                    tracer.shadow_or2(
                        shadow, result,
                        lhs if lreg else None, rhs if rreg else None,
                    )
            if fire_a is not None:
                fire_a(thread.tid, frame.shadow, (a, bv), value)
        return step

    return bind, instr.loc


def _emit_cmp(instr: Cmp, fname: str, label: str, index: int, module: Module) -> Emitter:
    result = instr.result
    lhs = instr.lhs
    rhs = instr.rhs
    lreg = type(lhs) is str
    rreg = type(rhs) is str
    op = instr.op
    nxt = index + 1
    loc = instr.loc or f"{fname}+{nxt}"
    cmpfunc = _CMP_IMPL.get(op, _CMP_GE)
    operand_regs = (lhs if lreg else None, rhs if rreg else None)

    def bind(b: _Binder) -> Step:
        ha = b.after.get("CmpInst")
        shadow_on = b.track_shadow
        tracer = b.tracer
        if ha is None and not shadow_on:
            if lreg and rreg:
                if op == "lt":
                    def step(thread, frame):
                        regs = frame.regs
                        regs[result] = 1 if regs[lhs] < regs[rhs] else 0
                elif op == "eq":
                    def step(thread, frame):
                        regs = frame.regs
                        regs[result] = 1 if regs[lhs] == regs[rhs] else 0
                else:
                    def step(thread, frame):
                        regs = frame.regs
                        regs[result] = cmpfunc(regs[lhs], regs[rhs])
            elif lreg:
                if op == "lt":
                    def step(thread, frame):
                        regs = frame.regs
                        regs[result] = 1 if regs[lhs] < rhs else 0
                elif op == "eq":
                    def step(thread, frame):
                        regs = frame.regs
                        regs[result] = 1 if regs[lhs] == rhs else 0
                else:
                    def step(thread, frame):
                        regs = frame.regs
                        regs[result] = cmpfunc(regs[lhs], rhs)
            elif rreg:
                def step(thread, frame):
                    regs = frame.regs
                    regs[result] = cmpfunc(lhs, regs[rhs])
            else:
                def step(thread, frame):
                    frame.regs[result] = cmpfunc(lhs, rhs)
            return step
        fire_a = b.site(ha, "CmpInst", operand_regs, result, _EIGHT_EIGHT, 8, loc)
        profile = b.profile

        def step(thread, frame):
            frame.ip = nxt
            regs = frame.regs
            a = regs[lhs] if lreg else lhs
            bv = regs[rhs] if rreg else rhs
            value = cmpfunc(a, bv)
            regs[result] = value
            if shadow_on:
                shadow = frame.shadow
                meta = (shadow.get(lhs, 0) if lreg else 0) | (
                    shadow.get(rhs, 0) if rreg else 0
                )
                shadow[result] = meta
                profile.instr_cycles += _SHADOW_PROP_CYCLES
                if tracer is not None:
                    tracer.shadow_or2(
                        shadow, result,
                        lhs if lreg else None, rhs if rreg else None,
                    )
            if fire_a is not None:
                fire_a(thread.tid, frame.shadow, (a, bv), value)
        return step

    return bind, instr.loc


def _emit_load(instr: Load, fname: str, label: str, index: int, module: Module) -> Emitter:
    result = instr.result
    address_op = instr.address
    areg = type(address_op) is str
    size = instr.size
    nxt = index + 1
    loc = instr.loc or f"{fname}+{nxt}"
    operand_regs = (address_op if areg else None,)

    def bind(b: _Binder) -> Step:
        hb, ha = b.site_hooks("LoadInst", fname, label, index)
        shadow_on = b.track_shadow
        tracer = b.tracer
        profile = b.profile
        cache_access = b.cache_access
        memory_read = b.memory.read
        if hb is None and ha is None and not shadow_on:
            cache = b.vm.cache
            if areg and size == 8 and _cache_inlinable(cache):
                # Hottest shape: 8-byte load through a register address
                # on an unwrapped cache.  Inline the L1-MRU-hit
                # accounting and the aligned-word read; anything else
                # (line crossing, L1 miss, unaligned, guard page) falls
                # back to the exact slow calls.
                l1_get = cache.l1.sets.get
                n1 = cache.l1.n_sets
                shift = cache._line_shift
                l1_cycles = cache._l1_cycles
                words_get = b.memory._words.get

                def step(thread, frame):
                    regs = frame.regs
                    address = regs[address_op]
                    line = address >> shift
                    ways = l1_get(line % n1)
                    if (ways is not None and ways[-1] == line
                            and (address + 7) >> shift == line):
                        stats = cache.stats
                        stats.accesses += 1
                        stats.l1_hits += 1
                        profile.mem_cycles += l1_cycles
                    else:
                        profile.mem_cycles += cache_access(address, 8)
                    if address & 7 == 0 and address >= 0x1000:
                        regs[result] = words_get(address >> 3, 0)
                    else:
                        regs[result] = memory_read(address, 8)
                return step
            if areg:
                def step(thread, frame):
                    regs = frame.regs
                    address = regs[address_op]
                    profile.mem_cycles += cache_access(address, size)
                    regs[result] = memory_read(address, size)
            else:
                def step(thread, frame):
                    profile.mem_cycles += cache_access(address_op, size)
                    frame.regs[result] = memory_read(address_op, size)
            return step
        fire_b = b.site(hb, "LoadInst", operand_regs, result, _EIGHT, size, loc)
        fire_a = b.site(ha, "LoadInst", operand_regs, result, _EIGHT, size, loc)

        def step(thread, frame):
            frame.ip = nxt
            regs = frame.regs
            address = regs[address_op] if areg else address_op
            if fire_b is not None:
                fire_b(thread.tid, frame.shadow, (address,), None)
            profile.mem_cycles += cache_access(address, size)
            value = memory_read(address, size)
            regs[result] = value
            if shadow_on:
                shadow = frame.shadow
                shadow[result] = 0
                if tracer is not None:
                    tracer.shadow_set0(shadow, result)
            if fire_a is not None:
                fire_a(thread.tid, frame.shadow, (address,), value)
        return step

    return bind, instr.loc


def _emit_store(instr: Store, fname: str, label: str, index: int, module: Module) -> Emitter:
    value_op = instr.value
    address_op = instr.address
    vreg = type(value_op) is str
    areg = type(address_op) is str
    size = instr.size
    sizes = (size, 8)
    nxt = index + 1
    loc = instr.loc or f"{fname}+{nxt}"
    operand_regs = (value_op if vreg else None, address_op if areg else None)

    def bind(b: _Binder) -> Step:
        hb, ha = b.site_hooks("StoreInst", fname, label, index)
        profile = b.profile
        cache_access = b.cache_access
        memory_write = b.memory.write
        if hb is None and ha is None:
            cache = b.vm.cache
            if areg and size == 8 and _cache_inlinable(cache):
                l1_get = cache.l1.sets.get
                n1 = cache.l1.n_sets
                shift = cache._line_shift
                l1_cycles = cache._l1_cycles
                words = b.memory._words

                def step(thread, frame):
                    regs = frame.regs
                    address = regs[address_op]
                    line = address >> shift
                    ways = l1_get(line % n1)
                    if (ways is not None and ways[-1] == line
                            and (address + 7) >> shift == line):
                        stats = cache.stats
                        stats.accesses += 1
                        stats.l1_hits += 1
                        profile.mem_cycles += l1_cycles
                    else:
                        profile.mem_cycles += cache_access(address, 8)
                    value = regs[value_op] if vreg else value_op
                    if address & 7 == 0 and address >= 0x1000:
                        words[address >> 3] = value & _MASK64
                    else:
                        memory_write(address, value, 8)
                return step

            def step(thread, frame):
                regs = frame.regs
                address = regs[address_op] if areg else address_op
                profile.mem_cycles += cache_access(address, size)
                memory_write(address, regs[value_op] if vreg else value_op, size)
            return step
        fire_b = b.site(hb, "StoreInst", operand_regs, None, sizes, 0, loc)
        fire_a = b.site(ha, "StoreInst", operand_regs, None, sizes, 0, loc)

        def step(thread, frame):
            frame.ip = nxt
            regs = frame.regs
            value = regs[value_op] if vreg else value_op
            address = regs[address_op] if areg else address_op
            if fire_b is not None:
                fire_b(thread.tid, frame.shadow, (value, address), None)
            profile.mem_cycles += cache_access(address, size)
            memory_write(address, value, size)
            if fire_a is not None:
                fire_a(thread.tid, frame.shadow, (value, address), None)
        return step

    return bind, instr.loc


def _emit_br(instr: Br, fname: str, label: str, index: int, module: Module) -> Emitter:
    cond_op = instr.cond
    creg = type(cond_op) is str
    then_label = instr.then_label
    else_label = instr.else_label
    nxt = index + 1
    loc = instr.loc or f"{fname}+{nxt}"
    # The reference fires the after-hook once frame.ip is 0, so _loc
    # renders the *post-jump* position.
    loc_after = instr.loc or f"{fname}+0"
    operand_regs = (cond_op if creg else None,)

    def bind(b: _Binder) -> Step:
        then_code = b.code[(fname, then_label)]
        else_code = b.code[(fname, else_label)]
        hb = b.before.get("BranchInst")
        ha = b.after.get("BranchInst")
        if hb is None and ha is None:
            if creg:
                def step(thread, frame):
                    frame.code = then_code if frame.regs[cond_op] else else_code
                    frame.ip = 0
                    return frame
            else:
                target = then_code if cond_op else else_code

                def step(thread, frame):
                    frame.code = target
                    frame.ip = 0
                    return frame
            return step
        fire_b = b.site(hb, "BranchInst", operand_regs, None, _EIGHT, 0, loc)
        fire_a = b.site(ha, "BranchInst", operand_regs, None, _EIGHT, 0, loc_after)

        def step(thread, frame):
            frame.ip = nxt
            cond = frame.regs[cond_op] if creg else cond_op
            if fire_b is not None:
                fire_b(thread.tid, frame.shadow, (cond,), None)
            frame.code = then_code if cond else else_code
            frame.ip = 0
            if fire_a is not None:
                fire_a(thread.tid, frame.shadow, (cond,), None)
            return frame
        return step

    return bind, instr.loc


def _emit_jmp(instr: Jmp, fname: str, label: str, index: int, module: Module) -> Emitter:
    label = instr.label

    def bind(b: _Binder) -> Step:
        target = b.code[(fname, label)]

        def step(thread, frame):
            frame.code = target
            frame.ip = 0
            return frame
        return step

    return bind, instr.loc


def _emit_alloca(instr: Alloca, fname: str, label: str, index: int, module: Module) -> Emitter:
    result = instr.result
    size_op = instr.size
    sreg = type(size_op) is str
    nxt = index + 1
    loc = instr.loc or f"{fname}+{nxt}"
    operand_regs = (size_op if sreg else None,)

    def bind(b: _Binder) -> Step:
        ha = b.after.get("AllocaInst")
        shadow_on = b.track_shadow
        tracer = b.tracer
        if ha is None and not shadow_on:
            def step(thread, frame):
                size = frame.regs[size_op] if sreg else size_op
                top = thread.stack_top - ((size + 15) & ~15)
                if top <= thread.stack_base:
                    raise VMError(f"stack overflow in thread {thread.tid}")
                thread.stack_top = top
                frame.regs[result] = top
            return step
        vm = b.vm
        #: allocation size (``sizeof($r)``, dynamic for a register size)
        #: -> the site bound with it
        fires = {}

        def step(thread, frame):
            frame.ip = nxt
            size = frame.regs[size_op] if sreg else size_op
            top = thread.stack_top - ((size + 15) & ~15)
            if top <= thread.stack_base:
                raise VMError(f"stack overflow in thread {thread.tid}")
            thread.stack_top = top
            frame.regs[result] = top
            if shadow_on:
                shadow = frame.shadow
                shadow[result] = 0
                if tracer is not None:
                    tracer.shadow_set0(shadow, result)
            if ha is not None:
                fire_a = fires.get(size)
                if fire_a is None:
                    fire_a = fires[size] = bind_site(vm, ha, "AllocaInst", operand_regs,
                                                     result, _EIGHT, size, loc)
                fire_a(thread.tid, frame.shadow, (size,), top)
        return step

    return bind, instr.loc


def _emit_ret(instr: Ret, fname: str, label: str, index: int, module: Module) -> Emitter:
    value_op = instr.value
    vreg = type(value_op) is str
    const_value = 0 if value_op is None or vreg else value_op
    nxt = index + 1
    loc = instr.loc or f"{fname}+{nxt}"
    operand_regs = () if value_op is None else ((value_op if vreg else None),)
    after_key = "func:" + fname

    def bind(b: _Binder) -> Step:
        vm = b.vm
        hb = b.before.get("ReturnInst")
        ha_func = b.after.get(after_key)
        if (hb is None and ha_func is None and b.tracer is None
                and not b.track_shadow):
            joiners = vm._joiners
            if vreg:
                def step(thread, frame):
                    value = frame.regs[value_op]
                    thread.stack_top = frame.stack_mark
                    frames = thread.frames
                    frames.pop()
                    if not frames:
                        thread.status = _DONE
                        thread.result = value
                        for waiter in joiners.pop(thread.tid, []):
                            waiter.status = _RUNNABLE
                        return True
                    call_instr = frame.call_instr
                    caller = frames[-1]
                    if call_instr is not None and call_instr.result is not None:
                        caller.regs[call_instr.result] = value
                    return caller
            else:
                def step(thread, frame):
                    thread.stack_top = frame.stack_mark
                    frames = thread.frames
                    frames.pop()
                    if not frames:
                        thread.status = _DONE
                        thread.result = const_value
                        for waiter in joiners.pop(thread.tid, []):
                            waiter.status = _RUNNABLE
                        return True
                    call_instr = frame.call_instr
                    caller = frames[-1]
                    if call_instr is not None and call_instr.result is not None:
                        caller.regs[call_instr.result] = const_value
                    return caller
            return step
        fire_b = b.site(hb, "ReturnInst", operand_regs, None, _EIGHT, 0, loc)

        def step(thread, frame):
            frame.ip = nxt
            if fire_b is not None:
                value = frame.regs[value_op] if vreg else const_value
                fire_b(thread.tid, frame.shadow, (value,), None)
            vm._do_ret(thread, frame, instr)
            frames = thread.frames
            if frames:
                return frames[-1]
            return True  # root frame popped; thread is _DONE
        return step

    return bind, instr.loc


def _emit_call(instr: Call, fname: str, label: str, index: int, module: Module) -> Emitter:
    callee = instr.callee
    args_spec = tuple(instr.args)
    nargs = len(args_spec)
    result_reg = instr.result
    operand_regs = tuple(a if type(a) is str else None for a in args_spec)
    sizes = (8,) * nargs
    nxt = index + 1
    loc = instr.loc or f"{fname}+{nxt}"
    get_args = _args_extractor(args_spec)

    target = module.functions.get(callee)
    if target is not None:
        func_key = "func:" + callee
        params = tuple(target.params)
        shadow_pairs = tuple(
            (param, arg if type(arg) is str else None)
            for param, arg in zip(params, args_spec)
        )
        arity_msg = (
            None if nargs == len(params)
            else f"{callee} expects {len(params)} args, got {nargs}"
        )

        def bind(b: _Binder) -> Step:
            vm = b.vm
            profile = b.profile
            entry = b.entries[callee]
            fire_call = b.site(b.before.get("CallInst"), "CallInst", operand_regs,
                               result_reg, sizes, 8, loc)
            fire_b = b.site(b.before.get(func_key), func_key, operand_regs,
                            result_reg, sizes, 8, loc)
            # The callee's Ret fires the after-event at this call site.
            on_return = b.site(b.after.get(func_key), func_key, operand_regs,
                               result_reg, sizes, 8, loc)
            tracer = b.tracer
            shadow_on = b.track_shadow
            if (fire_call is None and fire_b is None and on_return is None
                    and tracer is None and not shadow_on and arity_msg is None):
                def step(thread, frame):
                    frame.ip = nxt
                    profile.base_cycles += _CALL_CYCLES
                    args = get_args(frame.regs)
                    new = Frame(target, dict(zip(params, args)), entry)
                    new.stack_mark = thread.stack_top
                    new.call_instr = instr
                    new.call_ops = args
                    thread.frames.append(new)
                    return new
                return step
            bt_entry = vm._bt_entry

            def step(thread, frame):
                frame.ip = nxt
                profile.base_cycles += _CALL_CYCLES
                args = get_args(frame.regs)
                if fire_call is not None:
                    fire_call(thread.tid, frame.shadow, args, None)
                if arity_msg is not None:
                    raise VMError(arity_msg)
                if fire_b is not None:
                    fire_b(thread.tid, frame.shadow, args, None)
                new = Frame(target, dict(zip(params, args)), entry)
                new.stack_mark = thread.stack_top
                new.call_instr = instr
                new.call_ops = args
                new.caller_shadow = frame.shadow
                new.on_return = on_return
                if tracer is not None:
                    tracer.frame_push(new.shadow, thread.tid, frame.shadow,
                                      bt_entry(frame))
                if shadow_on:
                    caller_shadow = frame.shadow
                    new_shadow = new.shadow
                    for param, argreg in shadow_pairs:
                        new_shadow[param] = (
                            caller_shadow.get(argreg, 0)
                            if argreg is not None else 0
                        )
                        if tracer is not None:
                            tracer.shadow_mov(new_shadow, param,
                                              caller_shadow, argreg)
                thread.frames.append(new)
                return new
            return step

        return bind, instr.loc

    base, _, suffix = callee.partition("$")

    if base == "global_addr":
        def bind(b: _Binder) -> Step:
            vm = b.vm
            profile = b.profile
            fire_call = b.site(b.before.get("CallInst"), "CallInst", operand_regs,
                               result_reg, sizes, 8, loc)
            fire_a = b.site(b.after.get("func:global_addr"), "func:global_addr", operand_regs,
                            result_reg, sizes, 8, loc)
            finish = _make_finish(b, result_reg)

            def step(thread, frame):
                frame.ip = nxt
                profile.base_cycles += _CALL_CYCLES
                args = get_args(frame.regs)
                if fire_call is not None:
                    fire_call(thread.tid, frame.shadow, args, None)
                value = vm.global_address(suffix)
                if fire_a is not None:
                    fire_a(thread.tid, frame.shadow, args, value)
                finish(frame, value)
            return step

        return bind, instr.loc

    if base == "spawn":
        def bind(b: _Binder) -> Step:
            vm = b.vm
            profile = b.profile
            fire_call = b.site(b.before.get("CallInst"), "CallInst", operand_regs,
                               result_reg, sizes, 8, loc)
            fire_a = b.site(b.after.get("func:spawn"), "func:spawn", operand_regs,
                            result_reg, sizes, 8, loc)
            finish = _make_finish(b, result_reg)

            def step(thread, frame):
                frame.ip = nxt
                profile.base_cycles += _CALL_CYCLES
                args = get_args(frame.regs)
                if fire_call is not None:
                    fire_call(thread.tid, frame.shadow, args, None)
                value = vm._do_spawn(thread, frame, instr, suffix, args)
                if fire_a is not None:
                    fire_a(thread.tid, frame.shadow, args, value)
                finish(frame, value)
            return step

        return bind, instr.loc

    if base == "join":
        def bind(b: _Binder) -> Step:
            vm = b.vm
            profile = b.profile
            fire_call = b.site(b.before.get("CallInst"), "CallInst", operand_regs,
                               result_reg, sizes, 8, loc)
            fire_a = b.site(b.after.get("func:join"), "func:join", operand_regs,
                            result_reg, sizes, 8, loc)
            finish = _make_finish(b, result_reg)

            def step(thread, frame):
                frame.ip = nxt
                profile.base_cycles += _CALL_CYCLES
                args = get_args(frame.regs)
                if fire_call is not None:
                    fire_call(thread.tid, frame.shadow, args, None)
                if vm._do_join(thread, args):
                    return True  # blocked: retried (and the hook refired) on wake
                value = vm.threads[args[0]].result
                if fire_a is not None:
                    fire_a(thread.tid, frame.shadow, args, value)
                finish(frame, value)
            return step

        return bind, instr.loc

    if base in ("mutex_lock", "mutex_unlock"):
        func_key = "func:" + base
        locking = base == "mutex_lock"

        def bind(b: _Binder) -> Step:
            vm = b.vm
            profile = b.profile
            fire_call = b.site(b.before.get("CallInst"), "CallInst", operand_regs,
                               result_reg, sizes, 8, loc)
            fire_b = b.site(b.before.get(func_key), func_key, operand_regs,
                            result_reg, _EIGHT, 8, loc)
            fire_a = b.site(b.after.get(func_key), func_key, operand_regs,
                            result_reg, _EIGHT, 8, loc)
            finish = _make_finish(b, result_reg)
            if locking:
                def step(thread, frame):
                    frame.ip = nxt
                    profile.base_cycles += _CALL_CYCLES
                    args = get_args(frame.regs)
                    if fire_call is not None:
                        fire_call(thread.tid, frame.shadow, args, None)
                    if fire_b is not None:
                        fire_b(thread.tid, frame.shadow, args, None)
                    if vm._do_lock(thread, args[0]):
                        return True  # blocked; hooks refire on retry (spin model)
                    profile.base_cycles += 4  # atomic RMW cost
                    if fire_a is not None:
                        fire_a(thread.tid, frame.shadow, args, 0)
                    finish(frame, 0)
            else:
                def step(thread, frame):
                    frame.ip = nxt
                    profile.base_cycles += _CALL_CYCLES
                    args = get_args(frame.regs)
                    if fire_call is not None:
                        fire_call(thread.tid, frame.shadow, args, None)
                    if fire_b is not None:
                        fire_b(thread.tid, frame.shadow, args, None)
                    vm._do_unlock(thread, args[0])
                    profile.base_cycles += 4
                    if fire_a is not None:
                        fire_a(thread.tid, frame.shadow, args, 0)
                    finish(frame, 0)
            return step

        return bind, instr.loc

    # Builtin (libc / simulated library / extern).  Unknown names are
    # normally rejected at Interpreter construction; keep the lazy error
    # for parity with the reference's execution-time raise.
    func_key = "func:" + callee
    unknown_msg = f"call to unknown function {callee!r}"

    def bind(b: _Binder) -> Step:
        vm = b.vm
        profile = b.profile
        builtin = vm._builtins.get(callee)
        fire_call = b.site(b.before.get("CallInst"), "CallInst", operand_regs,
                           result_reg, sizes, 8, loc)
        fire_b = b.site(b.before.get(func_key), func_key, operand_regs,
                        result_reg, sizes, 8, loc)
        fire_a = b.site(b.after.get(func_key), func_key, operand_regs,
                        result_reg, sizes, 8, loc)
        finish = _make_finish(b, result_reg)
        if (fire_call is None and fire_b is None and fire_a is None
                and builtin is not None):
            if result_reg is None and not b.track_shadow:
                def step(thread, frame):
                    frame.ip = nxt
                    profile.base_cycles += _CALL_CYCLES
                    builtin(vm, thread, get_args(frame.regs))
            else:
                def step(thread, frame):
                    frame.ip = nxt
                    profile.base_cycles += _CALL_CYCLES
                    value = builtin(vm, thread, get_args(frame.regs))
                    finish(frame, 0 if value is None else value)
            return step

        def step(thread, frame):
            frame.ip = nxt
            profile.base_cycles += _CALL_CYCLES
            args = get_args(frame.regs)
            if fire_call is not None:
                fire_call(thread.tid, frame.shadow, args, None)
            if builtin is None:
                raise VMError(unknown_msg)
            if fire_b is not None:
                fire_b(thread.tid, frame.shadow, args, None)
            value = builtin(vm, thread, args)
            if value is None:
                value = 0
            if fire_a is not None:
                fire_a(thread.tid, frame.shadow, args, value)
            finish(frame, value)
        return step

    return bind, instr.loc


_EMITTERS = {
    Const: _emit_const,
    BinOp: _emit_binop,
    Cmp: _emit_cmp,
    Load: _emit_load,
    Store: _emit_store,
    Br: _emit_br,
    Jmp: _emit_jmp,
    Alloca: _emit_alloca,
    Ret: _emit_ret,
    Call: _emit_call,
}

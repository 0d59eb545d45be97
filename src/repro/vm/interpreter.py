"""Deterministic interpreter for the mini-IR with instrumentation hooks.

Execution model:

* registers are per-frame and mutable; memory is the shared
  :class:`repro.vm.memory.Memory`;
* threads run round-robin with a fixed instruction quantum, so every run
  is deterministic;
* ``spawn$<func>(args...)`` starts a thread, ``join(tid)`` waits for it,
  ``mutex_lock(addr)``/``mutex_unlock(addr)`` are blocking locks — all of
  these also fire ``func:`` instrumentation events;
* when ``track_shadow`` is on, every register carries a *local metadata*
  word (ALDA's ``$X.m``): constants reset it to 0, arithmetic ORs operand
  metadata, calls and returns propagate it, and ``after``-handlers with a
  return value overwrite the destination register's metadata.  Each
  propagated instruction bills one cycle to the analysis, modelling the
  inline shadow arithmetic a real compiler would have emitted.

Cost model: see :mod:`repro.vm.profile`.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import DeadlockError, IRError, VMError
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
from repro.ir.module import Function, Module
from repro.ir.validate import validate_module
from repro.vm.cache import CacheConfig, CacheSim
from repro.vm.events import EventContext, Hooks
from repro.vm.memory import AddressSpace, Heap, Memory
from repro.vm.profile import Profile
from repro.vm import libc as libc_module
from repro.vm.reporting import Reporter

_MASK64 = (1 << 64) - 1

_RUNNABLE = 0
_BLOCKED_JOIN = 1
_BLOCKED_MUTEX = 2
_DONE = 3

_CALL_CYCLES = 2
_HANDLER_DISPATCH_CYCLES = 2
_SHADOW_PROP_CYCLES = 1

_EIGHT = (8,)
_EIGHT_EIGHT = (8, 8)


class Frame:
    __slots__ = (
        "function",
        "blocks",
        "code",
        "ip",
        "regs",
        "shadow",
        "stack_mark",
        "call_instr",
        "call_ops",
        "caller_shadow",
    )

    def __init__(self, function: Function, regs: Dict[str, int],
                 code: Optional[list] = None) -> None:
        self.function = function
        self.blocks = function.blocks
        # ``code`` is the entry block's instruction list (reference
        # backend) or its compiled closure list (compiled backend).
        self.code = code if code is not None else function.blocks[function.entry].instructions
        self.ip = 0
        self.regs = regs
        self.shadow: Dict[str, int] = {}
        self.stack_mark = 0
        # Call-site bookkeeping for after-func events:
        self.call_instr: Optional[Call] = None
        self.call_ops: Tuple[int, ...] = ()
        self.caller_shadow: Optional[Dict[str, int]] = None


class ThreadState:
    __slots__ = ("tid", "frames", "status", "wait_tid", "wait_mutex", "result", "stack_top", "stack_base")

    def __init__(self, tid: int) -> None:
        self.tid = tid
        self.frames: List[Frame] = []
        self.status = _RUNNABLE
        self.wait_tid = -1
        self.wait_mutex = -1
        self.result = 0
        self.stack_base = AddressSpace.STACK_BASE + tid * AddressSpace.STACK_STRIDE
        self.stack_top = self.stack_base + AddressSpace.STACK_STRIDE


class Interpreter:
    """Executes a validated module and produces a :class:`Profile`."""

    def __init__(
        self,
        module: Module,
        hooks: Optional[Hooks] = None,
        cache_config: Optional[CacheConfig] = None,
        extern: Optional[Dict[str, Callable]] = None,
        track_shadow: bool = False,
        quantum: int = 64,
        max_steps: int = 200_000_000,
        input_lines: Optional[Sequence[bytes]] = None,
        backend: str = "compiled",
    ) -> None:
        if backend not in ("compiled", "reference"):
            raise ValueError(
                f"unknown backend {backend!r}; choose 'compiled' or 'reference'"
            )
        validate_module(module)
        self.module = module
        self.hooks = hooks or Hooks()
        self.memory = Memory()
        self.heap = Heap()
        self.cache = CacheSim(cache_config)
        self.profile = Profile()
        self.reporter = Reporter(self.profile)
        self.track_shadow = track_shadow
        self.quantum = quantum
        self.max_steps = max_steps
        self.input_lines = deque(input_lines or [])
        self._default_input = b"simulated-input\x00"

        self.threads: List[ThreadState] = []
        self._joiners: Dict[int, List[ThreadState]] = {}
        self._mutexes: Dict[int, Tuple[int, deque]] = {}
        self._globals: Dict[str, int] = {}
        self._rng_state = 0x2545F4914F6CDD1D

        self._builtins: Dict[str, Callable] = dict(libc_module.REGISTRY)
        if extern:
            self._builtins.update(extern)
        self._unresolved_check()
        self._layout_globals()

        self._hb = self.hooks.before
        self._ha = self.hooks.after
        self._fire_seq = 0
        self._current_thread: Optional[ThreadState] = None
        self._tracer = None

        #: Instrumentation-elision masks (repro.staticpass.elide): each
        #: attached analysis registers the site mask it proved safe (an
        #: empty mask vetoes).  The effective mask is the intersection,
        #: so hooks are only suppressed where *every* analysis agreed.
        self._elision_masks: List[Dict[Tuple[str, str, int], frozenset]] = []
        # Identity sets of Load/Store instruction objects whose
        # before/after hooks are suppressed (reference backend).
        self._elide_before: frozenset = frozenset()
        self._elide_after: frozenset = frozenset()

        #: "compiled" (default): decode-once closure execution, see
        #: :mod:`repro.vm.compile`.  "reference": the object-walking
        #: switch loop below.  Both produce the same observable state,
        #: bit for bit.
        self.backend = backend
        self._entry_code: Optional[Dict[str, list]] = None

    def set_tracer(self, tracer) -> None:
        """Install an :class:`repro.vm.events.ExecutionTracer` (or None).

        Must be called before :meth:`run`; threads already created would
        otherwise miss their frame_push notifications.
        """
        if self.threads:
            raise VMError("set_tracer must be called before run()")
        self._tracer = tracer

    def register_elision(
        self, mask: Dict[Tuple[str, str, int], frozenset]
    ) -> None:
        """Register one analysis's statically-skippable hook sites.

        ``mask`` maps ``(function, block label, instruction index)`` to
        the hook positions (``"before"``/``"after"``) proved redundant
        by :mod:`repro.staticpass.elide`.  Every attaching analysis
        registers a mask (possibly empty); only the intersection is
        applied, so one elision-unsafe analysis disables elision for
        the whole run.  Must be called before :meth:`run`.
        """
        if self.threads:
            raise VMError("register_elision must be called before run()")
        self._elision_masks.append(dict(mask))

    def _elision_sites(self) -> Dict[Tuple[str, str, int], frozenset]:
        """Effective site mask: intersection of all registered masks."""
        if not self._elision_masks:
            return {}
        effective = dict(self._elision_masks[0])
        for mask in self._elision_masks[1:]:
            merged = {}
            for site, positions in effective.items():
                other = mask.get(site)
                if other:
                    common = positions & other
                    if common:
                        merged[site] = common
            effective = merged
        return effective

    def _materialize_elision(self) -> None:
        """Resolve the site mask to instruction identities for the
        reference loop (the compiled backend resolves at bind time)."""
        before, after = set(), set()
        for (fname, label, index), positions in self._elision_sites().items():
            function = self.module.functions.get(fname)
            block = function.blocks.get(label) if function else None
            if block is None or index >= len(block.instructions):
                continue
            instr_id = id(block.instructions[index])
            if "before" in positions:
                before.add(instr_id)
            if "after" in positions:
                after.add(instr_id)
        self._elide_before = frozenset(before)
        self._elide_after = frozenset(after)

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------
    def _unresolved_check(self) -> None:
        for name in validate_module(self.module):
            base = name.split("$", 1)[0]
            if base in ("spawn", "global_addr", "join", "mutex_lock", "mutex_unlock"):
                continue
            if base not in self._builtins:
                raise IRError(f"unresolved call target {name!r}")

    def _layout_globals(self) -> None:
        cursor = AddressSpace.GLOBALS_BASE
        for name, size in self.module.globals.items():
            self._globals[name] = cursor
            cursor += (size + 63) & ~63  # line-align each global

    def global_address(self, name: str) -> int:
        try:
            return self._globals[name]
        except KeyError:
            raise VMError(f"unknown global {name!r}") from None

    # ------------------------------------------------------------------
    # memory helpers for builtins / runtime structures
    # ------------------------------------------------------------------
    def mem_read(self, address: int, size: int) -> int:
        self.profile.mem_cycles += self.cache.access(address, size)
        return self.memory.read(address, size)

    def mem_write(self, address: int, value: int, size: int) -> None:
        self.profile.mem_cycles += self.cache.access(address, size)
        self.memory.write(address, value, size)

    def next_input(self) -> bytes:
        if self.input_lines:
            return self.input_lines.popleft()
        return self._default_input

    def rand(self) -> int:
        # xorshift64*, deterministic across runs
        x = self._rng_state
        x ^= (x >> 12) & _MASK64
        x = (x ^ (x << 25)) & _MASK64
        x ^= (x >> 27) & _MASK64
        self._rng_state = x
        return (x * 0x2545F4914F6CDD1D) & _MASK64

    # ------------------------------------------------------------------
    # threads
    # ------------------------------------------------------------------
    def _new_thread(self, function: Function, args: Sequence[int]) -> ThreadState:
        if len(args) != len(function.params):
            raise VMError(
                f"{function.name} expects {len(function.params)} args, got {len(args)}"
            )
        thread = ThreadState(len(self.threads))
        entry_code = self._entry_code
        frame = Frame(
            function, dict(zip(function.params, args)),
            entry_code[function.name] if entry_code is not None else None,
        )
        frame.stack_mark = thread.stack_top
        thread.frames.append(frame)
        self.threads.append(thread)
        if self._tracer is not None:
            self._tracer.frame_push(frame.shadow, thread.tid)
        return thread

    # ------------------------------------------------------------------
    # run loop
    # ------------------------------------------------------------------
    def run(self, entry: str = "main", args: Sequence[int] = ()) -> Profile:
        if self.backend == "compiled":
            if self._entry_code is None:
                # Bound here — not in __init__ — so the snapshot sees the
                # hooks analyses attached and any wrapped cache.access.
                from repro.vm.compile import bind_module

                self._entry_code = bind_module(self)
            run_quantum = self._run_quantum_compiled
        else:
            if self._elision_masks and not self.threads:
                self._materialize_elision()
            run_quantum = self._run_quantum
        main = self.module.get_function(entry)
        self._new_thread(main, list(args))
        steps_budget = self.max_steps
        while True:
            ran_any = False
            all_done = True
            for thread in list(self.threads):
                status = thread.status
                if status == _DONE:
                    continue
                all_done = False
                if status != _RUNNABLE:
                    continue
                ran_any = True
                executed = run_quantum(thread)
                steps_budget -= executed
                if steps_budget <= 0:
                    raise VMError(f"exceeded max_steps={self.max_steps}")
            if all_done:
                break
            if not ran_any:
                raise DeadlockError(
                    f"all {len(self.threads)} threads blocked "
                    f"(joins/mutexes can never be satisfied)"
                )
        self.profile.heap_peak_bytes = self.heap.peak_bytes
        self.profile.cache = self.cache.stats
        return self.profile

    # ------------------------------------------------------------------
    # core execution
    # ------------------------------------------------------------------
    def _run_quantum_compiled(self, thread: ThreadState) -> int:
        """Quantum driver for the closure backend (:mod:`repro.vm.compile`).

        Each slot in ``frame.code`` is a specialized ``step(thread,
        frame)`` closure; all decode happened at bind time.  The frame,
        its code list, and the instruction pointer live in *locals*
        (threaded-code style — see the ``Step`` protocol in
        :mod:`repro.vm.compile`): ``None`` advances the local ip, a
        returned :class:`Frame` is a control transfer the driver reloads
        from, and any other truthy value ends the quantum (thread
        blocked or finished — ``frame.ip`` was already synchronized by
        the closure, so no write-back, which would clobber the rewound
        ip of a join/lock retry).  The per-step ``instructions``/
        ``base_cycles`` increments are batched into one add per quantum;
        the try/finally keeps the totals exact even when a step raises
        (the reference counts the raising instruction too, and the for
        loop has already assigned ``n`` when the body runs).
        """
        profile = self.profile
        frame = thread.frames[-1]
        code = frame.code
        ip = frame.ip
        n = 0
        self._current_thread = thread
        try:
            for n in range(1, self.quantum + 1):
                r = code[ip](thread, frame)
                if r is None:
                    ip += 1
                elif r.__class__ is Frame:
                    frame = r
                    code = frame.code
                    ip = frame.ip
                else:
                    return n
            frame.ip = ip
        finally:
            profile.instructions += n
            profile.base_cycles += n
        return n

    def _run_quantum(self, thread: ThreadState) -> int:
        profile = self.profile
        cache_access = self.cache.access
        memory = self.memory
        track_shadow = self.track_shadow
        tracer = self._tracer
        hb = self._hb
        ha = self._ha
        elide_before = self._elide_before
        elide_after = self._elide_after
        executed = 0

        self._current_thread = thread
        while executed < self.quantum and thread.status == _RUNNABLE:
            frame = thread.frames[-1]
            instr = frame.code[frame.ip]
            frame.ip += 1
            executed += 1
            profile.instructions += 1
            profile.base_cycles += 1
            regs = frame.regs
            cls = instr.__class__

            if cls is Const:
                regs[instr.result] = instr.value
                if track_shadow:
                    frame.shadow[instr.result] = 0
                    if tracer is not None:
                        tracer.shadow_set0(frame.shadow, instr.result)
                if "ConstInst" in ha:
                    self._fire(
                        ha["ConstInst"], "ConstInst", thread, frame, instr,
                        (instr.value,), instr.value, _EIGHT, 8,
                    )

            elif cls is BinOp:
                lhs = instr.lhs
                rhs = instr.rhs
                a = regs[lhs] if type(lhs) is str else lhs
                b = regs[rhs] if type(rhs) is str else rhs
                op = instr.op
                if op == "add":
                    value = a + b
                elif op == "sub":
                    value = a - b
                elif op == "mul":
                    value = a * b
                elif op == "div":
                    if b == 0:
                        raise VMError(f"division by zero at {self._loc(frame, instr)}")
                    value = abs(a) // abs(b) * (1 if (a >= 0) == (b >= 0) else -1)
                elif op == "rem":
                    if b == 0:
                        raise VMError(f"remainder by zero at {self._loc(frame, instr)}")
                    value = abs(a) % abs(b) * (1 if a >= 0 else -1)
                elif op == "and":
                    value = (a & b) & _MASK64
                elif op == "or":
                    value = (a | b) & _MASK64
                elif op == "xor":
                    value = (a ^ b) & _MASK64
                elif op == "shl":
                    value = (a << (b & 63)) & _MASK64
                elif op == "shr":
                    value = (a & _MASK64) >> (b & 63)
                else:
                    raise VMError(f"unknown binop {op!r}")
                if "BinaryOperator" in hb:
                    self._fire(
                        hb["BinaryOperator"], "BinaryOperator", thread, frame, instr,
                        (a, b), None, _EIGHT_EIGHT, 8,
                    )
                regs[instr.result] = value
                if track_shadow:
                    shadow = frame.shadow
                    meta = (shadow.get(lhs, 0) if type(lhs) is str else 0) | (
                        shadow.get(rhs, 0) if type(rhs) is str else 0
                    )
                    shadow[instr.result] = meta
                    profile.instr_cycles += _SHADOW_PROP_CYCLES
                    if tracer is not None:
                        tracer.shadow_or2(
                            shadow, instr.result,
                            lhs if type(lhs) is str else None,
                            rhs if type(rhs) is str else None,
                        )
                if "BinaryOperator" in ha:
                    self._fire(
                        ha["BinaryOperator"], "BinaryOperator", thread, frame, instr,
                        (a, b), value, _EIGHT_EIGHT, 8,
                    )

            elif cls is Cmp:
                lhs = instr.lhs
                rhs = instr.rhs
                a = regs[lhs] if type(lhs) is str else lhs
                b = regs[rhs] if type(rhs) is str else rhs
                op = instr.op
                if op == "eq":
                    value = 1 if a == b else 0
                elif op == "ne":
                    value = 1 if a != b else 0
                elif op == "lt":
                    value = 1 if a < b else 0
                elif op == "le":
                    value = 1 if a <= b else 0
                elif op == "gt":
                    value = 1 if a > b else 0
                else:
                    value = 1 if a >= b else 0
                regs[instr.result] = value
                if track_shadow:
                    shadow = frame.shadow
                    meta = (shadow.get(lhs, 0) if type(lhs) is str else 0) | (
                        shadow.get(rhs, 0) if type(rhs) is str else 0
                    )
                    shadow[instr.result] = meta
                    profile.instr_cycles += _SHADOW_PROP_CYCLES
                    if tracer is not None:
                        tracer.shadow_or2(
                            shadow, instr.result,
                            lhs if type(lhs) is str else None,
                            rhs if type(rhs) is str else None,
                        )
                if "CmpInst" in ha:
                    self._fire(
                        ha["CmpInst"], "CmpInst", thread, frame, instr,
                        (a, b), value, _EIGHT_EIGHT, 8,
                    )

            elif cls is Load:
                address_op = instr.address
                address = regs[address_op] if type(address_op) is str else address_op
                size = instr.size
                if "LoadInst" in hb and id(instr) not in elide_before:
                    self._fire(
                        hb["LoadInst"], "LoadInst", thread, frame, instr,
                        (address,), None, _EIGHT, size,
                    )
                profile.mem_cycles += cache_access(address, size)
                value = memory.read(address, size)
                regs[instr.result] = value
                if track_shadow:
                    frame.shadow[instr.result] = 0
                    if tracer is not None:
                        tracer.shadow_set0(frame.shadow, instr.result)
                if "LoadInst" in ha and id(instr) not in elide_after:
                    self._fire(
                        ha["LoadInst"], "LoadInst", thread, frame, instr,
                        (address,), value, _EIGHT, size,
                    )

            elif cls is Store:
                value_op = instr.value
                address_op = instr.address
                value = regs[value_op] if type(value_op) is str else value_op
                address = regs[address_op] if type(address_op) is str else address_op
                size = instr.size
                if "StoreInst" in hb and id(instr) not in elide_before:
                    self._fire(
                        hb["StoreInst"], "StoreInst", thread, frame, instr,
                        (value, address), None, (size, 8), 0,
                    )
                profile.mem_cycles += cache_access(address, size)
                memory.write(address, value, size)
                if "StoreInst" in ha and id(instr) not in elide_after:
                    self._fire(
                        ha["StoreInst"], "StoreInst", thread, frame, instr,
                        (value, address), None, (size, 8), 0,
                    )

            elif cls is Br:
                cond_op = instr.cond
                cond = regs[cond_op] if type(cond_op) is str else cond_op
                if "BranchInst" in hb:
                    self._fire(
                        hb["BranchInst"], "BranchInst", thread, frame, instr,
                        (cond,), None, _EIGHT, 0,
                    )
                label = instr.then_label if cond else instr.else_label
                frame.code = frame.blocks[label].instructions
                frame.ip = 0
                if "BranchInst" in ha:
                    self._fire(
                        ha["BranchInst"], "BranchInst", thread, frame, instr,
                        (cond,), None, _EIGHT, 0,
                    )

            elif cls is Jmp:
                frame.code = frame.blocks[instr.label].instructions
                frame.ip = 0

            elif cls is Alloca:
                size_op = instr.size
                size = regs[size_op] if type(size_op) is str else size_op
                thread.stack_top -= (size + 15) & ~15
                if thread.stack_top <= thread.stack_base:
                    raise VMError(f"stack overflow in thread {thread.tid}")
                address = thread.stack_top
                regs[instr.result] = address
                if track_shadow:
                    frame.shadow[instr.result] = 0
                    if tracer is not None:
                        tracer.shadow_set0(frame.shadow, instr.result)
                if "AllocaInst" in ha:
                    self._fire(
                        ha["AllocaInst"], "AllocaInst", thread, frame, instr,
                        (size,), address, _EIGHT, size,
                    )

            elif cls is Call:
                self._do_call(thread, frame, instr)

            elif cls is Ret:
                if "ReturnInst" in hb:
                    value_op = instr.value
                    value = (
                        regs[value_op] if type(value_op) is str
                        else (0 if value_op is None else value_op)
                    )
                    self._fire(
                        hb["ReturnInst"], "ReturnInst", thread, frame, instr,
                        (value,), None, _EIGHT, 0,
                    )
                self._do_ret(thread, frame, instr)

            else:  # pragma: no cover - defensive
                raise VMError(f"unknown instruction {instr!r}")

        return executed

    # ------------------------------------------------------------------
    # calls and returns
    # ------------------------------------------------------------------
    def _do_call(self, thread: ThreadState, frame: Frame, instr: Call) -> None:
        profile = self.profile
        profile.base_cycles += _CALL_CYCLES
        regs = frame.regs
        args = tuple(regs[a] if type(a) is str else a for a in instr.args)
        callee = instr.callee
        hb = self._hb
        ha = self._ha

        if "CallInst" in hb:
            self._fire(hb["CallInst"], "CallInst", thread, frame, instr, args, None,
                       (8,) * len(args), 8)

        # Module-defined function: push a frame; after-hooks fire at Ret.
        target = self.module.functions.get(callee)
        if target is not None:
            if len(args) != len(target.params):
                raise VMError(
                    f"{callee} expects {len(target.params)} args, got {len(args)}"
                )
            key = "func:" + callee
            if key in hb:
                self._fire(hb[key], key, thread, frame, instr, args, None,
                           (8,) * len(args), 8)
            new_frame = Frame(target, dict(zip(target.params, args)))
            new_frame.stack_mark = thread.stack_top
            new_frame.call_instr = instr
            new_frame.call_ops = args
            new_frame.caller_shadow = frame.shadow
            tracer = self._tracer
            if tracer is not None:
                tracer.frame_push(
                    new_frame.shadow, thread.tid, frame.shadow,
                    self._bt_entry(frame),
                )
            if self.track_shadow:
                caller_shadow = frame.shadow
                for param, arg in zip(target.params, instr.args):
                    new_frame.shadow[param] = (
                        caller_shadow.get(arg, 0) if type(arg) is str else 0
                    )
                    if tracer is not None:
                        tracer.shadow_mov(
                            new_frame.shadow, param, caller_shadow,
                            arg if type(arg) is str else None,
                        )
            thread.frames.append(new_frame)
            return

        # Interpreter-level pseudo-calls.
        base, _, suffix = callee.partition("$")
        if base == "global_addr":
            value = self.global_address(suffix)
        elif base == "spawn":
            value = self._do_spawn(thread, frame, instr, suffix, args)
        elif base == "join":
            if self._do_join(thread, args):
                return  # blocked: retry this instruction when woken
            value = self.threads[args[0]].result
        elif base == "mutex_lock":
            key = "func:mutex_lock"
            if key in hb:
                self._fire(hb[key], key, thread, frame, instr, args, None, _EIGHT, 8)
            if self._do_lock(thread, args[0]):
                return  # blocked; before-hook refires on retry, matching spin acquisition
            profile.base_cycles += 4  # atomic RMW cost
            if key in ha:
                self._fire(ha[key], key, thread, frame, instr, args, 0, _EIGHT, 8)
            self._finish_call(thread, frame, instr, 0)
            return
        elif base == "mutex_unlock":
            key = "func:mutex_unlock"
            if key in hb:
                self._fire(hb[key], key, thread, frame, instr, args, None, _EIGHT, 8)
            self._do_unlock(thread, args[0])
            profile.base_cycles += 4
            if key in ha:
                self._fire(ha[key], key, thread, frame, instr, args, 0, _EIGHT, 8)
            self._finish_call(thread, frame, instr, 0)
            return
        else:
            builtin = self._builtins.get(callee)
            if builtin is None:
                raise VMError(f"call to unknown function {callee!r}")
            key = "func:" + callee
            if key in hb:
                self._fire(hb[key], key, thread, frame, instr, args, None,
                           (8,) * len(args), 8)
            value = builtin(self, thread, args)
            if value is None:
                value = 0
            if key in ha:
                self._fire(ha[key], key, thread, frame, instr, args, value,
                           (8,) * len(args), 8)
            self._finish_call(thread, frame, instr, value)
            return

        key = "func:" + base
        if key in ha:
            self._fire(ha[key], key, thread, frame, instr, args, value,
                       (8,) * len(args), 8)
        self._finish_call(thread, frame, instr, value)

    def _finish_call(self, thread: ThreadState, frame: Frame, instr: Call, value: int) -> None:
        if instr.result is not None:
            frame.regs[instr.result] = value
            if self.track_shadow:
                frame.shadow.setdefault(instr.result, 0)
                if self._tracer is not None:
                    self._tracer.shadow_default(frame.shadow, instr.result)

    def _do_ret(self, thread: ThreadState, frame: Frame, instr: Ret) -> None:
        value_op = instr.value
        value = 0
        if value_op is not None:
            value = frame.regs[value_op] if type(value_op) is str else value_op
        thread.stack_top = frame.stack_mark
        thread.frames.pop()
        tracer = self._tracer

        if not thread.frames:
            thread.status = _DONE
            thread.result = value
            for waiter in self._joiners.pop(thread.tid, []):
                waiter.status = _RUNNABLE
            if tracer is not None:
                tracer.frame_pop(frame.shadow, thread.tid)
            return

        caller = thread.frames[-1]
        call_instr = frame.call_instr
        if call_instr is not None and call_instr.result is not None:
            caller.regs[call_instr.result] = value
            if self.track_shadow:
                returned_shadow = (
                    frame.shadow.get(value_op, 0) if type(value_op) is str else 0
                )
                caller.shadow[call_instr.result] = returned_shadow
                if tracer is not None:
                    tracer.shadow_mov(
                        caller.shadow, call_instr.result, frame.shadow,
                        value_op if type(value_op) is str else None,
                    )
        if tracer is not None:
            tracer.frame_pop(frame.shadow, thread.tid)
        key = "func:" + frame.function.name
        if call_instr is not None and key in self._ha:
            self._fire(
                self._ha[key], key, thread, caller, call_instr,
                frame.call_ops, value, (8,) * len(frame.call_ops), 8,
            )

    # ------------------------------------------------------------------
    # threading primitives
    # ------------------------------------------------------------------
    def _do_spawn(self, thread: ThreadState, frame: Frame, instr: Call,
                  func_name: str, args: Tuple[int, ...]) -> int:
        target = self.module.functions.get(func_name)
        if target is None:
            raise VMError(f"spawn of unknown function {func_name!r}")
        child = self._new_thread(target, list(args))
        self.profile.base_cycles += 200  # thread creation cost
        return child.tid  # after-hooks fire in _do_call's tail ($r = child tid)

    def _do_join(self, thread: ThreadState, args: Tuple[int, ...]) -> bool:
        """Returns True if the thread blocked (instruction must be retried)."""
        target_tid = args[0]
        if target_tid < 0 or target_tid >= len(self.threads):
            raise VMError(f"join of unknown thread {target_tid}")
        target = self.threads[target_tid]
        if target.status == _DONE:
            self.profile.base_cycles += 100
            return False
        thread.status = _BLOCKED_JOIN
        thread.wait_tid = target_tid
        thread.frames[-1].ip -= 1  # re-execute the join when woken
        self._joiners.setdefault(target_tid, []).append(thread)
        return True

    def _do_lock(self, thread: ThreadState, mutex: int) -> bool:
        """Returns True if the thread blocked."""
        state = self._mutexes.get(mutex)
        if state is None or state[0] == -1:
            self._mutexes[mutex] = (thread.tid, state[1] if state else deque())
            return False
        owner, waiters = state
        if owner == thread.tid:
            raise VMError(f"thread {thread.tid} re-locking mutex {mutex:#x}")
        thread.status = _BLOCKED_MUTEX
        thread.wait_mutex = mutex
        thread.frames[-1].ip -= 1
        waiters.append(thread)
        return True

    def _do_unlock(self, thread: ThreadState, mutex: int) -> None:
        state = self._mutexes.get(mutex)
        if state is None or state[0] != thread.tid:
            raise VMError(
                f"thread {thread.tid} unlocking mutex {mutex:#x} it does not hold"
            )
        waiters = state[1]
        self._mutexes[mutex] = (-1, waiters)
        if waiters:
            waiter = waiters.popleft()
            waiter.status = _RUNNABLE

    # ------------------------------------------------------------------
    # event dispatch
    # ------------------------------------------------------------------
    def _fire(
        self,
        callbacks,
        kind: str,
        thread: ThreadState,
        frame: Frame,
        instr,
        ops: Tuple[int, ...],
        result: Optional[int],
        sizes: Tuple[int, ...],
        result_size: int,
    ) -> None:
        profile = self.profile
        if isinstance(instr, Call):
            operand_regs = tuple(a if type(a) is str else None for a in instr.args)
            result_reg = instr.result
        else:
            operand_regs = tuple(
                op if type(op) is str else None for op in instr.operands()
            )
            result_reg = instr.dst
        self._fire_seq += 1
        context = EventContext(
            self, kind, thread.tid, ops, result, frame.shadow,
            operand_regs, result_reg, sizes, result_size,
            self._loc(frame, instr),
            self._fire_seq,
        )
        for callback in callbacks:
            profile.handler_calls += 1
            # Inlined handlers (ALDAcc section 5.5) bill less dispatch
            # than out-of-line hook functions.
            profile.instr_cycles += getattr(
                callback, "dispatch_cycles", _HANDLER_DISPATCH_CYCLES
            )
            profile.count_event(kind)
            callback(context)

    def backtrace(self, limit: int = 16) -> Tuple[str, ...]:
        """Call stack of the currently executing thread, innermost first.

        Frames render as ``function+ip`` (or the instruction's source
        location when tagged) — the "analysis backtrace" ALDA's
        alda_assert attaches to reports (paper section 3.1.1).
        """
        thread = self._current_thread
        if thread is None or not thread.frames:
            return ()
        return tuple(
            self._bt_entry(frame) for frame in reversed(thread.frames[-limit:])
        )

    @staticmethod
    def _bt_entry(frame: Frame) -> str:
        """One frame's backtrace entry, exactly as :meth:`backtrace` renders it."""
        code = frame.code
        index = max(0, frame.ip - 1)
        instr = code[index] if index < len(code) else None
        loc = getattr(instr, "loc", "") if instr is not None else ""
        return loc if loc else f"{frame.function.name}+{frame.ip}"

    @staticmethod
    def _loc(frame: Frame, instr) -> str:
        if instr.loc:
            return instr.loc
        return f"{frame.function.name}+{frame.ip}"

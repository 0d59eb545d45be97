"""Instrumentation join points.

The VM fires an event at every instrumentable instruction and at every
call boundary, before and/or after, exactly mirroring ALDA's
``insert (before|after) <insert-point>`` declarations.  Hook keys are:

* an instruction-kind name: ``"LoadInst"``, ``"StoreInst"``, ``"AllocaInst"``,
  ``"BranchInst"``, ``"BinaryOperator"``, ``"CmpInst"``, ``"CallInst"``,
  ``"ReturnInst"``;
* a function boundary: ``"func:<name>"`` (e.g. ``"func:malloc"``), which
  fires for calls to module functions, libc builtins, and simulated library
  functions alike.

Each instrumented site binds its subscribers once (:func:`bind_site`),
knowing its static fields: kind, operand/result registers, sizes and
location.  A subscriber with a ``bind_site`` factory (generated ALDAcc
adapters, the trace recorder) returns a callable specialized to those
fields, ``deliver(tid, shadow, ops, result, seq)``.  Any other subscriber
takes an :class:`EventContext`, built per event by one shim.  An
:class:`EventContext` carries everything ALDA's call-arg syntax can ask
for: operand values (``$1..$n``), the result (``$r``), the thread id
(``$t``), operand sizes (``sizeof($X)``), and local (register) metadata
(``$X.m``), with the ability for a handler's return value to become the
result register's metadata.  The reference interpreter builds its own
contexts: it is the oracle the direct path is tested against.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import VMError

Callback = Callable[["EventContext"], None]

#: Dispatch cycles billed per handler call unless the subscriber sets
#: ``dispatch_cycles`` (inlined ALDAcc handlers bill less, section 5.5).
HANDLER_DISPATCH_CYCLES = 2


class Hooks:
    """Registry of instrumentation callbacks."""

    def __init__(self) -> None:
        self.before: Dict[str, List[Callback]] = {}
        self.after: Dict[str, List[Callback]] = {}
        #: set once a VM has bound its sites; a later add would be missed
        self.bound = False

    def add(self, position: str, key: str, callback: Callback) -> None:
        if position not in ("before", "after"):
            raise ValueError(f"position must be 'before' or 'after', not {position!r}")
        if self.bound:
            raise VMError(
                f"cannot add a {position!r} hook for {key!r}: the VM has "
                "already bound its instrumented sites (attach before run)"
            )
        table = self.before if position == "before" else self.after
        table.setdefault(key, []).append(callback)

    def add_instruction(self, position: str, kind: str, callback: Callback) -> None:
        self.add(position, kind, callback)

    def add_function(self, position: str, name: str, callback: Callback) -> None:
        self.add(position, "func:" + name, callback)

    def release(self) -> None:
        """Drop every subscriber once the run it served has ended;
        ``bound`` stays set, so a late :meth:`add` still raises."""
        self.before.clear()
        self.after.clear()

    @property
    def empty(self) -> bool:
        return not self.before and not self.after

    def keys(self) -> Tuple[str, ...]:
        return tuple(set(self.before) | set(self.after))


class EventContext:
    """A single fired event, as seen by a handler.

    Operand numbering follows LLVM conventions (see
    :mod:`repro.ir.instructions`): for ``StoreInst`` ``$1`` is the stored
    value and ``$2`` the address; for ``LoadInst`` ``$1`` is the address and
    ``$r`` the loaded value; for ``func:<name>`` events ``$1..$n`` are call
    arguments and ``$r`` the return value.
    """

    __slots__ = (
        "vm",
        "kind",
        "tid",
        "ops",
        "result",
        "_shadow_regs",
        "_operand_regs",
        "_result_reg",
        "_sizes",
        "_result_size",
        "loc",
        "seq",
    )

    def __init__(
        self,
        vm,
        kind: str,
        tid: int,
        ops: Tuple[int, ...],
        result: Optional[int],
        shadow_regs: Dict[str, int],
        operand_regs: Tuple[Optional[str], ...],
        result_reg: Optional[str],
        sizes: Tuple[int, ...],
        result_size: int,
        loc: str,
        seq: int = 0,
    ) -> None:
        self.vm = vm
        self.kind = kind
        self.tid = tid
        self.ops = ops
        self.result = result
        self._shadow_regs = shadow_regs
        self._operand_regs = operand_regs
        self._result_reg = result_reg
        self._sizes = sizes
        self._result_size = result_size
        self.loc = loc
        #: monotonically increasing event id — all handlers fired at one
        #: instrumentation event observe the same value
        self.seq = seq

    # -- capture accessors (used by repro.trace.recorder) ---------------
    @property
    def operand_regs(self) -> Tuple[Optional[str], ...]:
        """Register name (or None for constants) behind each operand."""
        return self._operand_regs

    @property
    def result_reg(self) -> Optional[str]:
        """Register name of the result, when the event has one."""
        return self._result_reg

    @property
    def sizes(self) -> Tuple[int, ...]:
        """Byte sizes of all operands (``sizeof($1..$n)``)."""
        return self._sizes

    @property
    def result_size(self) -> int:
        """Byte size of the result (``sizeof($r)``)."""
        return self._result_size

    @property
    def shadow_regs(self) -> Dict[str, int]:
        """The live local-metadata plane this event reads and writes."""
        return self._shadow_regs

    # -- ALDA call-arg accessors ---------------------------------------
    def operand(self, index: int) -> int:
        """``$index`` (1-based)."""
        return self.ops[index - 1]

    def sizeof(self, index_or_r) -> int:
        """``sizeof($X)`` — byte size of operand ``$X`` or of ``$r``."""
        if index_or_r == "r":
            return self._result_size
        return self._sizes[index_or_r - 1]

    def operand_shadow(self, index: int) -> int:
        """``$X.m`` — local metadata of the register behind operand ``$X``."""
        if index > len(self._operand_regs):
            return 0  # synthesized operand (e.g. a void return's 0)
        register = self._operand_regs[index - 1]
        if register is None:
            return 0
        return self._shadow_regs.get(register, 0)

    @property
    def result_shadow(self) -> int:
        """``$r.m`` — local metadata of the result register."""
        if self._result_reg is None:
            return 0
        return self._shadow_regs.get(self._result_reg, 0)

    def set_result_shadow(self, value: int) -> None:
        """Attach a handler's return value as ``$r``'s local metadata."""
        if self._result_reg is not None:
            self._shadow_regs[self._result_reg] = value


def materialize(source):
    """The attachable behind an analysis source (an attachable, its
    class or a factory); shared by inline runs and trace replay."""
    if isinstance(source, type):
        return source()  # a class: instantiate fresh per run
    if hasattr(source, "attach"):
        return source
    return source()  # a factory callable


def bind_site(vm, callbacks, kind: str, operand_regs: Tuple[Optional[str], ...],
              result_reg: Optional[str], sizes: Tuple[int, ...],
              result_size: int, loc: str):
    """Bind one instrumented site's subscribers; ``None`` when it has none.

    Returns ``fire(tid, shadow, ops, result)``: it numbers the event,
    adds the site's billing once (handler calls, the sum of the
    subscribers' dispatch cycles, the per-kind count) and calls each
    subscriber's specialized callable.
    """
    if not callbacks:
        return None
    site = (kind, operand_regs, result_reg, sizes, result_size, loc)
    subscribers = [callback.bind_site(*site) if hasattr(callback, "bind_site")
                   else _context_shim(vm, callback, *site) for callback in callbacks]
    n = len(subscribers)
    cycles = sum(getattr(callback, "dispatch_cycles", HANDLER_DISPATCH_CYCLES)
                 for callback in callbacks)
    profile = vm.profile
    if n == 1:
        (deliver,) = subscribers

        def fire(tid, shadow, ops, result):
            seq = vm._fire_seq + 1
            vm._fire_seq = seq
            profile.handler_calls += 1
            profile.instr_cycles += cycles
            events = profile.events
            events[kind] = events.get(kind, 0) + 1
            deliver(tid, shadow, ops, result, seq)
    else:
        def fire(tid, shadow, ops, result):
            seq = vm._fire_seq + 1
            vm._fire_seq = seq
            profile.handler_calls += n
            profile.instr_cycles += cycles
            events = profile.events
            events[kind] = events.get(kind, 0) + n
            for deliver in subscribers:
                deliver(tid, shadow, ops, result, seq)
    return fire


def _context_shim(vm, callback: Callback, kind, operand_regs, result_reg, sizes,
                  result_size, loc):
    """A site's ``deliver`` for a subscriber that takes an :class:`EventContext`."""

    def deliver(tid, shadow, ops, result, seq):
        callback(EventContext(vm, kind, tid, ops, result, shadow, operand_regs,
                              result_reg, sizes, result_size, loc, seq))
    return deliver


class ExecutionTracer:
    """Capture hook for full-execution tracing (see :mod:`repro.trace`).

    An interpreter with a tracer installed (``Interpreter.set_tracer``)
    reports every frame push/pop and every local-metadata (shadow
    register) dataflow operation as it executes.  Together with the
    instrumentation event stream (captured via ordinary :class:`Hooks`
    on every join point) and the cache-access stream, this is exactly
    the information a record/replay system needs to re-fire events
    through an analysis later *without* re-interpreting the IR, while
    keeping the cost model bit-identical.

    The default implementation ignores everything, so subclasses only
    override what they consume.  Shadow dicts are identified by object
    identity between ``frame_push`` and ``frame_pop``.
    """

    def frame_push(self, shadow: Dict[str, int], tid: int, caller_shadow=None,
                   caller_entry: str = "") -> None:
        """A frame was pushed; ``caller_entry`` is its caller's backtrace entry."""

    def frame_pop(self, shadow: Dict[str, int], tid: int) -> None:
        """A frame was popped (its shadow dict will not be referenced again)."""

    def shadow_set0(self, shadow: Dict[str, int], reg: str) -> None:
        """``reg.m := 0`` (Const/Load/Alloca destinations)."""

    def shadow_or2(self, shadow: Dict[str, int], dst: str,
                   lhs: Optional[str], rhs: Optional[str]) -> None:
        """``dst.m := lhs.m | rhs.m`` (BinOp/Cmp; None operands read 0)."""

    def shadow_mov(self, dst_shadow: Dict[str, int], dst: str,
                   src_shadow: Dict[str, int], src: Optional[str]) -> None:
        """``dst.m := src.m`` across frames (call args, return values)."""

    def shadow_default(self, shadow: Dict[str, int], reg: str) -> None:
        """``reg.m := 0`` unless already set (builtin-call results)."""

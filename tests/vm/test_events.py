"""Unit tests for instrumentation events and EventContext semantics."""

import pytest

from repro.ir import IRBuilder
from repro.vm import Hooks, Interpreter


def collect(module, position, key, extract, **vm_kwargs):
    seen = []
    hooks = Hooks()
    hooks.add(position, key, lambda ctx: seen.append(extract(ctx)))
    Interpreter(module, hooks=hooks, **vm_kwargs).run()
    return seen


def simple_module():
    b = IRBuilder()
    b.function("main")
    block = b.call("malloc", [16])
    b.store(99, block)
    value = b.load(block)
    b.call("free", [block], void=True)
    b.ret(value)
    return b.module


class TestHookRegistry:
    def test_empty(self):
        assert Hooks().empty

    def test_add_function_prefixes(self):
        hooks = Hooks()
        hooks.add_function("before", "malloc", lambda ctx: None)
        assert "func:malloc" in hooks.before

    def test_bad_position_rejected(self):
        with pytest.raises(ValueError, match="before.*after"):
            Hooks().add("during", "LoadInst", lambda ctx: None)

    def test_keys_union(self):
        hooks = Hooks()
        hooks.add("before", "LoadInst", lambda ctx: None)
        hooks.add("after", "StoreInst", lambda ctx: None)
        assert set(hooks.keys()) == {"LoadInst", "StoreInst"}


class TestInstructionEvents:
    def test_load_after_sees_address_and_result(self):
        seen = collect(simple_module(), "after", "LoadInst",
                       lambda ctx: (ctx.operand(1), ctx.result))
        assert seen == [(seen[0][0], 99)]

    def test_load_before_has_no_result(self):
        seen = collect(simple_module(), "before", "LoadInst",
                       lambda ctx: ctx.result)
        assert seen == [None]

    def test_store_operand_order(self):
        seen = collect(simple_module(), "after", "StoreInst",
                       lambda ctx: ctx.ops)
        value, address = seen[0]
        assert value == 99 and address >= 0x1000_0000

    def test_sizeof_result_for_load(self):
        b = IRBuilder()
        b.function("main")
        block = b.call("malloc", [16])
        b.store(5, block, size=4)
        b.load(block, size=4)
        b.ret(0)
        seen = collect(b.module, "after", "LoadInst", lambda ctx: ctx.sizeof("r"))
        assert seen == [4]

    def test_sizeof_store_value(self):
        b = IRBuilder()
        b.function("main")
        block = b.call("malloc", [16])
        b.store(5, block, size=2)
        b.ret(0)
        seen = collect(b.module, "after", "StoreInst", lambda ctx: ctx.sizeof(1))
        assert seen == [2]

    def test_alloca_sizeof_result_is_allocation_size(self):
        b = IRBuilder()
        b.function("main")
        b.alloca(24)
        b.ret(0)
        seen = collect(b.module, "after", "AllocaInst",
                       lambda ctx: (ctx.sizeof("r"), ctx.result))
        size, address = seen[0]
        assert size == 24
        assert address > 0

    def test_branch_before_sees_condition(self):
        b = IRBuilder()
        b.function("main")
        cond = b.const(1)
        with b.if_then(cond):
            pass
        b.ret(0)
        seen = collect(b.module, "before", "BranchInst", lambda ctx: ctx.operand(1))
        assert seen == [1]

    def test_binop_event(self):
        b = IRBuilder()
        b.function("main")
        b.add(b.const(2), b.const(3))
        b.ret(0)
        seen = collect(b.module, "after", "BinaryOperator",
                       lambda ctx: (ctx.ops, ctx.result))
        assert ((2, 3), 5) in seen

    def test_tid_in_context(self):
        seen = collect(simple_module(), "after", "LoadInst", lambda ctx: ctx.tid)
        assert seen == [0]

    def test_seq_shared_across_callbacks_of_one_event(self):
        seqs = []
        hooks = Hooks()
        hooks.add("after", "LoadInst", lambda ctx: seqs.append(("a", ctx.seq)))
        hooks.add("after", "LoadInst", lambda ctx: seqs.append(("b", ctx.seq)))
        Interpreter(simple_module(), hooks=hooks).run()
        assert len(seqs) == 2
        assert seqs[0][1] == seqs[1][1]


class TestFunctionEvents:
    def test_malloc_after_sees_args_and_result(self):
        seen = collect(simple_module(), "after", "func:malloc",
                       lambda ctx: (ctx.ops, ctx.result))
        args, pointer = seen[0]
        assert args == (16,)
        assert pointer >= 0x1000_0000

    def test_free_before(self):
        seen = collect(simple_module(), "before", "func:free",
                       lambda ctx: ctx.operand(1))
        assert len(seen) == 1

    def test_internal_function_after_event(self):
        b = IRBuilder()
        b.function("helper", ["x"])
        b.ret(b.add("x", 1))
        b.function("main")
        b.ret(b.call("helper", [5]))
        seen = collect(b.module, "after", "func:helper",
                       lambda ctx: (ctx.ops, ctx.result))
        assert seen == [((5,), 6)]

    def test_internal_function_before_event(self):
        b = IRBuilder()
        b.function("helper", ["x"])
        b.ret(0)
        b.function("main")
        b.call("helper", [7], void=True)
        b.ret(0)
        seen = collect(b.module, "before", "func:helper", lambda ctx: ctx.ops)
        assert seen == [(7,)]

    def test_mutex_events_fire(self):
        b = IRBuilder()
        b.module.add_global("lock", 64)
        b.function("main")
        lock = b.global_addr("lock")
        b.call("mutex_lock", [lock], void=True)
        b.call("mutex_unlock", [lock], void=True)
        b.ret(0)
        locks = collect(b.module, "after", "func:mutex_lock", lambda ctx: ctx.operand(1))
        assert len(locks) == 1

    def test_spawn_after_result_is_child_tid(self):
        b = IRBuilder()
        b.function("child")
        b.ret(0)
        b.function("main")
        t = b.call("spawn$child", [])
        b.call("join", [t], void=True)
        b.ret(0)
        seen = collect(b.module, "after", "func:spawn", lambda ctx: ctx.result)
        assert seen == [1]

    def test_join_after_fires(self):
        b = IRBuilder()
        b.function("child")
        b.ret(11)
        b.function("main")
        t = b.call("spawn$child", [])
        b.call("join", [t], void=True)
        b.ret(0)
        seen = collect(b.module, "after", "func:join",
                       lambda ctx: (ctx.operand(1), ctx.result))
        assert seen == [(1, 11)]


class TestDispatchCost:
    def test_handler_dispatch_billed(self):
        base = Interpreter(simple_module()).run()
        hooks = Hooks()
        hooks.add("after", "LoadInst", lambda ctx: None)
        instrumented = Interpreter(simple_module(), hooks=hooks).run()
        assert instrumented.handler_calls == 1
        assert instrumented.instr_cycles > 0
        assert base.instr_cycles == 0

    def test_custom_dispatch_cycles_attribute(self):
        def cheap(ctx):
            pass
        cheap.dispatch_cycles = 0
        hooks = Hooks()
        hooks.add("after", "LoadInst", cheap)
        profile = Interpreter(simple_module(), hooks=hooks).run()
        assert profile.instr_cycles == 0


class TestReturnAndConstEvents:
    def test_return_before_sees_value(self):
        b = IRBuilder()
        b.function("helper")
        b.ret(b.const(77))
        b.function("main")
        b.call("helper", [], void=True)
        b.ret(0)
        seen = collect(b.module, "before", "ReturnInst", lambda ctx: ctx.operand(1))
        assert 77 in seen

    def test_void_return_sees_zero(self):
        b = IRBuilder()
        b.function("main")
        b.ret()
        seen = collect(b.module, "before", "ReturnInst", lambda ctx: ctx.operand(1))
        assert seen == [0]

    def test_const_after_event(self):
        b = IRBuilder()
        b.function("main")
        b.const(42)
        b.ret(0)
        seen = collect(b.module, "after", "ConstInst", lambda ctx: ctx.result)
        assert 42 in seen


@pytest.mark.parametrize("backend", ["compiled", "reference"])
def test_hook_added_after_run_is_refused(backend):
    """Sites bind their subscribers when the VM runs; a later hook would
    be silently missed, so adding one raises."""
    from repro.errors import VMError

    hooks = Hooks()
    hooks.add("after", "LoadInst", lambda ctx: None)
    Interpreter(simple_module(), hooks=hooks, backend=backend).run()
    with pytest.raises(VMError, match="already bound"):
        hooks.add("after", "StoreInst", lambda ctx: None)


def test_hook_added_after_replay_binds_is_refused():
    import io

    from repro.errors import VMError
    from repro.trace import TraceReplayer, record_workload
    from repro.trace.replayer import ReplayState
    from repro.workloads import ALL

    buffer = io.BytesIO()
    record_workload(ALL["bzip2"], 1, buffer)
    state = ReplayState([])
    state.run(TraceReplayer(buffer.getvalue()).records)
    with pytest.raises(VMError, match="already bound"):
        state.vm.hooks.add("after", "LoadInst", lambda ctx: None)

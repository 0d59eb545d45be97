"""Unit + property tests for the interpreter's sequential semantics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import IRError, VMError
from repro.ir import IRBuilder
from repro.vm import Interpreter


def run_main(build):
    """Build main with the callback, run, return thread-0 result."""
    b = IRBuilder()
    b.function("main")
    build(b)
    vm = Interpreter(b.module)
    vm.run()
    return vm.threads[0].result


class TestArithmetic:
    @pytest.mark.parametrize("op,a,b,expected", [
        ("add", 3, 4, 7),
        ("sub", 10, 4, 6),
        ("sub", 4, 10, -6),
        ("mul", 6, 7, 42),
        ("div", 42, 5, 8),
        ("div", -42, 5, -8),   # C-style truncation toward zero
        ("rem", 42, 5, 2),
        ("rem", -42, 5, -2),   # sign follows dividend
        ("and", 0b1100, 0b1010, 0b1000),
        ("or", 0b1100, 0b1010, 0b1110),
        ("xor", 0b1100, 0b1010, 0b0110),
        ("shl", 1, 10, 1024),
        ("shr", 1024, 3, 128),
    ])
    def test_binop(self, op, a, b, expected):
        def build(builder):
            x = builder.const(a)
            y = builder.const(b)
            builder.ret(builder.binop(op, x, y))
        assert run_main(build) == expected

    def test_division_by_zero_raises(self):
        def build(builder):
            builder.ret(builder.div(builder.const(1), builder.const(0)))
        with pytest.raises(VMError, match="division by zero"):
            run_main(build)

    def test_remainder_by_zero_raises(self):
        def build(builder):
            builder.ret(builder.rem(builder.const(1), builder.const(0)))
        with pytest.raises(VMError, match="remainder by zero"):
            run_main(build)

    @pytest.mark.parametrize("op,a,b,expected", [
        ("eq", 3, 3, 1), ("eq", 3, 4, 0),
        ("ne", 3, 4, 1), ("ne", 4, 4, 0),
        ("lt", 3, 4, 1), ("lt", 4, 3, 0),
        ("le", 4, 4, 1), ("gt", 5, 4, 1), ("ge", 4, 5, 0),
    ])
    def test_cmp(self, op, a, b, expected):
        def build(builder):
            builder.ret(builder.cmp(op, builder.const(a), builder.const(b)))
        assert run_main(build) == expected

    def test_immediates_as_operands(self):
        def build(builder):
            builder.ret(builder.add(40, 2))
        assert run_main(build) == 42


@given(a=st.integers(-2**31, 2**31), b=st.integers(-2**31, 2**31))
@settings(max_examples=60)
def test_add_sub_match_python(a, b):
    def build_add(builder):
        builder.ret(builder.add(builder.const(a), builder.const(b)))
    def build_sub(builder):
        builder.ret(builder.sub(builder.const(a), builder.const(b)))
    assert run_main(build_add) == a + b
    assert run_main(build_sub) == a - b


class TestCalls:
    def test_internal_function_call(self):
        b = IRBuilder()
        b.function("double", ["x"])
        b.ret(b.add("x", "x"))
        b.function("main")
        b.ret(b.call("double", [21]))
        vm = Interpreter(b.module)
        vm.run()
        assert vm.threads[0].result == 42

    def test_nested_calls(self):
        b = IRBuilder()
        b.function("inc", ["x"])
        b.ret(b.add("x", 1))
        b.function("inc2", ["x"])
        b.ret(b.call("inc", [b.call("inc", ["x"])]))
        b.function("main")
        b.ret(b.call("inc2", [40]))
        vm = Interpreter(b.module)
        vm.run()
        assert vm.threads[0].result == 42

    def test_wrong_arity_raises(self):
        b = IRBuilder()
        b.function("f", ["x", "y"])
        b.ret(0)
        b.function("main")
        b.call("f", [1], void=True)
        b.ret(0)
        vm = Interpreter(b.module)
        with pytest.raises(VMError, match="expects 2 args"):
            vm.run()

    def test_unknown_callee_rejected_at_load(self):
        b = IRBuilder()
        b.function("main")
        b.call("no_such_fn", [], void=True)
        b.ret(0)
        with pytest.raises(IRError, match="unresolved call target"):
            Interpreter(b.module)

    def test_extern_functions_accepted(self):
        b = IRBuilder()
        b.function("main")
        b.ret(b.call("my_extern", [5]))
        vm = Interpreter(b.module, extern={"my_extern": lambda vm, t, a: a[0] * 3})
        vm.run()
        assert vm.threads[0].result == 15


class TestMemoryOps:
    def test_load_store_through_heap(self):
        def build(builder):
            block = builder.call("malloc", [16])
            builder.store(1234, block)
            builder.ret(builder.load(block))
        assert run_main(build) == 1234

    def test_alloca_gives_writable_stack(self):
        def build(builder):
            slot = builder.alloca(8)
            builder.store(55, slot)
            builder.ret(builder.load(slot))
        assert run_main(build) == 55

    def test_alloca_dynamic_size(self):
        def build(builder):
            size = builder.add(8, 8)
            slot = builder.alloca(size)
            builder.store(1, slot)
            builder.store(2, builder.add(slot, 8))
            builder.ret(builder.add(builder.load(slot), builder.load(builder.add(slot, 8))))
        assert run_main(build) == 3

    def test_stack_released_on_return(self):
        b = IRBuilder()
        b.function("leaf")
        b.alloca(1024)
        b.ret(0)
        b.function("main")
        with b.loop(600):  # would overflow a 1MB stack if not released
            b.call("leaf", [], void=True)
        b.ret(0)
        vm = Interpreter(b.module)
        vm.run()  # must not raise stack overflow

    def test_stack_overflow_detected(self):
        def build(builder):
            builder.alloca(2 * 1024 * 1024)  # bigger than the 1MB stack
            builder.ret(0)
        with pytest.raises(VMError, match="stack overflow"):
            run_main(build)

    def test_sub_word_store_sizes(self):
        def build(builder):
            slot = builder.alloca(8)
            builder.store(0xFFFF, slot, size=1)  # masked to one byte
            builder.ret(builder.load(slot, size=1))
        assert run_main(build) == 0xFF


class TestProfileAccounting:
    def test_instructions_counted(self, linear_module):
        profile = Interpreter(linear_module).run()
        assert profile.instructions > 0
        assert profile.base_cycles >= profile.instructions

    def test_memory_cycles_nonzero(self, linear_module):
        profile = Interpreter(linear_module).run()
        assert profile.mem_cycles > 0

    def test_no_instrumentation_cost_without_hooks(self, linear_module):
        profile = Interpreter(linear_module).run()
        assert profile.instr_cycles == 0
        assert profile.handler_calls == 0

    def test_determinism(self, linear_module):
        from tests.conftest import build_linear_program
        p1 = Interpreter(build_linear_program()).run()
        p2 = Interpreter(build_linear_program()).run()
        assert p1.cycles == p2.cycles
        assert p1.instructions == p2.instructions

    def test_max_steps_guard(self):
        b = IRBuilder()
        b.function("main")
        header = b.block("spin")
        b.jmp(header)
        b.position_at(header)
        b.jmp(header)  # infinite loop
        vm = Interpreter(b.module, max_steps=1000)
        with pytest.raises(VMError, match="max_steps"):
            vm.run()

    def test_heap_peak_recorded(self):
        def build(builder):
            builder.call("malloc", [1000], name="%p")
            builder.ret(0)
        b = IRBuilder()
        b.function("main")
        b.call("malloc", [1000])
        b.ret(0)
        vm = Interpreter(b.module)
        profile = vm.run()
        assert profile.heap_peak_bytes == 1000


@pytest.mark.parametrize("backend", ["compiled", "reference"])
def test_second_run_is_refused(backend):
    """A run releases its bound closures and hook table when it ends, so
    a second run on the same VM raises instead of adding to the profile."""
    from tests.conftest import build_linear_program

    vm = Interpreter(build_linear_program(), backend=backend)
    cycles = vm.run().cycles
    with pytest.raises(VMError, match="already run; build a new Interpreter"):
        vm.run()
    assert vm.profile.cycles == cycles

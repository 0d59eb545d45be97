"""Integration tests for the hand-tuned MSan and Eraser baselines."""

from repro.baselines import HandTunedEraser, HandTunedMSan
from repro.ir import IRBuilder
from repro.vm import Interpreter


def run_with(attachable, module, track_shadow=False):
    vm = Interpreter(module, track_shadow=track_shadow)
    attachable.attach(vm)
    profile = vm.run()
    return profile, vm.reporter


class TestHandTunedMSan:
    def test_uninitialized_branch_reported(self):
        b = IRBuilder()
        b.function("main")
        block = b.call("malloc", [16])
        value = b.load(block)
        with b.if_then(b.cmp("ne", value, 0), loc="bug:1"):
            pass
        b.ret(0)
        _, reporter = run_with(HandTunedMSan(), b.module, track_shadow=True)
        assert reporter.locations("msan-handtuned") == ["bug:1"]

    def test_initialized_clean(self):
        b = IRBuilder()
        b.function("main")
        block = b.call("malloc", [16])
        b.store(1, block)
        value = b.load(block)
        with b.if_then(b.cmp("ne", value, 0)):
            pass
        b.ret(0)
        _, reporter = run_with(HandTunedMSan(), b.module, track_shadow=True)
        assert len(reporter) == 0

    def test_gets_not_intercepted_false_positive(self):
        """The LLVM MSan interception gap (Table 3's fmm/barnes rows)."""
        b = IRBuilder()
        b.function("main")
        buf = b.call("malloc", [16])
        b.call("gets", [buf], void=True)
        value = b.load(buf, size=1)
        with b.if_then(b.cmp("ne", value, 0), loc="getparam.c:53"):
            pass
        b.ret(0)
        _, reporter = run_with(HandTunedMSan(), b.module, track_shadow=True)
        assert reporter.locations("msan-handtuned") == ["getparam.c:53"]

    def test_agrees_with_alda_msan_on_true_bug(self):
        from repro.analyses import msan
        from tests.conftest import run_analysis_on

        def module():
            b = IRBuilder()
            b.function("main")
            block = b.call("malloc", [16])
            stale = b.load(b.add(block, 8))
            with b.if_then(b.cmp("ne", stale, 0), loc="shared-bug:1"):
                pass
            b.ret(0)
            return b.module

        _, alda_rep, _ = run_analysis_on(msan.compile_(), module())
        _, hand_rep = run_with(HandTunedMSan(), module(), track_shadow=True)
        assert alda_rep.locations("msan") == ["shared-bug:1"]
        assert hand_rep.locations("msan-handtuned") == ["shared-bug:1"]

    def test_calloc_and_memset_interceptors(self):
        b = IRBuilder()
        b.function("main")
        a = b.call("calloc", [2, 8])
        c = b.call("malloc", [8])
        b.call("memset", [c, 0, 8], void=True)
        for block in (a, c):
            value = b.load(block)
            with b.if_then(b.cmp("eq", value, 0)):
                pass
        b.ret(0)
        _, reporter = run_with(HandTunedMSan(), b.module, track_shadow=True)
        assert len(reporter) == 0


def test_empty_range_billing_asymmetry():
    """Hand-tuned MSan bills its shadow's 1-cycle address arithmetic even
    for an empty range; the generated code's CoalescedMap bills nothing.
    Figure 3's LLVM and ALDAcc columns depend on exactly this."""
    from repro.runtime import CoalescedMap, FieldSpec, MetadataSpace, ShadowMemory
    from repro.vm.cache import CacheSim
    from repro.vm.profile import CostMeter, Profile

    b = IRBuilder()
    b.function("main")
    b.ret(0)
    vm = Interpreter(b.module, track_shadow=True)
    msan = HandTunedMSan().attach(vm)
    profile, stats = vm.profile, vm.cache.stats
    for call in (lambda: msan._set_range(0x1000_0000, 0, -1),
                 lambda: msan._get_range(0x1000_0000, 0)):
        before = (profile.instr_cycles, profile.metadata_ops, profile.metadata_bytes,
                  stats.accesses)
        call()
        after = (profile.instr_cycles, profile.metadata_ops, profile.metadata_bytes,
                 stats.accesses)
        assert after == (before[0] + 1,) + before[1:]

    profile = Profile()
    meter = CostMeter(profile, CacheSim())
    shadow = ShadowMemory(meter, MetadataSpace.fresh(), 1, 1, lambda: [0])
    cmap = CoalescedMap("m", shadow, [FieldSpec("label", 0, 1, "int", int)], meter)
    def billed():
        return (profile.instr_cycles, profile.metadata_ops, profile.metadata_bytes,
                meter.cache.stats.accesses)

    before = billed()
    cmap.store_range(0x1000_0000, 0, 0, -1)
    assert cmap.load_range(0x1000_0000, 0, 0) == 0
    assert billed() == before


def _counter(locked: bool):
    b = IRBuilder()
    b.module.add_global("shared", 8)
    b.module.add_global("lock", 64)
    b.function("worker", ["n"])
    shared = b.global_addr("shared")
    lock = b.global_addr("lock")
    with b.loop("n"):
        if locked:
            b.call("mutex_lock", [lock], void=True)
        b.store(b.add(b.load(shared), 1), shared)
        if locked:
            b.call("mutex_unlock", [lock], void=True)
    b.ret(0)
    b.function("main")
    t = b.call("spawn$worker", [20])
    b.call("worker", [20], void=True)
    b.call("join", [t], void=True)
    b.ret(0)
    return b.module


class TestHandTunedEraser:
    def test_race_reported(self):
        _, reporter = run_with(HandTunedEraser(), _counter(locked=False))
        assert len(reporter.by_analysis("eraser-handtuned")) > 0

    def test_locked_clean(self):
        _, reporter = run_with(HandTunedEraser(), _counter(locked=True))
        assert len(reporter) == 0

    def test_agrees_with_alda_eraser(self):
        from repro.analyses import eraser
        from tests.conftest import run_analysis_on

        for locked in (False, True):
            _, alda_rep, _ = run_analysis_on(eraser.compile_(), _counter(locked))
            _, hand_rep = run_with(HandTunedEraser(), _counter(locked))
            assert bool(alda_rep.by_analysis("eraser")) == bool(
                hand_rep.by_analysis("eraser-handtuned")
            )

    def test_overheads_comparable_with_alda(self):
        """Figure 4's parity claim at unit-test scale: within 30%."""
        from repro.analyses import eraser
        from tests.conftest import run_analysis_on

        baseline = Interpreter(_counter(locked=True)).run()
        alda_profile, _, _ = run_analysis_on(eraser.compile_(), _counter(True))
        hand_profile, _ = run_with(HandTunedEraser(), _counter(True))
        alda_overhead = alda_profile.cycles / baseline.cycles
        hand_overhead = hand_profile.cycles / baseline.cycles
        assert abs(alda_overhead - hand_overhead) / hand_overhead < 0.30

    def test_metadata_cost_accounted(self):
        profile, _ = run_with(HandTunedEraser(), _counter(locked=True))
        assert profile.instr_cycles > 0
        assert profile.metadata_ops > 0

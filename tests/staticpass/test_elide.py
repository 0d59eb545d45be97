"""Unit tests for the instrumentation-elision pass and its policies."""

import pytest

from repro.ir.text import parse_module
from repro.staticpass import (
    ElisionPolicy,
    analyze_elision,
    elision_mask,
    policy_for,
)
from repro.obs import PROCESS
from repro.staticpass import elide
from repro.staticpass.elide import POLICIES

RACE_POLICY = ElisionPolicy(
    "test", skip_stack_local=True, skip_dominated=True,
    subscriptions=(("LoadInst", ("after",)), ("StoreInst", ("after",))),
)
CHECK_POLICY = ElisionPolicy(
    "test", skip_dominated=True,
    subscriptions=(("LoadInst", ("before",)), ("StoreInst", ("before",))),
)


def report_of(text, policy):
    return analyze_elision(parse_module(text), policy)


class TestPolicy:
    def test_positions_lookup(self):
        assert RACE_POLICY.positions("LoadInst") == ("after",)
        assert RACE_POLICY.positions("AllocaInst") == ()

    def test_enabled_requires_rule_and_subscription(self):
        assert RACE_POLICY.enabled
        assert not ElisionPolicy("x").enabled
        assert not ElisionPolicy("x", skip_dominated=True).enabled  # no subs

    def test_bundled_policy_table(self):
        assert POLICIES["eraser"].skip_stack_local
        assert POLICIES["fasttrack"].skip_stack_local
        assert not POLICIES["uaf"].skip_stack_local
        assert POLICIES["uaf"].skip_dominated


class TestPolicyResolution:
    def test_race_detector_gets_both_rules(self):
        from repro.analyses.eraser import compile_ as compile_eraser

        policy = policy_for(compile_eraser())
        assert policy.skip_stack_local and policy.skip_dominated
        assert policy.positions("LoadInst") == ("after",)
        assert policy.enabled

    def test_uaf_gets_dominated_only(self):
        from repro.analyses.uaf import compile_

        policy = policy_for(compile_())
        assert not policy.skip_stack_local
        assert policy.skip_dominated
        assert policy.positions("LoadInst") == ("before",)

    def test_metadata_consumer_interlocked(self):
        """msan reads/writes register shadow at load/store sites —
        elision must be refused regardless of any registered policy."""
        from repro.analyses.msan import compile_ as compile_msan

        analysis = compile_msan()
        POLICIES[analysis.name] = ElisionPolicy(
            analysis.name, skip_stack_local=True, skip_dominated=True
        )
        try:
            assert not policy_for(analysis).enabled
        finally:
            del POLICIES[analysis.name]

    def test_unregistered_analysis_gets_no_elision(self):
        from repro.analyses.zlibsan import compile_ as compile_zlibsan

        assert not policy_for(compile_zlibsan()).enabled


class TestStackLocalRule:
    def test_local_slot_elided(self):
        report = report_of("""
        func main() {
        entry:
          %s = alloca 8
          store 1 -> [%s], 8
          %v = load [%s], 8
          ret %v
        }
        """, RACE_POLICY)
        counts = report.counts()
        assert counts == {"considered": 2, "stack_local": 2,
                          "lock_protected": 0, "dominated": 0, "elided": 2}
        assert report.mask[("main", "entry", 1)] == frozenset({"after"})
        assert report.mask[("main", "entry", 2)] == frozenset({"after"})

    def test_escaped_slot_kept(self):
        # helper leaks the pointer to unknown code, so the slot escapes
        # even under the interprocedural tier.
        report = report_of("""
        func main() {
        entry:
          %s = alloca 8
          call helper(%s)
          %v = load [%s], 8
          ret %v
        }
        func helper(p) {
        entry:
          call ext_sink(p)
          ret 0
        }
        """, RACE_POLICY)
        assert report.functions["main"].stack_local == 0
        assert ("main", "entry", 2) not in report.mask

    def test_benign_callee_no_longer_escapes(self):
        # The interprocedural tier sees through a callee that neither
        # stores nor leaks its argument — the seed kept this site.
        report = report_of("""
        func main() {
        entry:
          %s = alloca 8
          call helper(%s)
          %v = load [%s], 8
          ret %v
        }
        func helper(p) {
        entry:
          %x = load [p], 8
          ret %x
        }
        """, RACE_POLICY)
        assert report.functions["main"].stack_local == 1
        assert ("main", "entry", 2) in report.mask

    def test_check_policy_keeps_stack_local_sites(self):
        report = report_of("""
        func main() {
        entry:
          %s = alloca 8
          %v = load [%s], 8
          ret %v
        }
        """, CHECK_POLICY)
        assert report.functions["main"].stack_local == 0


class TestDominatedRule:
    HEAP_RELOAD = """
    func main() {
    entry:
      %h = call malloc(8)
      %a = load [%h], 8
      %b = load [%h], 8
      ret %b
    }
    """

    def test_second_access_elided(self):
        report = report_of(self.HEAP_RELOAD, CHECK_POLICY)
        assert report.functions["main"].dominated == 1
        assert ("main", "entry", 2) in report.mask
        assert ("main", "entry", 1) not in report.mask

    def test_call_is_a_barrier(self):
        report = report_of("""
        func main() {
        entry:
          %h = call malloc(8)
          %a = load [%h], 8
          call free(%h)
          %b = load [%h], 8
          ret %b
        }
        """, CHECK_POLICY)
        assert report.functions["main"].dominated == 0

    def test_smaller_recheck_covered_larger_not(self):
        report = report_of("""
        func main() {
        entry:
          %h = call malloc(8)
          %a = load [%h], 4
          %b = load [%h], 8
          %c = load [%h], 4
          ret %c
        }
        """, CHECK_POLICY)
        # 4-byte check does not cover the 8-byte access; the 8-byte one
        # covers the final 4-byte recheck.
        assert ("main", "entry", 2) not in report.mask
        assert ("main", "entry", 3) in report.mask

    def test_merge_requires_coverage_on_every_path(self):
        report = report_of("""
        func main(x) {
        entry:
          %h = call malloc(8)
          %c = cmp lt x, 1
          br %c, touch, skip
        touch:
          %a = load [%h], 8
          jmp done
        skip:
          jmp done
        done:
          %b = load [%h], 8
          ret %b
        }
        """, CHECK_POLICY)
        assert report.functions["main"].dominated == 0

    def test_merge_with_coverage_on_both_paths(self):
        report = report_of("""
        func main(x) {
        entry:
          %h = call malloc(8)
          %c = cmp lt x, 1
          br %c, left, right
        left:
          %a = load [%h], 8
          jmp done
        right:
          %b = load [%h], 8
          jmp done
        done:
          %d = load [%h], 8
          ret %d
        }
        """, CHECK_POLICY)
        census = report.functions["main"]
        assert census.dominated == 1
        # Covered by the merge of two arms, not by one dominating block.
        assert census.dominated_by_tree == 0

    def test_dominating_block_counted_in_tree_census(self):
        report = report_of("""
        func main(x) {
        entry:
          %h = call malloc(8)
          %a = load [%h], 8
          %c = cmp lt x, 1
          br %c, left, right
        left:
          %b = load [%h], 8
          ret %b
        right:
          ret 0
        }
        """, CHECK_POLICY)
        census = report.functions["main"]
        assert census.dominated == 1
        assert census.dominated_by_tree == 1

    def test_register_redefinition_kills_fact(self):
        # SSA forbids true redefinition, but a loop re-executes the
        # defining instruction: the loop-carried value must not inherit
        # the previous iteration's fact.
        report = report_of("""
        func main(n) {
        entry:
          jmp head
        head:
          %h = call malloc(8)
          %a = load [%h], 8
          %c = cmp lt %a, n
          br %c, head, exit
        exit:
          ret 0
        }
        """, CHECK_POLICY)
        assert report.functions["main"].dominated == 0


class TestMultithreading:
    MT_HEAP = """
    func main() {
    entry:
      %t = call spawn(worker)
      %h = call malloc(8)
      %a = load [%h], 8
      %b = load [%h], 8
      ret %b
    }
    func worker() {
    entry:
      ret 0
    }
    """

    def test_shared_addresses_carry_no_facts_across_threads(self):
        report = report_of(self.MT_HEAP, CHECK_POLICY)
        assert report.multithreaded
        assert report.functions["main"].dominated == 0

    def test_stack_local_facts_survive_threads(self):
        report = report_of("""
        func main() {
        entry:
          %t = call spawn(worker)
          %s = alloca 8
          %a = load [%s], 8
          %b = load [%s], 8
          ret %b
        }
        func worker() {
        entry:
          ret 0
        }
        """, CHECK_POLICY)
        assert report.multithreaded
        assert report.functions["main"].dominated == 1


class TestCache:
    def test_memoized_by_digest_and_policy(self):
        elide._MEMO.clear()
        before = PROCESS.subsystems()["staticpass"]
        module = parse_module(TestDominatedRule.HEAP_RELOAD)
        first = analyze_elision(module, CHECK_POLICY)
        second = analyze_elision(module, CHECK_POLICY)
        assert second is first
        stats = PROCESS.subsystems()["staticpass"]
        delta = {key: stats[key] - before[key] for key in stats}
        assert delta["mask_cache_hits"] == 1
        assert delta["mask_cache_misses"] == 1
        assert stats["mask_cache_entries"] == 1
        assert delta["sites_considered"] == first.considered
        assert delta["sites_elided"] == first.elided
        # A different policy is a different cache entry.
        analyze_elision(module, RACE_POLICY)
        after = PROCESS.subsystems()["staticpass"]
        assert after["mask_cache_misses"] - before["mask_cache_misses"] == 2

    def test_elision_mask_shape(self):
        module = parse_module(TestDominatedRule.HEAP_RELOAD)
        mask = elision_mask(module, CHECK_POLICY)
        assert mask == {("main", "entry", 2): frozenset({"before"})}


class TestVmIntegration:
    def test_register_elision_rejected_after_run(self):
        from repro.errors import VMError
        from repro.vm import Interpreter

        vm = Interpreter(parse_module("func main() {\n  ret 0\n}"))
        vm.run()
        with pytest.raises(VMError):
            vm.register_elision({})

    def test_one_unsafe_analysis_vetoes_elision(self):
        """Attaching uaf (elidable) together with taint (not elidable)
        must fire every uaf hook: masks intersect, and taint's empty
        mask wins."""
        from repro.exec.pool import build_analysis
        from repro.vm import Interpreter
        from repro.workloads import ALL

        workload = ALL["bzip2"]

        def handler_calls(specs):
            vm = Interpreter(
                workload.make_module(1),
                extern=workload.make_extern(),
                input_lines=list(workload.input_lines),
                track_shadow=True,
            )
            for spec, elide in specs:
                build_analysis(spec).attach(vm, elide=elide)
            profile = vm.run()
            return profile.handler_calls

        solo_on = handler_calls([("uaf.alda", True)])
        solo_off = handler_calls([("uaf.alda", False)])
        assert solo_on < solo_off  # smoke: elision is actually active solo
        paired = handler_calls([("uaf.alda", True), ("taint.alda", True)])
        unelided_pair = handler_calls([("uaf.alda", False), ("taint.alda", False)])
        assert paired == unelided_pair

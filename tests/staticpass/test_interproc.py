"""Unit tests for the interprocedural tier: call graph, alias/escape,
mod/ref summaries, locksets, and their composition in ``analyze_module``."""

from repro.ir.text import parse_module
from repro.staticpass import analyze_module, build_call_graph
from repro.staticpass.callgraph import classify_callee
from repro.obs import PROCESS
from repro.staticpass import interproc
from repro.staticpass.modref import fact_survives


class TestCallGraph:
    MOD = """
    global shared 8
    func main() {
    entry:
      call helper()
      %t = call spawn$worker()
      %g = call global_addr$shared()
      call mutex_lock(%g)
      call mutex_unlock(%g)
      call memset(%g, 0, 8)
      call mystery()
      ret 0
    }
    func helper() {
    entry:
      ret 0
    }
    func worker() {
    entry:
      ret 0
    }
    """

    def test_edge_kinds(self):
        module = parse_module(self.MOD)
        assert classify_callee(module, "helper") == ("direct", "helper")
        assert classify_callee(module, "spawn$worker") == ("spawn", "worker")
        assert classify_callee(module, "global_addr$shared") == \
            ("global_addr", "shared")
        assert classify_callee(module, "mutex_lock") == ("sync", "mutex_lock")
        assert classify_callee(module, "memset") == ("builtin", "memset")
        assert classify_callee(module, "mystery") == ("extern", "mystery")

    def test_graph_structure(self):
        graph = build_call_graph(parse_module(self.MOD))
        assert set(graph.successors("main")) == {"helper", "worker"}
        assert graph.spawn_targets.get("main") == frozenset({"worker"})
        assert "mystery" in graph.externs["main"]
        assert not graph.in_cycle("main")
        # bottom-up components: callees before callers
        assert graph.scc_of["helper"] < graph.scc_of["main"]
        assert graph.scc_of["worker"] < graph.scc_of["main"]


class TestAlias:
    def test_stack_local_through_benign_callee(self):
        ctx = analyze_module(parse_module("""
        func main() {
        entry:
          %s = alloca 8
          call reader(%s)
          ret 0
        }
        func reader(p) {
        entry:
          %v = load [p], 8
          ret %v
        }
        """))
        assert ctx.stack_local("main", "%s")

    def test_stored_pointer_escapes(self):
        ctx = analyze_module(parse_module("""
        global cell 8
        func main() {
        entry:
          %s = alloca 8
          call keeper(%s)
          ret 0
        }
        func keeper(p) {
        entry:
          %g = call global_addr$cell()
          store p -> [%g], 8
          ret 0
        }
        """))
        assert not ctx.stack_local("main", "%s")

    def test_laundered_pointer_escapes(self):
        # xor-ing a pointer hides it from the points-to propagation, so
        # the object must conservatively escape.
        ctx = analyze_module(parse_module("""
        func main() {
        entry:
          %s = alloca 8
          %x = xor %s, 4096
          ret 0
        }
        """))
        assert not ctx.stack_local("main", "%s")

    def test_top_contents_do_not_hide_concrete_escapes(self):
        # An unmodeled pointer stored into the global makes its contents
        # TOP, but the stack slot concretely stored there beforehand is
        # still reachable by other threads and must escape.
        ctx = analyze_module(parse_module("""
        global cell 8
        func main() {
        entry:
          %s = alloca 8
          %c = call global_addr$cell()
          store %s -> [%c], 8
          %u = call mystery()
          store %u -> [%c], 8
          ret 0
        }
        """))
        assert not ctx.stack_local("main", "%s")

    def test_returned_pointer_escapes(self):
        ctx = analyze_module(parse_module("""
        func main() {
        entry:
          %p = call maker()
          ret 0
        }
        func maker() {
        entry:
          %s = alloca 8
          ret %s
        }
        """))
        assert not ctx.stack_local("maker", "%s")


class TestModRef:
    MOD = """
    global a 8
    global b 8
    func main() {
    entry:
      %x = call global_addr$a()
      %v = load [%x], 8
      ret 0
    }
    func touch_a() {
    entry:
      %x = call global_addr$a()
      store 1 -> [%x], 8
      ret 0
    }
    func touch_b() {
    entry:
      %y = call global_addr$b()
      store 1 -> [%y], 8
      ret 0
    }
    func noisy() {
    entry:
      call touch_a()
      %h = call malloc(8)
      ret 0
    }
    """

    def test_transitive_summaries(self):
        ctx = analyze_module(parse_module(self.MOD))
        obj_a = ("global", "a")
        assert obj_a in ctx.call_effect("touch_a").mod
        assert obj_a not in ctx.call_effect("touch_b").mod
        noisy = ctx.call_effect("noisy")
        assert obj_a in noisy.mod and noisy.heap

    def test_fact_survival(self):
        ctx = analyze_module(parse_module(self.MOD))
        pts_a = frozenset({("global", "a")})
        pts_b = frozenset({("global", "b")})
        stack_pts = frozenset({("stack", "main", "%s")})
        assert not fact_survives(ctx.call_effect("touch_a"), pts_a)
        assert fact_survives(ctx.call_effect("touch_b"), pts_a)
        assert fact_survives(ctx.call_effect("touch_a"), pts_b)
        # heap effects spare only stack-backed facts
        assert fact_survives(ctx.call_effect("noisy"), stack_pts)
        assert not fact_survives(ctx.call_effect("noisy"), pts_b)
        # opaque callees (sync/spawn/extern) kill everything
        assert not fact_survives(ctx.call_effect("mutex_lock"), stack_pts)
        assert not fact_survives(ctx.call_effect("mystery"), stack_pts)


class TestLockset:
    PROTECTED = """
    global counter 8
    global lock 8
    func main() {
    entry:
      %t = call spawn$worker()
      call join(%t)
      ret 0
    }
    func worker() {
    entry:
      %l = call global_addr$lock()
      %c = call global_addr$counter()
      call mutex_lock(%l)
      %v = load [%c], 8
      %w = add %v, 1
      store %w -> [%c], 8
      call mutex_unlock(%l)
      ret 0
    }
    """

    def test_consistently_locked_sites_protected(self):
        ctx = analyze_module(parse_module(self.PROTECTED))
        assert ctx.lock_protected(("worker", "entry", 3))  # the load
        assert ctx.lock_protected(("worker", "entry", 5))  # the store

    def test_unlocked_post_spawn_access_unprotected(self):
        ctx = analyze_module(parse_module(self.PROTECTED.replace(
            "call mutex_unlock(%l)\n      ret 0",
            "call mutex_unlock(%l)\n      %u = load [%c], 8\n      ret 0",
        )))
        # one naked access poisons the object for every site
        assert not ctx.lock_protected(("worker", "entry", 3))
        assert not ctx.lock_protected(("worker", "entry", 5))

    def test_prespawn_accesses_do_not_poison(self):
        ctx = analyze_module(parse_module("""
        global counter 8
        global lock 8
        func main() {
        entry:
          %c = call global_addr$counter()
          store 0 -> [%c], 8
          %t = call spawn$worker()
          ret 0
        }
        func worker() {
        entry:
          %l = call global_addr$lock()
          %c = call global_addr$counter()
          call mutex_lock(%l)
          store 1 -> [%c], 8
          call mutex_unlock(%l)
          ret 0
        }
        """))
        # the initial thread's unlocked init happens-before the spawn
        assert ctx.lock_protected(("main", "entry", 1))
        assert ctx.lock_protected(("worker", "entry", 3))


class TestLockIdentity:
    def test_per_thread_allocated_lock_not_trusted(self):
        # Each spawned thread mallocs its *own* mutex at the same call
        # site, so the abstract heap object covers many concrete locks;
        # the guarded global must stay unprotected (the race is real).
        ctx = analyze_module(parse_module("""
        global shared 8
        func main() {
        entry:
          %t1 = call spawn$worker()
          %t2 = call spawn$worker()
          ret 0
        }
        func worker() {
        entry:
          %m = call malloc(8)
          %g = call global_addr$shared()
          call mutex_lock(%m)
          store 1 -> [%g], 8
          call mutex_unlock(%m)
          ret 0
        }
        """))
        assert not ctx.lock_protected(("worker", "entry", 3))

    def test_stack_lock_in_spawned_function_not_trusted(self):
        # Same hole with an alloca: every thread running worker gets a
        # fresh stack mutex from the one abstract site.
        ctx = analyze_module(parse_module("""
        global shared 8
        func main() {
        entry:
          %t1 = call spawn$worker()
          %t2 = call spawn$worker()
          ret 0
        }
        func worker() {
        entry:
          %m = alloca 8
          %g = call global_addr$shared()
          call mutex_lock(%m)
          store 1 -> [%g], 8
          call mutex_unlock(%m)
          ret 0
        }
        """))
        assert not ctx.lock_protected(("worker", "entry", 3))

    def test_loop_allocated_lock_not_trusted(self):
        # A malloc inside a loop mints a fresh mutex per iteration even
        # in a single-shot function: the site is not a singleton lock.
        ctx = analyze_module(parse_module("""
        global shared 8
        func main() {
        entry:
          %t = call spawn$worker()
          jmp head
        head:
          %m = call malloc(8)
          %g = call global_addr$shared()
          call mutex_lock(%m)
          store 1 -> [%g], 8
          call mutex_unlock(%m)
          %c = call rand()
          %again = cmp ne %c, 0
          br %again, head, done
        done:
          ret 0
        }
        func worker() {
        entry:
          ret 0
        }
        """))
        assert not ctx.lock_protected(("main", "head", 3))

    def test_single_shot_heap_lock_trusted(self):
        # Precision check: a mutex malloc'd exactly once (straight-line
        # main) and shared through a global cell is a single concrete
        # lock, so consistently guarded accesses stay protected.
        ctx = analyze_module(parse_module("""
        global shared 8
        global lockcell 8
        func main() {
        entry:
          %m = call malloc(8)
          %c = call global_addr$lockcell()
          store %m -> [%c], 8
          %t = call spawn$worker()
          call mutex_lock(%m)
          %g = call global_addr$shared()
          store 1 -> [%g], 8
          call mutex_unlock(%m)
          ret 0
        }
        func worker() {
        entry:
          %c = call global_addr$lockcell()
          %m = load [%c], 8
          %g = call global_addr$shared()
          call mutex_lock(%m)
          store 2 -> [%g], 8
          call mutex_unlock(%m)
          ret 0
        }
        """))
        assert ctx.lock_protected(("main", "entry", 6))
        assert ctx.lock_protected(("worker", "entry", 4))


class TestCache:
    def test_memoized_by_digest(self):
        interproc._MEMO.clear()
        before = PROCESS.subsystems()["staticpass"]
        module = parse_module(TestLockset.PROTECTED)
        first = analyze_module(module)
        second = analyze_module(module)
        assert second is first
        stats = PROCESS.subsystems()["staticpass"]
        for key in ("interproc_cache_hits", "interproc_cache_misses"):
            assert stats[key] - before[key] == 1
        assert stats["interproc_cache_entries"] == 1

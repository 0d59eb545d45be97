"""Instrumentation elision: prove hook sites redundant before they fire.

The pass answers, per load/store site of a subject module, "would this
analysis's observable output (reports and backtraces) change if the
hooks at this site never fired?"  Three site classes can be proved safe:

* ``stack_local`` — the address is an alloca-derived, non-escaping
  stack slot: intra-procedurally via :mod:`repro.staticpass.escape`, or
  interprocedurally via the escape side of
  :mod:`repro.staticpass.alias` (an alloca passed to a callee that
  neither stores nor leaks its address stays local).  Only the owning
  thread can ever touch it, so a race detector's per-address state
  machine can never leave its exclusive state and never report.
  Declared safe by the race-detection policies only.
* ``lock_protected`` — every object the address may name is accessed
  under one common lock on every post-spawn path
  (:mod:`repro.staticpass.lockset`): a consistent lockset can never
  report.  In a module that never spawns, *every* site qualifies — a
  single thread cannot race with itself.  Declared safe by the
  race-detection policies only.
* ``dominated`` — an identical address expression is already
  instrumented on every path to this site, with no redefinition of the
  address register and no invalidating call in between.  Without the
  interprocedural context every call invalidates (it may free, lock,
  spawn, or re-enter the analysis); with it, facts survive calls to
  callees whose transitive mod/ref summary
  (:mod:`repro.staticpass.modref`) is disjoint from the address and
  that neither synchronize, spawn, touch allocation state the address
  could occupy, nor reach unknown code.  Safe for pure *check*
  handlers whose verdict depends only on (address, analysis state):
  the dominating site already rendered the same verdict.  In a
  multithreaded module the fact is tracked only for stack-local
  addresses — between two accesses of a shared address another thread
  may run and change the analysis state.

Per-analysis safety is declared in :data:`POLICIES` (keyed by
``CompileOptions.analysis_name``) and *interlocked* automatically:
an analysis whose load/store insertions touch register metadata
(``$N.m`` arguments, or an ``after`` handler whose return value becomes
the destination register's shadow — e.g. msan, taint) gets no elision
regardless of the declared policy, because skipping a site would change
the metadata dataflow downstream.

The mask produced here is consumed at hook-dispatch time by both VM
backends; see ``Interpreter.register_elision`` and the site-aware hook
lookup in ``repro.vm.compile``.  The invariant — enforced by
``tests/staticpass/test_elision_equivalence.py`` across every bundled
workload × spec — is that elision never changes observable analysis
output; only event counts and costs may drop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.ir.instructions import Call, Load, Store
from repro.ir.module import Module
from repro.obs import PROCESS, Memo
from repro.staticpass.cfg import CFG, CFGError, build_cfg
from repro.staticpass.dominators import dominator_tree
from repro.staticpass.escape import STACK_LOCAL, analyze_escapes
from repro.staticpass.dataflow import solve_forward

#: (function name, block label, instruction index) -> suppressed positions.
SiteKey = Tuple[str, str, int]
SiteMask = Dict[SiteKey, FrozenSet[str]]

_KINDS = ("LoadInst", "StoreInst")


@dataclass(frozen=True)
class ElisionPolicy:
    """Declared elision safety for one analysis.

    ``subscriptions`` records which hook positions the analysis binds
    per instrumentable kind, e.g. ``(("LoadInst", ("after",)),)``; only
    subscribed positions are ever suppressed.
    """

    analysis: str = ""
    skip_stack_local: bool = False
    skip_dominated: bool = False
    skip_lock_protected: bool = False
    #: consult the whole-module context (:mod:`repro.staticpass.interproc`)
    #: for escape, lockset, and cross-call fact survival; ``False``
    #: reproduces the strictly intra-procedural pass.
    interproc: bool = True
    subscriptions: Tuple[Tuple[str, Tuple[str, ...]], ...] = ()

    def positions(self, kind: str) -> Tuple[str, ...]:
        for subscribed_kind, positions in self.subscriptions:
            if subscribed_kind == kind:
                return positions
        return ()

    @property
    def enabled(self) -> bool:
        return bool(
            (self.skip_stack_local or self.skip_dominated
             or self.skip_lock_protected)
            and self.subscriptions
        )


#: Declared safety per analysis name.  Race detectors keep per-address
#: state machines that cannot report without a second thread touching
#: the address; memory-safety checks are pure per-address verdicts, so
#: only dominated re-checks may be skipped.
POLICIES: Dict[str, ElisionPolicy] = {
    "eraser": ElisionPolicy("eraser", skip_stack_local=True,
                            skip_dominated=True, skip_lock_protected=True),
    "fasttrack": ElisionPolicy("fasttrack", skip_stack_local=True,
                               skip_dominated=True, skip_lock_protected=True),
    # uaf verdicts track allocation state, not sharing: lock discipline
    # proves nothing about them, and address reuse forbids treating
    # stack slots specially.
    "uaf": ElisionPolicy("uaf", skip_dominated=True),
}

#: function hook points whose handler effects the interprocedural
#: summaries account for (sync/spawn/allocation flags, and ``join``,
#: whose vector-clock merge leaves the joining thread's own epoch
#: unchanged).  An analysis hooking anything else — other builtins,
#: externs, or non-load/store instruction kinds — falls back to the
#: intra-procedural pass: its state could change at events the
#: summaries do not model.
_SUMMARIZED_FUNC_HOOKS = frozenset(
    {"mutex_lock", "mutex_unlock", "spawn", "join", "malloc", "calloc", "free"}
)


def register_policy(name: str, policy: ElisionPolicy) -> None:
    """Declare elision safety for a custom analysis name."""
    POLICIES[name] = policy


def policy_for(analysis) -> ElisionPolicy:
    """Resolve the effective policy for a :class:`CompiledAnalysis`.

    Starts from the :data:`POLICIES` entry for the analysis name
    (default: no elision), attaches the analysis's actual load/store
    hook subscriptions, and applies the metadata interlock described in
    the module docstring.
    """
    base = POLICIES.get(analysis.name, ElisionPolicy(analysis.name))
    subscriptions: Dict[str, List[str]] = {}
    interproc = base.interproc
    for decl in analysis.info.inserts:
        if decl.point_kind == "func":
            if decl.point_name not in _SUMMARIZED_FUNC_HOOKS:
                interproc = False  # state changes the summaries cannot see
            continue
        if decl.point_name not in _KINDS:
            interproc = False  # hooks on kinds the summaries do not model
            continue
        if any(arg.metadata for arg in decl.args):
            return ElisionPolicy(analysis.name)  # metadata consumer
        handler = analysis.info.funcs[decl.handler]
        if decl.position == "after" and handler.ret_type is not None:
            return ElisionPolicy(analysis.name)  # metadata producer
        positions = subscriptions.setdefault(decl.point_name, [])
        if decl.position not in positions:
            positions.append(decl.position)
    return ElisionPolicy(
        analysis.name,
        skip_stack_local=base.skip_stack_local,
        skip_dominated=base.skip_dominated,
        skip_lock_protected=base.skip_lock_protected,
        interproc=interproc,
        subscriptions=tuple(
            (kind, tuple(sorted(positions)))
            for kind, positions in sorted(subscriptions.items())
        ),
    )


@dataclass
class FunctionElision:
    """Per-function site census."""

    name: str
    considered: int = 0
    stack_local: int = 0
    lock_protected: int = 0
    dominated: int = 0
    unknown: int = 0
    #: dominated sites whose covering access sits in a dominating block
    #: (vs. merged coverage from several paths)
    dominated_by_tree: int = 0


@dataclass
class ElisionReport:
    """Full result of the pass on one (module, policy) pair."""

    policy: ElisionPolicy
    multithreaded: bool
    functions: Dict[str, FunctionElision] = field(default_factory=dict)
    mask: SiteMask = field(default_factory=dict)

    @property
    def considered(self) -> int:
        return sum(f.considered for f in self.functions.values())

    @property
    def elided(self) -> int:
        return sum(
            f.stack_local + f.lock_protected + f.dominated
            for f in self.functions.values()
        )

    def counts(self) -> Dict[str, int]:
        return {
            "considered": self.considered,
            "stack_local": sum(f.stack_local for f in self.functions.values()),
            "lock_protected": sum(
                f.lock_protected for f in self.functions.values()
            ),
            "dominated": sum(f.dominated for f in self.functions.values()),
            "elided": self.elided,
        }


def _is_multithreaded(module: Module) -> bool:
    for function in module.functions.values():
        for block in function.blocks.values():
            for instr in block.instructions:
                if isinstance(instr, Call) and instr.callee.startswith("spawn"):
                    return True
    return False


def _address_key(operand):
    return operand if type(operand) is str else ("imm", operand)


def _analyze_function(cfg: CFG, policy: ElisionPolicy, multithreaded: bool,
                      ctx=None) -> Tuple[FunctionElision, SiteMask]:
    census = FunctionElision(cfg.name)
    mask: SiteMask = {}
    escapes = analyze_escapes(cfg)

    def site_positions(instr) -> Tuple[str, ...]:
        kind = "LoadInst" if isinstance(instr, Load) else "StoreInst"
        return policy.positions(kind)

    def is_stack_local(instr) -> bool:
        if escapes.address_class(instr.address) == STACK_LOCAL:
            return True
        return ctx is not None and ctx.stack_local(cfg.name, instr.address)

    def is_lock_protected(label: str, index: int) -> bool:
        """Lockset tier: single-threaded modules qualify wholesale (a
        lone thread cannot race with itself), threaded ones per site."""
        if not policy.skip_lock_protected or ctx is None:
            return False
        return (not multithreaded
                or ctx.lock_protected((cfg.name, label, index)))

    def generates(instr, label: str, index: int) -> bool:
        """Does this site leave an "already instrumented" fact behind?

        Sites whose hooks are suppressed by the stack-local or lockset
        rules leave none.  In a multithreaded module only stack-local
        addresses (touched by exactly one thread) carry facts across
        steps.
        """
        local = is_stack_local(instr)
        if policy.skip_stack_local and local:
            return False
        if is_lock_protected(label, index):
            return False
        return local or not multithreaded

    # Availability of same-address instrumented accesses: facts map an
    # address key to the byte size guaranteed instrumented on every
    # path.  Redefining the address register kills its facts
    # (loop-carried registers take new values).  Without the
    # interprocedural context every call clears all facts; with it only
    # the facts the callee's transitive summary may invalidate die.
    def transfer(label: str, facts: Dict) -> Dict:
        facts = dict(facts)
        for index, instr in enumerate(cfg.blocks[label].instructions):
            if isinstance(instr, Call):
                if ctx is None:
                    facts.clear()
                else:
                    ctx.filter_facts(cfg.name, instr, facts)
            result = getattr(instr, "result", None)
            if result:
                facts.pop(result, None)
            if isinstance(instr, (Load, Store)) and generates(instr, label, index):
                key = _address_key(instr.address)
                facts[key] = max(facts.get(key, 0), instr.size)
        return facts

    def meet(a: Dict, b: Dict) -> Dict:
        return {key: min(size, b[key]) for key, size in a.items() if key in b}

    want_dominated = policy.skip_dominated
    block_in = (
        solve_forward(cfg, {}, transfer, meet) if want_dominated else {}
    )
    gen_blocks: Dict[object, List[str]] = {}
    if want_dominated:
        for label in cfg.rpo:
            for index, instr in enumerate(cfg.blocks[label].instructions):
                if isinstance(instr, (Load, Store)) and generates(instr, label, index):
                    gen_blocks.setdefault(
                        _address_key(instr.address), []
                    ).append(label)
    dom = dominator_tree(cfg) if want_dominated else None

    for label, node in cfg.blocks.items():
        facts = dict(block_in.get(label, {}))
        local_gens = set()  # keys already instrumented earlier in this block
        for index, instr in enumerate(node.instructions):
            if isinstance(instr, (Load, Store)):
                positions = site_positions(instr)
                if positions:
                    census.considered += 1
                    local = is_stack_local(instr)
                    key = _address_key(instr.address)
                    covered = (
                        want_dominated
                        and label in block_in
                        and facts.get(key, 0) >= instr.size
                    )
                    if policy.skip_stack_local and local:
                        census.stack_local += 1
                        mask[(cfg.name, label, index)] = frozenset(positions)
                    elif is_lock_protected(label, index):
                        census.lock_protected += 1
                        mask[(cfg.name, label, index)] = frozenset(positions)
                    elif covered:
                        census.dominated += 1
                        mask[(cfg.name, label, index)] = frozenset(positions)
                        if key in local_gens or (dom is not None and any(
                            g != label and dom.dominates(g, label)
                            for g in gen_blocks.get(key, ())
                        )):
                            census.dominated_by_tree += 1
                    else:
                        census.unknown += 1
            # replay the transfer so in-block facts stay exact
            if isinstance(instr, Call):
                if ctx is None:
                    facts.clear()
                    local_gens.clear()
                else:
                    ctx.filter_facts(cfg.name, instr, facts)
                    local_gens &= set(facts)
            result = getattr(instr, "result", None)
            if result:
                facts.pop(result, None)
                local_gens.discard(result)
            if isinstance(instr, (Load, Store)) and generates(instr, label, index):
                key = _address_key(instr.address)
                facts[key] = max(facts.get(key, 0), instr.size)
                local_gens.add(key)
    return census, mask


# ----------------------------------------------------------------------
# module-level driver, memoized process-wide like the stage-1 compile
# cache (repro.vm.compile): serve workers and the harness analyze each
# (module, policy) pair exactly once.
# ----------------------------------------------------------------------
_MEMO = Memo("staticpass.mask_cache_", 64)
_SITES_CONSIDERED = PROCESS.counter("staticpass.sites_considered")
_SITES_ELIDED = PROCESS.counter("staticpass.sites_elided")


def analyze_elision(module: Module, policy: ElisionPolicy,
                    digest: Optional[str] = None) -> ElisionReport:
    """Run the full pass; results are memoized by (IR digest, policy)."""
    from repro.vm.compile import ir_digest

    if digest is None:
        digest = ir_digest(module)
    return _MEMO.get_or_build(
        (digest, policy), lambda: _build_report(module, policy, digest)
    )


def _build_report(module: Module, policy: ElisionPolicy,
                    digest: str) -> ElisionReport:
    report = ElisionReport(policy, _is_multithreaded(module))
    if policy.enabled:
        ctx = None
        if policy.interproc:
            from repro.staticpass.interproc import analyze_module

            ctx = analyze_module(module, digest)
        for name, function in module.functions.items():
            try:
                cfg = build_cfg(function)
            except CFGError:
                # A function the CFG builder rejects gets no elision;
                # the VM validates and executes it independently.
                continue
            census, mask = _analyze_function(
                cfg, policy, report.multithreaded, ctx
            )
            report.functions[name] = census
            report.mask.update(mask)
    _SITES_CONSIDERED.inc(report.considered)
    _SITES_ELIDED.inc(report.elided)
    return report


def elision_mask(module: Module, policy: ElisionPolicy) -> SiteMask:
    """The site mask alone — what ``Interpreter.register_elision`` takes."""
    return analyze_elision(module, policy).mask

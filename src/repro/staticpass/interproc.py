"""Interprocedural analysis bundle consumed by the elision pass.

``analyze_module`` runs the whole-module pipeline once per IR digest —
call graph (:mod:`repro.staticpass.callgraph`), Andersen points-to and
escape (:mod:`repro.staticpass.alias`), transitive mod/ref summaries
(:mod:`repro.staticpass.modref`), and locksets
(:mod:`repro.staticpass.lockset`) — and packages the answers the
elision pass asks behind an :class:`InterprocContext`:

* ``stack_local`` — may this address only name thread-confined stack
  memory?  (Grows the seed's intra-procedural ``stack_local`` tier:
  an alloca handed to a callee that neither stores nor leaks it stays
  local.)
* ``lock_protected`` — is this site's every aliased object consistently
  protected after thread start?
* ``filter_facts`` — which "already instrumented" facts survive this
  call?  (Replaces the seed's calls-clear-everything barrier with
  mod/ref disjointness.)

The context is policy-independent, so one run serves every analysis
attached to the same module; results are memoized process-wide by IR
digest like the elision mask cache, counted in :data:`repro.obs.PROCESS`
as ``staticpass.interproc_cache_*``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.ir.instructions import Call
from repro.ir.module import Module
from repro.obs import Memo
from repro.staticpass.alias import TOP, AliasInfo, analyze_aliases
from repro.staticpass.callgraph import CallGraph, build_call_graph
from repro.staticpass.lockset import LockInfo, analyze_locksets
from repro.staticpass.modref import (
    FunctionSummary,
    call_summary,
    fact_survives,
    summarize_module,
)

SiteKey = Tuple[str, str, int]


@dataclass
class InterprocContext:
    """Whole-module interprocedural facts for one IR digest."""

    module: Module
    graph: CallGraph
    aliases: AliasInfo
    summaries: Dict[str, FunctionSummary]
    locks: LockInfo

    def stack_local(self, fname: str, operand) -> bool:
        """Address provably confined to non-escaping stack slots."""
        return self.aliases.stack_local(fname, operand)

    def lock_protected(self, site: SiteKey) -> bool:
        """Every object the site may touch is consistently protected."""
        return self.locks.lock_protected(site)

    def call_effect(self, callee: str) -> FunctionSummary:
        return call_summary(self.module, self.summaries, callee)

    def _key_pts(self, fname: str, key):
        """Points-to set of an elision fact key (register or imm)."""
        if type(key) is tuple:  # ("imm", value)
            obj = self.aliases.global_addrs.get(key[1])
            return frozenset((obj,)) if obj is not None else TOP
        return self.aliases.address_pts(fname, key)

    def filter_facts(self, fname: str, instr: Call, facts: Dict) -> None:
        """Drop (in place) every fact the call may invalidate."""
        summary = self.call_effect(instr.callee)
        if summary.opaque:
            facts.clear()
            return
        if not summary.heap and not summary.modref:
            return  # transparent call: every fact survives
        for key in list(facts):
            if not fact_survives(summary, self._key_pts(fname, key)):
                del facts[key]


# ----------------------------------------------------------------------
# process-wide memo, keyed by IR digest (policy-independent)
# ----------------------------------------------------------------------
_MEMO = Memo("staticpass.interproc_cache_", 32)


def analyze_module(module: Module, digest: Optional[str] = None) -> InterprocContext:
    """Build (or recall) the interprocedural bundle for one module."""
    from repro.vm.compile import ir_digest

    if digest is None:
        digest = ir_digest(module)
    return _MEMO.get_or_build(digest, lambda: _analyze(module))


def _analyze(module: Module) -> InterprocContext:
    graph = build_call_graph(module)
    aliases = analyze_aliases(module, graph)
    summaries = summarize_module(module, graph, aliases)
    locks = analyze_locksets(module, graph, aliases, summaries)
    return InterprocContext(module, graph, aliases, summaries, locks)

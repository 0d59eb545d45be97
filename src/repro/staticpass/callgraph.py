"""Module-level call graph with SCC condensation.

The mini-IR has no indirect calls: every ``Call`` names its target
statically, so the call graph is exact.  Targets partition into a small
taxonomy (``classify_callee``) that every interprocedural pass in this
package shares:

* ``direct``      — a function defined in the same module;
* ``spawn``       — ``spawn$f``: starts ``f`` on a new thread;
* ``sync``        — ``mutex_lock`` / ``mutex_unlock``;
* ``join``        — thread join (blocks, transfers no memory effects
  relevant to the elision policies — see ``docs/STATICPASS.md``);
* ``global_addr`` — ``global_addr$g``: materializes a global's address;
* ``builtin``     — a :mod:`repro.vm.libc` routine;
* ``extern``      — anything else (workload ``extern_factory`` targets),
  treated as unknown by every consumer.

``build_call_graph`` also condenses the graph into strongly connected
components (iterative Tarjan).  ``sccs`` lists components bottom-up —
every callee SCC appears before its callers — which is exactly the
order the mod/ref summary propagation wants; reverse it for top-down
problems (entry locksets).  Spawn edges participate in the condensation:
a spawned function is reachable work just like a called one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.ir.instructions import Call
from repro.ir.module import Module

#: ``mutex_lock``/``mutex_unlock`` callee bases.
SYNC_BASES = ("mutex_lock", "mutex_unlock")


def classify_callee(module: Module, callee: str) -> Tuple[str, str]:
    """``(kind, target)`` for one callee string (see module docstring)."""
    if callee in module.functions:
        return ("direct", callee)
    base, _, suffix = callee.partition("$")
    if base == "spawn":
        if suffix in module.functions:
            return ("spawn", suffix)
        return ("extern", callee)  # spawning an undefined target
    if base in SYNC_BASES:
        return ("sync", base)
    if base == "join":
        return ("join", base)
    if base == "global_addr":
        return ("global_addr", suffix)
    from repro.vm.libc import REGISTRY

    if base in REGISTRY:
        return ("builtin", base)
    return ("extern", callee)


@dataclass
class CallGraph:
    """Exact call graph of one module plus its SCC condensation."""

    module: Module
    #: caller -> module functions it calls directly
    edges: Dict[str, Set[str]] = field(default_factory=dict)
    #: caller -> module functions it spawns as threads
    spawn_targets: Dict[str, Set[str]] = field(default_factory=dict)
    #: caller -> unresolved callee names (externs)
    externs: Dict[str, Set[str]] = field(default_factory=dict)
    #: strongly connected components, bottom-up (callees first)
    sccs: List[Tuple[str, ...]] = field(default_factory=list)
    #: function name -> index into ``sccs``
    scc_of: Dict[str, int] = field(default_factory=dict)

    def successors(self, fname: str) -> Set[str]:
        """Direct plus spawn successors (the condensed graph's edges)."""
        return self.edges.get(fname, set()) | self.spawn_targets.get(fname, set())

    def in_cycle(self, fname: str) -> bool:
        """True when ``fname`` sits on a call cycle (including self-recursion)."""
        component = self.sccs[self.scc_of[fname]]
        if len(component) > 1:
            return True
        return fname in self.successors(fname)


def build_call_graph(module: Module) -> CallGraph:
    graph = CallGraph(module)
    for fname, function in module.functions.items():
        graph.edges[fname] = set()
        graph.spawn_targets[fname] = set()
        graph.externs[fname] = set()
        for block in function.blocks.values():
            for instr in block.instructions:
                if not isinstance(instr, Call):
                    continue
                kind, target = classify_callee(module, instr.callee)
                if kind == "direct":
                    graph.edges[fname].add(target)
                elif kind == "spawn":
                    graph.spawn_targets[fname].add(target)
                elif kind == "extern":
                    graph.externs[fname].add(target)
    graph.sccs, graph.scc_of = _tarjan(
        sorted(module.functions), graph.successors
    )
    return graph


def _tarjan(nodes: List[str], successors) -> Tuple[List[Tuple[str, ...]], Dict[str, int]]:
    """Iterative Tarjan SCCs, emitted bottom-up (callees before callers)."""
    index: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    sccs: List[Tuple[str, ...]] = []
    scc_of: Dict[str, int] = {}
    counter = 0

    for root in nodes:
        if root in index:
            continue
        # (node, iterator position over its sorted successors)
        work: List[Tuple[str, int]] = [(root, 0)]
        succ_lists: Dict[str, List[str]] = {}
        while work:
            node, position = work[-1]
            if position == 0:
                index[node] = lowlink[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
                succ_lists[node] = sorted(successors(node))
            succs = succ_lists[node]
            advanced = False
            while position < len(succs):
                succ = succs[position]
                position += 1
                if succ not in index:
                    work[-1] = (node, position)
                    work.append((succ, 0))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if advanced:
                continue
            work.pop()
            if lowlink[node] == index[node]:
                component: List[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                scc_index = len(sccs)
                sccs.append(tuple(sorted(component)))
                for member in component:
                    scc_of[member] = scc_index
            if work:
                parent, _ = work[-1]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
    return sccs, scc_of

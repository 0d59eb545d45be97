"""Static analysis over :mod:`repro.ir` modules.

The framework mirrors a classic compiler middle-end, scaled to the
mini-IR: :mod:`repro.staticpass.cfg` builds a control-flow graph per
function (with typed structural errors), :mod:`repro.staticpass.dominators`
computes dominator trees (Cooper–Harvey–Kennedy),
:mod:`repro.staticpass.dataflow` provides a generic forward dataflow
solver plus reaching definitions, and :mod:`repro.staticpass.escape`
classifies alloca-derived addresses as provably stack-local and
non-escaping within one function.

The interprocedural tier reasons across calls:
:mod:`repro.staticpass.callgraph` builds the exact module call graph
with SCC condensation, :mod:`repro.staticpass.alias` solves
Andersen-style points-to plus whole-module escape,
:mod:`repro.staticpass.modref` derives transitive per-function mod/ref
summaries, and :mod:`repro.staticpass.lockset` proves sites
consistently lock-protected; :mod:`repro.staticpass.interproc` bundles
the four behind one memoized context.

On top of those passes, :mod:`repro.staticpass.elide` implements the
instrumentation-elision pass: given a compiled analysis's hook
subscriptions and its declared elision safety, it computes the set of
load/store sites whose hooks are statically redundant
(``stack_local`` / ``lock_protected`` / ``dominated``).  The mask is
consumed by both VM backends (``repro.vm.compile`` and the reference
loop in ``repro.vm.interpreter``), keeping observable analysis output
bit-identical while dropping event counts and handler work.

``python -m repro.staticpass report <analysis> <workload>`` prints the
per-function elision statistics for any bundled spec/workload pair;
``python -m repro.staticpass report --all`` sweeps the whole corpus.
"""

from repro.staticpass.alias import AliasInfo, analyze_aliases
from repro.staticpass.callgraph import CallGraph, build_call_graph
from repro.staticpass.cfg import (
    CFG,
    BlockNode,
    CFGError,
    DuplicateDefinitionError,
    MissingLabelError,
    MissingTerminatorError,
    StaticPassError,
    build_cfg,
)
from repro.staticpass.dataflow import ReachingDefinitions, reaching_definitions, solve_forward
from repro.staticpass.dominators import DominatorTree, dominator_tree
from repro.staticpass.elide import (
    ElisionPolicy,
    ElisionReport,
    analyze_elision,
    elision_mask,
    policy_for,
    register_policy,
    staticpass_stats,
)
from repro.staticpass.escape import EscapeInfo, analyze_escapes
from repro.staticpass.interproc import InterprocContext, analyze_module
from repro.staticpass.lockset import LockInfo, analyze_locksets
from repro.staticpass.modref import FunctionSummary, summarize_module

__all__ = [
    "CFG",
    "AliasInfo",
    "BlockNode",
    "CFGError",
    "CallGraph",
    "DominatorTree",
    "DuplicateDefinitionError",
    "ElisionPolicy",
    "ElisionReport",
    "EscapeInfo",
    "FunctionSummary",
    "InterprocContext",
    "LockInfo",
    "MissingLabelError",
    "MissingTerminatorError",
    "ReachingDefinitions",
    "StaticPassError",
    "analyze_aliases",
    "analyze_elision",
    "analyze_escapes",
    "analyze_locksets",
    "analyze_module",
    "build_call_graph",
    "build_cfg",
    "dominator_tree",
    "elision_mask",
    "policy_for",
    "reaching_definitions",
    "register_policy",
    "solve_forward",
    "staticpass_stats",
    "summarize_module",
]

"""ALDAcc's driver: options, the analysis runtime, and ``compile_analysis``.

``CompileOptions`` exposes every optimization the evaluation ablates:

* ``coalesce`` / ``cse`` — off together they form the paper's
  "ALDAcc-ds-only" configuration (Figure 4's third bar);
* ``structure_selection`` — off reproduces the out-of-memory ablation
  (everything in generic hash maps and tree sets);
* ``granularity`` — metadata granularity in bytes (section 5.1);
* ``shadow_factor_threshold`` — the shadow-memory/page-table cutover
  (section 5.3, default 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Union

from repro.alda import ast_nodes as ast
from repro.alda.parser import parse_program
from repro.alda.semantics import ProgramInfo, check_program
from repro.compiler.access_analysis import AccessSummary, analyze_accesses
from repro.compiler.coalesce import MapGroup, coalesce_maps
from repro.compiler.codegen import generate_module
from repro.compiler.instrument import build_maps, register_adapters
from repro.compiler.layout import LayoutPlan, plan_layout
from repro.errors import CompileError
from repro.runtime.array_map import KeyInterner
from repro.runtime.external import ExternalRegistry, default_externals
from repro.runtime.metadata import MetadataSpace
from repro.vm.profile import CostMeter


@dataclass(frozen=True)
class CompileOptions:
    """Knobs of the ALDAcc pipeline."""

    granularity: int = 8  # word-based by default (section 5.1)
    coalesce: bool = True
    cse: bool = True
    structure_selection: bool = True
    shadow_factor_threshold: float = 3.0
    analysis_name: str = "analysis"
    #: Run the static instrumentation-elision pass
    #: (:mod:`repro.staticpass.elide`) when attaching to a VM: hook
    #: sites proved redundant for this analysis are never fired.
    #: Observable output is unchanged; event counts and costs drop.
    elide_instrumentation: bool = False

    def ds_only(self) -> "CompileOptions":
        """The Figure 4 ablation: keep structure selection, drop layout opts."""
        return replace(self, coalesce=False, cse=False)


class AnalysisRuntime:
    """Everything a compiled analysis needs at run time.

    Holds the live coalesced maps, the cost meter, the per-event lookup
    memo, the external-function registry, and the report channel.
    """

    def __init__(
        self,
        name: str,
        meter: CostMeter,
        space: MetadataSpace,
        reporter,
        externals: ExternalRegistry,
        memo_enabled: bool,
    ) -> None:
        self.name = name
        self.meter = meter
        self.space = space
        self.reporter = reporter
        self.externals = externals
        self.maps = []
        self.handlers: Dict[str, object] = {}
        self.vm = None  # set at attach time; used for report backtraces
        self._memo: Optional[dict] = {} if memo_enabled else None
        self._last_event_seq = -2
        self._interners: Dict[str, KeyInterner] = {}

    def intern(self, type_name: str, domain: int, key: int) -> int:
        """Dense-rename a sparse bounded value (e.g. a lock address)."""
        interner = self._interners.get(type_name)
        if interner is None:
            interner = KeyInterner(self.meter, self.space, domain, name=type_name)
            self._interners[type_name] = interner
        return interner.intern(key)

    def begin_event(self, seq: int = -1) -> None:
        """Reset the cross-handler lookup memo at each instrumentation event.

        Idempotent per event: several handlers fired at one event (a
        combined analysis) share the memo, which is what lets ALDAcc
        optimize composed analyses together (section 6.4.2).
        """
        if self._memo is None:
            return
        if seq != -1 and seq == self._last_event_seq:
            return
        self._last_event_seq = seq
        self._memo.clear()

    def alda_assert(self, actual: int, expected: int, loc: str, handler: str) -> None:
        """ALDA's built-in monitor: report when ``actual != expected``.

        Reports carry the subject program's call stack at the moment of
        the violation (the paper's "error report and analysis
        backtrace").
        """
        self.meter.cycles(1)
        if actual != expected:
            backtrace = self.vm.backtrace() if self.vm is not None else ()
            self.reporter.report(
                self.name, handler, "alda_assert failed", loc, actual, expected,
                backtrace=backtrace,
            )

    def external(self, name: str, *args: int) -> int:
        self.meter.cycles(2)  # call overhead of the escape hatch
        return self.externals.call(self, name, *args)


@dataclass
class CompiledAnalysis:
    """Result of running the ALDAcc pipeline on one ALDA program."""

    name: str
    info: ProgramInfo
    options: CompileOptions
    accesses: AccessSummary
    groups: List[MapGroup]
    layout: LayoutPlan
    group_of_map: Dict[str, int]
    source: str  # generated Python module text (inspectable artifact)
    externals: ExternalRegistry

    @property
    def needs_shadow(self) -> bool:
        """True when the analysis uses local (register) metadata."""
        for decl in self.info.inserts:
            if any(arg.metadata for arg in decl.args):
                return True
            handler = self.info.funcs[decl.handler]
            if handler.ret_type is not None and decl.position == "after":
                return True
        return False

    def attach(self, vm, hooks=None, elide=None) -> AnalysisRuntime:
        """Wire this analysis into a VM: build structures, register hooks.

        ``elide`` overrides ``options.elide_instrumentation`` for this
        attachment (the mask is a VM-level property, so the same
        compiled analysis can be attached with and without elision).
        Every attachment to a VM's own hook table registers an elision
        mask — an empty one when elision is off — so the VM applies the
        *intersection*: one elision-unsafe analysis vetoes elision for
        the whole run.
        """
        if hooks is None and hasattr(vm, "register_elision"):
            do_elide = (
                self.options.elide_instrumentation if elide is None
                else bool(elide)
            )
            if do_elide:
                from repro.staticpass.elide import elision_mask, policy_for

                vm.register_elision(elision_mask(vm.module, policy_for(self)))
            else:
                vm.register_elision({})
        meter = CostMeter(vm.profile, vm.cache)
        space = MetadataSpace.fresh()
        runtime = AnalysisRuntime(
            self.name,
            meter,
            space,
            vm.reporter,
            self.externals,
            memo_enabled=self.options.cse,
        )
        runtime.vm = vm
        runtime.maps = build_maps(self.layout, meter, space, runtime._memo)

        namespace: Dict[str, object] = {}
        exec(compile(self.source, f"<aldacc:{self.name}>", "exec"), namespace)
        handlers, adapters = namespace["make_handlers"](runtime)
        runtime.handlers = handlers
        register_adapters(hooks if hooks is not None else vm.hooks, adapters)
        return runtime


def compile_analysis(
    program: Union[str, ast.Program, ProgramInfo],
    options: Optional[CompileOptions] = None,
    externals: Optional[ExternalRegistry] = None,
) -> CompiledAnalysis:
    """Run the full ALDAcc pipeline (sections 3.2 and 5 of the paper)."""
    options = options or CompileOptions()
    if options.granularity not in (1, 2, 4, 8):
        raise CompileError(
            f"granularity must be 1, 2, 4 or 8 bytes, not {options.granularity}"
        )

    if isinstance(program, str):
        info = check_program(parse_program(program))
    elif isinstance(program, ast.Program):
        info = check_program(program)
    elif isinstance(program, ProgramInfo):
        info = program
    else:
        raise CompileError(f"cannot compile {type(program).__name__}")

    registry = externals or default_externals()
    missing = [name for name in info.externals if name not in registry]
    if missing:
        raise CompileError(
            f"analysis calls unregistered external functions: {sorted(missing)}"
        )

    accesses = analyze_accesses(info)
    groups = coalesce_maps(info, accesses, enabled=options.coalesce)
    layout = plan_layout(
        groups,
        granularity=options.granularity,
        shadow_factor_threshold=options.shadow_factor_threshold,
        structure_selection=options.structure_selection,
    )
    group_of_map = {
        field.map_name: index
        for index, plan in enumerate(layout.groups)
        for field in plan.fields
    }
    source = generate_module(
        info, layout, group_of_map, options.cse, options.analysis_name
    )
    return CompiledAnalysis(
        name=options.analysis_name,
        info=info,
        options=options,
        accesses=accesses,
        groups=groups,
        layout=layout,
        group_of_map=group_of_map,
        source=source,
        externals=registry,
    )

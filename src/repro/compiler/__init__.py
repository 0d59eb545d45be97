"""ALDAcc: the optimizing compiler for ALDA (paper sections 3.2 and 5).

Pipeline phases, mirroring the paper:

1. **static analysis** (:mod:`repro.compiler.access_analysis`) — find every
   metadata map access in every handler;
2. **metadata layout** (:mod:`repro.compiler.coalesce`,
   :mod:`repro.compiler.layout`) — coalesce maps by key type, choose field
   offsets, and select backing structures via the shadow factor;
3. **event handler generation** (:mod:`repro.compiler.codegen`,
   :mod:`repro.compiler.cse`) — emit handler code with metadata-lookup
   reduction;
4. **event handler insertion** (:mod:`repro.compiler.instrument`) — bind
   compiled handlers to VM instrumentation hooks per the insertion
   declarations.

Entry point::

    from repro.compiler import CompileOptions, compile_analysis

    analysis = compile_analysis(source, CompileOptions(granularity=1))
    vm = Interpreter(module, hooks=hooks)
    analysis.attach(vm, hooks)
    vm.run()
"""

from repro.compiler.pipeline import (
    AnalysisRuntime,
    CompiledAnalysis,
    CompileOptions,
    compile_analysis,
)
from repro.compiler.combine import combine_programs, combine_sources

__all__ = [
    "AnalysisRuntime",
    "CompileOptions",
    "CompiledAnalysis",
    "combine_programs",
    "combine_sources",
    "compile_analysis",
]

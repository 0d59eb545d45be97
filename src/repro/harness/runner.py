"""Run workloads plain and instrumented; compute normalized overhead.

The protocol for an *attachable* analysis is what both
:class:`repro.compiler.CompiledAnalysis` and the hand-tuned baselines
provide: a ``needs_shadow`` attribute and an ``attach(vm)`` method.
Hand-tuned baselines are stateful, so pass a factory (each measurement
builds a fresh instance); compiled analyses are immutable and may be
passed directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Union

from repro.vm.events import materialize
from repro.vm.interpreter import Interpreter
from repro.vm.profile import Profile
from repro.vm.reporting import Report
from repro.workloads.base import Workload

Attachable = object  # needs_shadow + attach(vm)
AttachableSource = Union[Attachable, Callable[[], Attachable]]


@dataclass
class OverheadResult:
    workload: str
    label: str
    baseline_cycles: int
    instrumented_cycles: int
    profile: Profile
    reports: List[Report] = field(default_factory=list)

    @property
    def overhead(self) -> float:
        return self.instrumented_cycles / self.baseline_cycles


def _attach(attachable: Attachable, vm, elide: Optional[bool]) -> None:
    """Attach, forwarding the elision override to analyses that take it
    (hand-tuned baselines predate the ``elide`` keyword)."""
    import inspect

    if elide is not None and (
        "elide" in inspect.signature(attachable.attach).parameters
    ):
        attachable.attach(vm, elide=elide)
    else:
        attachable.attach(vm)


def run_plain(workload: Workload, scale: int = 1,
              backend: str = "compiled") -> Profile:
    """Uninstrumented run — the denominator of every overhead figure."""
    module = workload.make_module(scale)
    vm = Interpreter(
        module,
        extern=workload.make_extern(),
        input_lines=list(workload.input_lines),
        backend=backend,
    )
    return vm.run()


def run_instrumented(
    workload: Workload,
    analyses: Sequence[AttachableSource],
    scale: int = 1,
    backend: str = "compiled",
    elide: Optional[bool] = None,
):
    """Run with one or more analyses attached; returns (profile, reporter).

    ``elide`` forces instrumentation elision on/off for every attached
    compiled analysis (None: each analysis's ``CompileOptions`` decides).
    """
    attachables = [materialize(source) for source in analyses]
    module = workload.make_module(scale)
    vm = Interpreter(
        module,
        extern=workload.make_extern(),
        input_lines=list(workload.input_lines),
        track_shadow=any(a.needs_shadow for a in attachables),
        backend=backend,
    )
    for attachable in attachables:
        _attach(attachable, vm, elide)
    profile = vm.run()
    return profile, vm.reporter


def measure_overhead(
    workload: Workload,
    analysis: AttachableSource,
    scale: int = 1,
    label: str = "",
    baseline: Optional[Profile] = None,
    backend: str = "compiled",
    elide: Optional[bool] = None,
) -> OverheadResult:
    """Normalized overhead of one analysis on one workload.

    Pass a precomputed ``baseline`` profile to amortize the plain run
    across several configurations of the same workload/scale.
    ``elide`` forces instrumentation elision on/off (None: the
    analysis's own ``CompileOptions`` decide).
    """
    if baseline is None:
        baseline = run_plain(workload, scale, backend=backend)
    profile, reporter = run_instrumented(workload, [analysis], scale,
                                         backend=backend, elide=elide)
    return OverheadResult(
        workload=workload.name,
        label=label or getattr(analysis, "name", "analysis"),
        baseline_cycles=baseline.cycles,
        instrumented_cycles=profile.cycles,
        profile=profile,
        reports=list(reporter),
    )


def geomean(values: Sequence[float]) -> float:
    """Geometric mean via summed logs (overflow-safe for cycle ratios)."""
    if not values:
        return 0.0
    total = 0.0
    for value in values:
        if value <= 0.0:
            return 0.0  # a non-positive overhead is degenerate; don't NaN
        total += math.log(value)
    return math.exp(total / len(values))

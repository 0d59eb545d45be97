"""The elision invariant, enforced differentially.

``elide_instrumentation`` may only ever drop event counts and costs —
observable analysis output (reports with their backtraces) must stay
bit-identical, and the two VM backends must agree on every profile
field while elision is active.  This sweeps all bundled workloads
against every analysis spec, mirroring ``tests/vm/test_backends.py``.
"""

from __future__ import annotations

import dataclasses
import inspect

import pytest

from repro.exec.pool import ANALYSIS_SPECS, build_analysis
from repro.vm import Interpreter
from repro.workloads import ALL

SPECS = sorted(ANALYSIS_SPECS)


def _attach(analysis, vm, elide: bool) -> None:
    # Hand-tuned baselines predate the ``elide`` keyword; for them
    # "elision on" is a no-op and the sweep degenerates to off == off.
    if "elide" in inspect.signature(analysis.attach).parameters:
        analysis.attach(vm, elide=elide)
    else:
        analysis.attach(vm)


def _observe(workload, spec: str, backend: str, elide: bool):
    module = workload.make_module(1)
    vm = Interpreter(
        module,
        extern=workload.make_extern(),
        input_lines=list(workload.input_lines),
        track_shadow=True,
        backend=backend,
    )
    _attach(build_analysis(spec), vm, elide)
    profile = vm.run()
    return dataclasses.asdict(profile), list(vm.reporter), vm._fire_seq


@pytest.mark.parametrize("name", sorted(ALL))
def test_elision_preserves_observable_output(name):
    """Per workload, per spec: reports/backtraces identical with elision
    on and off, handler calls never increase, and both backends agree
    bit-for-bit while elision is on."""
    workload = ALL[name]
    for spec in SPECS:
        off_profile, off_reports, off_seq = _observe(
            workload, spec, "compiled", elide=False
        )
        on_profile, on_reports, on_seq = _observe(
            workload, spec, "compiled", elide=True
        )
        assert on_reports == off_reports, f"{name}/{spec}: reports differ"
        assert on_profile["handler_calls"] <= off_profile["handler_calls"], (
            f"{name}/{spec}: elision increased handler calls"
        )
        ref_profile, ref_reports, ref_seq = _observe(
            workload, spec, "reference", elide=True
        )
        assert ref_profile == on_profile, f"{name}/{spec}: backend profile drift"
        assert ref_reports == on_reports, f"{name}/{spec}: backend report drift"
        assert ref_seq == on_seq, f"{name}/{spec}: backend event-seq drift"


def test_elision_actually_fires_somewhere():
    """Guard against the sweep passing vacuously: across the bundled
    corpus, eraser with elision on must skip a nonzero number of
    handler calls."""
    total_off = total_on = 0
    for name in ("bzip2", "radix", "fft"):
        workload = ALL[name]
        off, _, _ = _observe(workload, "eraser.full", "compiled", elide=False)
        on, _, _ = _observe(workload, "eraser.full", "compiled", elide=True)
        total_off += off["handler_calls"]
        total_on += on["handler_calls"]
    assert total_on < total_off


def test_interproc_mask_supersets_intra():
    """Per pair: the interprocedural tiers only ever *add* masked
    positions over the seed's intra-procedural pass."""
    from repro.staticpass import analyze_elision, policy_for

    for name in ("bzip2", "sjeng", "fft", "water_ns", "radix"):
        module = ALL[name].make_module(1)
        for spec in ("eraser.full", "fasttrack.alda", "uaf.alda"):
            policy = policy_for(build_analysis(spec))
            inter = analyze_elision(module, policy).mask
            intra = analyze_elision(
                module, dataclasses.replace(policy, interproc=False)
            ).mask
            for site, positions in intra.items():
                assert positions <= inter.get(site, frozenset()), (
                    f"{name}/{spec}: intra masked {site} but interproc lost it"
                )


def test_figure_tables_unchanged_by_elision():
    """The harness figures are built from reports and cycle ratios of
    *unelided* runs by default; flipping the default off must keep them
    byte-identical to the seed behaviour (elision is opt-in)."""
    from repro.harness.runner import measure_overhead

    workload = ALL["bzip2"]
    base = measure_overhead(workload, build_analysis("uaf.alda"), label="uaf")
    elided = measure_overhead(
        workload, build_analysis("uaf.alda"), label="uaf", elide=True
    )
    assert [dataclasses.asdict(r) for r in base.reports] == [
        dataclasses.asdict(r) for r in elided.reports
    ]
    assert elided.profile.handler_calls <= base.profile.handler_calls
    # CompileOptions carries the default; an analysis compiled with the
    # flag elides without a per-call override.
    from repro.analyses.uaf import OPTIONS, compile_

    flagged = compile_(dataclasses.replace(OPTIONS, elide_instrumentation=True))
    auto = measure_overhead(workload, flagged, label="uaf")
    assert auto.profile.handler_calls == elided.profile.handler_calls

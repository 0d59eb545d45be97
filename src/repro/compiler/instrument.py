"""Phase 4: runtime-structure construction and hook registration.

``build_maps`` materializes a :class:`LayoutPlan` into live runtime
structures (one :class:`CoalescedMap` per group, over the selected backing
structure); ``register_adapters`` installs the generated event adapters
into a VM :class:`~repro.vm.events.Hooks` table.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.compiler.layout import FieldPlan, GroupPlan, LayoutPlan
from repro.errors import CompileError
from repro.runtime.array_map import ArrayMap
from repro.runtime.bitvector import BitVecSet
from repro.runtime.hash_map import HashMap
from repro.runtime.metadata import CoalescedMap, FieldSpec, column_defaults
from repro.runtime.page_table import PageTableMap
from repro.runtime.shadow_memory import ShadowMemory
from repro.runtime.sync import SyncPolicy
from repro.runtime.tree_set import TreeSet


def _field_default(plan: FieldPlan, meter, space) -> Callable[[], object]:
    if plan.repr == "int":
        return lambda: plan.default_int
    if plan.repr == "bitvec":
        domain = plan.set_domain
        if plan.set_universe:
            return lambda: BitVecSet.universe(domain, meter)
        return lambda: BitVecSet.empty(domain, meter)
    if plan.repr == "treeset":
        if plan.set_universe:
            raise CompileError(
                f"{plan.map_name}: universe sets need a bounded element domain "
                "(add a ': N' bound to the element type)"
            )
        return lambda: TreeSet(meter, space)
    raise CompileError(f"unknown field representation {plan.repr!r}")


def _build_impl(plan: GroupPlan, meter, space, defaults):
    name = plan.group.name
    if plan.structure == "array":
        # Sparse keys (bounded lockids) are already interned to dense ids
        # at the handler boundary (see codegen), so the array indexes raw.
        return ArrayMap(
            meter,
            space,
            value_bytes=plan.value_bytes,
            domain=plan.key_domain,
            defaults=defaults,
            interner=None,
            name=name,
        )
    if plan.structure == "shadow":
        return ShadowMemory(
            meter,
            space,
            value_bytes=plan.value_bytes,
            granularity=plan.granularity,
            defaults=defaults,
            name=name,
        )
    if plan.structure == "pagetable":
        return PageTableMap(
            meter,
            space,
            value_bytes=plan.value_bytes,
            granularity=plan.granularity,
            defaults=defaults,
            name=name,
        )
    if plan.structure == "hash":
        return HashMap(
            meter,
            space,
            value_bytes=plan.value_bytes,
            granularity=plan.granularity,
            defaults=defaults,
            name=name,
        )
    raise CompileError(f"unknown structure {plan.structure!r}")


def build_maps(
    layout: LayoutPlan,
    meter,
    space,
    memo: Optional[dict],
) -> List[CoalescedMap]:
    """Instantiate every group of the layout plan as a live CoalescedMap."""
    maps: List[CoalescedMap] = []
    shared_sync: Optional[SyncPolicy] = None
    for plan in layout.groups:
        fields = [
            FieldSpec(
                name=field.map_name,
                offset=field.offset,
                size=field.size,
                kind=field.repr,
                default_factory=_field_default(field, meter, space),
            )
            for field in plan.fields
        ]
        impl = _build_impl(plan, meter, space, column_defaults(fields))
        sync = None
        if plan.group.sync:
            if shared_sync is None:
                shared_sync = SyncPolicy(meter, space, memo=memo)
            sync = shared_sync
        maps.append(
            CoalescedMap(plan.group.name, impl, fields, meter, sync=sync, memo=memo)
        )
    return maps


def register_adapters(hooks, adapters) -> None:
    """Install generated (position, hook_key, callable) adapters.

    ALDAcc inlines event handlers into the instrumented program (paper
    section 5.5), so generated adapters carry a reduced dispatch cost.
    """
    for position, hook_key, callback in adapters:
        callback.dispatch_cycles = 1
        hooks.add(position, hook_key, callback)

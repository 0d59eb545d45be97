"""Phase 2a: map coalescing (paper section 5.2).

"ALDAcc bases its coalescing of maps on the key-type of the map, merging
multiple maps with equivalent keys into a single map."  Two maps coalesce
when their key types are identical (same base primitive, same domain
bound, same sync requirement).

One refinement on top of pure key-type grouping: maps are first split
into *hot* (accessed by handlers attached to per-instruction events —
loads, stores, branches, arithmetic) and *cold* (accessed only from
call-boundary handlers such as malloc/free interceptors), and only
like-tempered maps merge.  This keeps a cold bookkeeping field (MSan's
``addr2size``) from inflating the value record of a hot byte shadow
(``addr2label``) — which is how the paper's MSan keeps a shadow factor
of 1 and an offset shadow memory (section 5.3) while Eraser's hot,
fat records land in a page table.  DESIGN.md records this as a
documented interpretation of the paper's per-"individual map" structure
choice.

With coalescing disabled each map becomes its own single-member group,
so downstream phases are uniform.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.alda.semantics import ProgramInfo
from repro.alda.types import AldaType, MapInfo
from repro.compiler.access_analysis import AccessSummary


@dataclass
class MapGroup:
    """One coalesced map: a key class plus its member ALDA-level maps."""

    name: str
    key: AldaType
    members: List[MapInfo] = field(default_factory=list)
    hot: bool = True

    @property
    def sync(self) -> bool:
        return self.key.sync


def _key_class(key: AldaType) -> Tuple[str, object, bool]:
    return (key.base, key.bound, key.sync)


def _handler_calls(statements) -> Set[str]:
    """Names called from a handler body (for the hot-handler closure)."""
    from repro.alda import ast_nodes as ast

    out: Set[str] = set()

    def expr_calls(expr) -> None:
        if isinstance(expr, ast.CallExpr):
            out.add(expr.func)
            for arg in expr.args:
                expr_calls(arg)
        elif isinstance(expr, ast.Binary):
            expr_calls(expr.lhs)
            expr_calls(expr.rhs)
        elif isinstance(expr, ast.Unary):
            expr_calls(expr.operand)
        elif isinstance(expr, ast.Index):
            expr_calls(expr.key)
        elif isinstance(expr, ast.MethodCall):
            if isinstance(expr.base, ast.Index):
                expr_calls(expr.base.key)
            for arg in expr.args:
                expr_calls(arg)

    def walk(statements) -> None:
        for statement in statements:
            if isinstance(statement, ast.If):
                expr_calls(statement.cond)
                walk(statement.then_body)
                walk(statement.else_body)
            elif isinstance(statement, ast.Return) and statement.value is not None:
                expr_calls(statement.value)
            elif isinstance(statement, ast.Assign):
                expr_calls(statement.target.key)
                expr_calls(statement.value)
            elif isinstance(statement, ast.ExprStmt):
                expr_calls(statement.expr)

    walk(statements)
    return out


def hot_maps(info: ProgramInfo, summary: AccessSummary) -> Set[str]:
    """Maps reached (transitively) from instruction-event handlers."""
    hot_handlers = {
        decl.handler for decl in info.inserts if decl.point_kind == "inst"
    }
    # Close over handler-to-handler calls: a helper called from a hot
    # handler is itself hot (the call graph is acyclic by semantics).
    worklist = list(hot_handlers)
    while worklist:
        name = worklist.pop()
        func = info.funcs.get(name)
        if func is None:
            continue
        for callee in _handler_calls(func.decl.body) & set(info.funcs):
            if callee not in hot_handlers:
                hot_handlers.add(callee)
                worklist.append(callee)

    return {
        access.map_name
        for access in summary.accesses
        if access.handler in hot_handlers
    }


def coalesce_maps(
    info: ProgramInfo,
    summary: Optional[AccessSummary] = None,
    enabled: bool = True,
) -> List[MapGroup]:
    """Group metadata maps; declaration order is preserved within groups."""
    groups: List[MapGroup] = []
    if not enabled:
        for map_info in info.maps.values():
            groups.append(
                MapGroup(name=map_info.name, key=map_info.key, members=[map_info])
            )
        return groups

    hot = (
        hot_maps(info, summary)
        if summary is not None
        else set(info.maps)
    )
    by_class: Dict[Tuple[object, ...], MapGroup] = {}
    for map_info in info.maps.values():
        is_hot = map_info.name in hot
        klass = _key_class(map_info.key) + (is_hot,)
        group = by_class.get(klass)
        if group is None:
            group = MapGroup(
                name=f"group_{map_info.key.name}", key=map_info.key, hot=is_hot
            )
            by_class[klass] = group
            groups.append(group)
        group.members.append(map_info)

    for group in groups:
        group.name = "+".join(member.name for member in group.members)
    return groups

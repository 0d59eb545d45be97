"""Phase 3b: event-handler code generation.

Compiles checked ALDA handler bodies into Python source (the generated
artifact is kept on the compiled analysis for inspection and testing —
optimization effects such as hoisted lookups are visible in the text).
The emitted module defines::

    def make_handlers(RT):          # RT: AnalysisRuntime
        M0 = RT.maps[0]             # one name per coalesced map group
        def h_<handler>(loc, a_<param>...): ...
        def mk_<N>(kind, operand_regs, result_reg, sizes, result_size, loc):
            ...                     # per-site constants, then
            def deliver(tid, shadow, ops, result, seq): ...
            return deliver
        def ad_<N>(ctx): ...        # the same insert over an EventContext
        ad_<N>.bind_site = mk_<N>
        ADAPTERS = [...]            # (position, hook_key, ad_<N>)
        return {...handlers...}, ADAPTERS

Each insert ``N`` gets two entry points.  ``mk_N`` is its site factory
(:func:`repro.vm.events.bind_site`): called once per instrumented site,
it bakes in what is static there (``sizeof($X)``, the registers behind
``$X.m`` and ``$r.m``, the location) and returns ``deliver``, which the
compiled VM and trace replay call per event.  ``deliver`` resets the
runtime's lookup memo once per event ``seq``, as
:meth:`AnalysisRuntime.begin_event` does, so fused handlers at one event
still share lookups.  ``ad_N`` takes an
:class:`~repro.vm.events.EventContext` and is what the reference
interpreter, the oracle, calls.

Cost accounting: every handler bills its static operation count once per
invocation (ALDA bodies are loop-free, so the static count bounds the
dynamic one; this matches the compiler's conservative all-branches-taken
assumption).  Metadata structure costs are billed by the runtime
structures themselves.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.alda import ast_nodes as ast
from repro.alda.printer import print_decl
from repro.alda.semantics import FuncInfo, ProgramInfo
from repro.alda.types import INTERNABLE as INTERNABLE_BASES
from repro.alda.types import SetValue
from repro.compiler.access_analysis import is_hoistable_key, key_repr
from repro.compiler.cse import plan_hoists
from repro.compiler.layout import LayoutPlan
from repro.errors import CompileError

_PY_BINOPS = {
    "+": "+",
    "-": "-",
    "*": "*",
    "/": "//",
    "%": "%",
    "&": "&",
    "|": "|",
    "^": "^",
    "==": "==",
    "!=": "!=",
    "<": "<",
    "<=": "<=",
    ">": ">",
    ">=": ">=",
}


def _expr_ops(node) -> int:
    """Operation count of one expression tree."""
    total = 0
    if isinstance(node, (ast.Binary, ast.Unary, ast.MethodCall, ast.CallExpr)):
        total += 1
    if isinstance(node, ast.Binary):
        total += _expr_ops(node.lhs) + _expr_ops(node.rhs)
    elif isinstance(node, ast.Unary):
        total += _expr_ops(node.operand)
    elif isinstance(node, ast.Index):
        total += _expr_ops(node.key)
    elif isinstance(node, ast.MethodCall):
        if isinstance(node.base, ast.Index):
            total += _expr_ops(node.base.key)
        total += sum(_expr_ops(arg) for arg in node.args)
    elif isinstance(node, ast.CallExpr):
        total += sum(_expr_ops(arg) for arg in node.args)
    return total


def _shallow_ops(statements: List[ast.Stmt]) -> int:
    """Ops executed when control reaches this block, *excluding* nested
    branch bodies — those bill themselves on entry, so untaken paths cost
    nothing (the generated code is billed like the optimized straight-line
    code an optimizing compiler emits)."""
    total = 0
    for statement in statements:
        if isinstance(statement, ast.If):
            total += 1 + _expr_ops(statement.cond)
        elif isinstance(statement, ast.Return):
            if statement.value is not None:
                total += _expr_ops(statement.value)
        elif isinstance(statement, ast.Assign):
            total += 1 + _expr_ops(statement.target.key) + _expr_ops(statement.value)
        elif isinstance(statement, ast.ExprStmt):
            total += _expr_ops(statement.expr)
    return total


class _HandlerCompiler:
    """Compiles one handler body to Python lines."""

    def __init__(
        self,
        func: FuncInfo,
        info: ProgramInfo,
        layout: LayoutPlan,
        group_of_map: Dict[str, int],
        cse_enabled: bool,
    ) -> None:
        self.func = func
        self.info = info
        self.layout = layout
        self.group_of_map = group_of_map
        self.cse_enabled = cse_enabled
        self.lines: List[str] = []
        self._temp = 0
        self._assert_count = 0
        self.hoists, self.slot_index = plan_hoists(func, group_of_map, cse_enabled)

    # -- helpers -----------------------------------------------------------
    def _fresh_temp(self) -> str:
        self._temp += 1
        return f"_t{self._temp}"

    def emit(self, indent: int, text: str) -> None:
        self.lines.append("    " * indent + text)

    def _group(self, map_name: str) -> Tuple[int, int]:
        group_index = self.group_of_map[map_name]
        field_index = self.layout.groups[group_index].field_index(map_name)
        return group_index, field_index

    def _slot_expr(self, map_name: str, key: ast.Expr, indent: int) -> str:
        """Slot for (map, key): a hoisted variable when CSE applies."""
        group_index, _ = self._group(map_name)
        if self.cse_enabled and is_hoistable_key(key):
            var = self.slot_index.get((group_index, key_repr(key)))
            if var is not None:
                return var
        return f"M{group_index}.lookup({self.expr(key, indent)})"

    # -- expressions -------------------------------------------------------
    def expr(self, node: ast.Expr, indent: int) -> str:
        if isinstance(node, ast.Num):
            return repr(node.value)
        if isinstance(node, ast.Name):
            if node.ident in self.info.consts:
                return repr(self.info.consts[node.ident])
            return f"a_{node.ident}"
        if isinstance(node, ast.Unary):
            operand = self.expr(node.operand, indent)
            if node.op == "!":
                return f"(0 if {operand} else 1)"
            return f"(-{operand})"
        if isinstance(node, ast.Binary):
            return self._binary(node, indent)
        if isinstance(node, ast.Index):
            return self._index_read(node, indent)
        if isinstance(node, ast.MethodCall):
            return self._method_expr(node, indent)
        if isinstance(node, ast.CallExpr):
            return self._call_expr(node, indent)
        raise CompileError(f"cannot compile expression {node!r}")

    def _is_set_expr(self, node: ast.Expr) -> bool:
        if isinstance(node, ast.Index):
            value = self.info.maps[node.base].value
            return isinstance(value, SetValue)
        if isinstance(node, ast.MethodCall) and isinstance(node.base, ast.Name):
            if node.method == "get":
                value = self.info.maps[node.base.ident].value
                return isinstance(value, SetValue)
        if isinstance(node, ast.Binary):
            return self._is_set_expr(node.lhs)
        return False

    def _binary(self, node: ast.Binary, indent: int) -> str:
        lhs = self.expr(node.lhs, indent)
        rhs = self.expr(node.rhs, indent)
        if node.op in ("&&", "||"):
            joiner = "and" if node.op == "&&" else "or"
            return f"({lhs} {joiner} {rhs})"
        if self._is_set_expr(node.lhs) and self._is_set_expr(node.rhs):
            method = "intersect" if node.op == "&" else "union"
            return f"{lhs}.{method}({rhs})"
        return f"({lhs} {_PY_BINOPS[node.op]} {rhs})"

    def _index_read(self, node: ast.Index, indent: int) -> str:
        group_index, field_index = self._group(node.base)
        slot = self._slot_expr(node.base, node.key, indent)
        return f"M{group_index}.load({slot}, {field_index})"

    def _method_expr(self, node: ast.MethodCall, indent: int) -> str:
        if isinstance(node.base, ast.Name):
            map_name = node.base.ident
            group_index, field_index = self._group(map_name)
            if node.method == "get":
                if len(node.args) == 2:
                    key = self.expr(node.args[0], indent)
                    length = self.expr(node.args[1], indent)
                    return f"M{group_index}.load_range({key}, {length}, {field_index})"
                slot = self._slot_expr(map_name, node.args[0], indent)
                return f"M{group_index}.load({slot}, {field_index})"
            raise CompileError(f"map.{node.method} has no value (statement only)")
        # set-valued entry methods
        group_index, field_index = self._group(node.base.base)
        slot = self._slot_expr(node.base.base, node.base.key, indent)
        value = f"M{group_index}.load({slot}, {field_index})"
        if node.method == "find":
            element = self.expr(node.args[0], indent)
            return f"(1 if {value}.contains({element}) else 0)"
        if node.method == "empty":
            return f"(1 if {value}.is_empty() else 0)"
        raise CompileError(f"set.{node.method} has no value (statement only)")

    def _call_expr(self, node: ast.CallExpr, indent: int) -> str:
        args = [self.expr(arg, indent) for arg in node.args]
        if node.func == "ptr_offset":
            return f"({args[0]} + {args[1]})"
        if node.func == "alda_assert":
            raise CompileError("alda_assert is a statement, not a value")
        if node.func in self.info.funcs:
            joined = ", ".join(["loc"] + args)
            return f"h_{node.func}({joined})"
        joined = ", ".join([repr(node.func)] + args)
        return f"RT.external({joined})"

    # -- statements ----------------------------------------------------------
    def stmt(self, node: ast.Stmt, indent: int) -> None:
        if isinstance(node, ast.If):
            self.emit(indent, f"if {self.expr(node.cond, indent)}:")
            self.block(node.then_body, indent + 1)
            if node.else_body:
                self.emit(indent, "else:")
                self.block(node.else_body, indent + 1)
            return
        if isinstance(node, ast.Return):
            if node.value is None:
                self.emit(indent, "return 0")
            else:
                self.emit(indent, f"return {self.expr(node.value, indent)}")
            return
        if isinstance(node, ast.Assign):
            group_index, field_index = self._group(node.target.base)
            slot = self._slot_expr(node.target.base, node.target.key, indent)
            value = self.expr(node.value, indent)
            self.emit(indent, f"M{group_index}.store({slot}, {field_index}, {value})")
            return
        if isinstance(node, ast.ExprStmt):
            self._expr_stmt(node.expr, indent)
            return
        raise CompileError(f"cannot compile statement {node!r}")

    def _expr_stmt(self, node: ast.Expr, indent: int) -> None:
        if isinstance(node, ast.MethodCall):
            if isinstance(node.base, ast.Name):
                self._map_method_stmt(node, indent)
                return
            if node.method in ("add", "remove"):
                self._set_mutation_stmt(node, indent)
                return
        if isinstance(node, ast.CallExpr) and node.func == "alda_assert":
            actual = self.expr(node.args[0], indent)
            expected = self.expr(node.args[1], indent)
            # Tag each assert site so two asserts in one handler at one
            # program location produce distinct (non-deduplicated) reports.
            self._assert_count += 1
            tag = f"{self.func.name}#{self._assert_count}"
            self.emit(
                indent,
                f"RT.alda_assert({actual}, {expected}, loc, {tag!r})",
            )
            return
        self.emit(indent, self.expr(node, indent))

    def _map_method_stmt(self, node: ast.MethodCall, indent: int) -> None:
        map_name = node.base.ident
        group_index, field_index = self._group(map_name)
        if node.method == "set":
            if len(node.args) == 3:
                key = self.expr(node.args[0], indent)
                value = self.expr(node.args[1], indent)
                length = self.expr(node.args[2], indent)
                self.emit(
                    indent,
                    f"M{group_index}.store_range({key}, {length}, {field_index}, {value})",
                )
            else:
                slot = self._slot_expr(map_name, node.args[0], indent)
                value = self.expr(node.args[1], indent)
                self.emit(
                    indent, f"M{group_index}.store({slot}, {field_index}, {value})"
                )
            return
        if node.method == "get":
            # value discarded; still perform the lookup for its cost
            self.emit(indent, self._method_expr(node, indent))
            return
        raise CompileError(f"unknown map method {node.method!r}")

    def _set_mutation_stmt(self, node: ast.MethodCall, indent: int) -> None:
        group_index, field_index = self._group(node.base.base)
        slot_expr = self._slot_expr(node.base.base, node.base.key, indent)
        element = self.expr(node.args[0], indent)
        temp = self._fresh_temp()
        slot_var = temp + "_slot"
        self.emit(indent, f"{slot_var} = {slot_expr}")
        self.emit(indent, f"{temp} = M{group_index}.load({slot_var}, {field_index})")
        self.emit(indent, f"{temp}.{node.method}({element})")
        self.emit(indent, f"M{group_index}.store({slot_var}, {field_index}, {temp})")

    def block(self, statements: List[ast.Stmt], indent: int, bill: bool = True) -> None:
        if not statements:
            self.emit(indent, "pass")
            return
        if bill:
            ops = _shallow_ops(statements)
            if ops:
                self.emit(indent, f"meter.cycles({ops})")
        for statement in statements:
            self.stmt(statement, indent)

    # -- whole handler ----------------------------------------------------------
    def compile(self) -> List[str]:
        params = ", ".join(["loc"] + [f"a_{name}" for name in self.func.param_names])
        self.emit(1, f"def h_{self.func.name}({params}):")
        # Intern sparse-but-bounded values (lock addresses behind a bounded
        # lockid) into dense ids at the handler boundary, the way real
        # detectors hash locks into a fixed table.
        for param, ptype in zip(self.func.decl.params, self.func.param_types):
            if ptype.bound is not None and ptype.base in INTERNABLE_BASES:
                self.emit(
                    2,
                    f"a_{param.name} = RT.intern({ptype.name!r}, {ptype.bound}, "
                    f"a_{param.name})",
                )
        for hoist in self.hoists:
            key_src = self.expr(hoist.key_expr, 2)
            self.emit(
                2,
                f"{hoist.var} = M{hoist.group_index}.lookup({key_src})"
                f"  # {hoist.key_repr}",
            )
        self.block(self.func.decl.body, 2)
        self.emit(1, "")
        return self.lines


def _adapter_arg(arg: ast.CallArg, direct: bool) -> str:
    """One call-arg as ``deliver`` (``direct``) or ``ad_N`` reads it."""
    if arg.base == "p":
        if arg.metadata or arg.sizeof:
            raise CompileError("$p cannot take .m or sizeof")
        return "*ops" if direct else "*ctx.ops"
    if arg.base == "t":
        return "tid" if direct else "ctx.tid"
    if arg.base == "r":
        if arg.sizeof:
            return "result_size" if direct else "ctx.sizeof('r')"
        if arg.metadata:
            # no register name is None, so a result-less site reads 0
            return "shadow.get(result_reg, 0)" if direct else "ctx.result_shadow"
        return "result" if direct else "ctx.result"
    index = int(arg.base)
    if arg.sizeof:
        return f"s{index}" if direct else f"ctx.sizeof({index})"
    if arg.metadata:
        return f"shadow.get(m{index}, 0)" if direct else f"ctx.operand_shadow({index})"
    return f"ops[{index - 1}]" if direct else f"ctx.ops[{index - 1}]"


def generate_module(
    info: ProgramInfo,
    layout: LayoutPlan,
    group_of_map: Dict[str, int],
    cse_enabled: bool,
    analysis_name: str,
) -> str:
    """Emit the complete generated-Python module for an analysis."""
    lines: List[str] = [
        f'"""Generated by ALDAcc for analysis {analysis_name!r}."""',
        "",
        "",
        "def make_handlers(RT):",
        "    meter = RT.meter",
    ]
    for index, plan in enumerate(layout.groups):
        lines.append(f"    M{index} = RT.maps[{index}]  # {plan.group.name}")
    if cse_enabled:
        lines.append("    memo_clear = RT._memo.clear")
    lines.append("")

    for func in info.funcs.values():
        compiler = _HandlerCompiler(func, info, layout, group_of_map, cse_enabled)
        lines.extend(compiler.compile())

    lines.append("    ADAPTERS = []")
    for position, decl in enumerate(info.inserts):
        handler = info.funcs[decl.handler]
        returns = handler.ret_type is not None and decl.position == "after"
        hook_key = (decl.point_name if decl.point_kind == "inst"
                    else f"func:{decl.point_name}")
        numbered = [arg for arg in decl.args if arg.base.isdigit()]
        # Calls are variadic: a $N past the callee's arguments fails at bind.
        reads = max((int(arg.base) for arg in numbered if not arg.metadata), default=0)
        check = ""
        if reads and (decl.point_kind == "func" or decl.point_name == "CallInst"):
            check = f"RT.check_operands({print_decl(decl)!r}, {reads}, "
        lines.append(f"    def mk_{position}(kind, operand_regs, result_reg, sizes, "
                     "result_size, loc):")
        if check:
            lines.append(f"        {check}kind, len(sizes))")
        for index in sorted({int(arg.base) for arg in numbered if arg.sizeof}):
            lines.append(f"        s{index} = sizes[{index - 1}]")
        for index in sorted({int(arg.base) for arg in numbered if arg.metadata}):
            lines.append(f"        m{index} = operand_regs[{index - 1}] "
                         f"if len(operand_regs) >= {index} else None")
        lines.append("        def deliver(tid, shadow, ops, result, seq):")
        if cse_enabled:
            lines.append("            if seq != RT._last_event_seq:")
            lines.append("                RT._last_event_seq = seq")
            lines.append("                memo_clear()")
        args = ", ".join(["loc"] + [_adapter_arg(arg, True) for arg in decl.args])
        if returns:
            # The handler's return value becomes $r's local metadata.
            lines.append(f"            value = h_{decl.handler}({args})")
            lines.append("            if result_reg is not None:")
            lines.append("                shadow[result_reg] = value")
        else:
            lines.append(f"            h_{decl.handler}({args})")
        lines.append("        return deliver")
        args = ", ".join(["ctx.loc"] + [_adapter_arg(arg, False) for arg in decl.args])
        call = f"h_{decl.handler}({args})"
        if returns:
            call = f"ctx.set_result_shadow({call})"
        lines.append(f"    def ad_{position}(ctx):")
        if check:
            lines.append(f"        {check}ctx.kind, len(ctx.ops))")
        lines.append("        RT.begin_event(ctx.seq)")
        lines.append(f"        {call}")
        lines.append(f"    ad_{position}.bind_site = mk_{position}")
        lines.append(
            f"    ADAPTERS.append(({decl.position!r}, {hook_key!r}, ad_{position}))"
        )
    handler_map = ", ".join(
        f"{name!r}: h_{name}" for name in info.funcs
    )
    lines.append(f"    return {{{handler_map}}}, ADAPTERS")
    lines.append("")
    return "\n".join(lines)

"""Semantic analysis for ALDA programs.

Enforces the language restrictions that make ALDAcc's optimizations
possible (paper sections 3.1.1 and 4.3):

* no loops, no local variables, no pointers/references — guaranteed partly
  by the grammar, partly here (names must resolve to params, consts, or
  global metadata);
* map/set operations are well-typed, and the *only* global state is the
  declared metadata;
* handler calls are non-recursive;
* insertion declarations reference real handlers with matching arity,
  use ``$r`` only with ``after``, and name known instruction kinds.

Produces a :class:`ProgramInfo` carrying resolved symbol tables for the
compiler pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.alda import ast_nodes as ast
from repro.alda.types import (
    AldaType,
    MapInfo,
    ScalarValue,
    SetValue,
    builtin_types,
    resolve_type,
)
from repro.errors import AldaTypeError
from repro.ir.instructions import INSTRUMENTABLE_KINDS

#: expression "types" during checking
_INT = "int"
_VOID = "void"

BUILTIN_FUNCTIONS = {
    "alda_assert": (2, _VOID),
    "ptr_offset": (2, _INT),
}

#: operand counts ($1..$n) available at each instruction insert point
INSTRUCTION_OPERANDS = {
    "LoadInst": 1,
    "StoreInst": 2,
    "AllocaInst": 1,
    "BranchInst": 1,
    "BinaryOperator": 2,
    "CmpInst": 2,
    "ReturnInst": 1,
    "CallInst": 8,  # variadic; allow generous indices
    "ConstInst": 1,
}


@dataclass
class FuncInfo:
    decl: ast.FuncDecl
    param_types: List[AldaType]
    ret_type: Optional[AldaType]

    @property
    def name(self) -> str:
        return self.decl.name

    @property
    def param_names(self) -> List[str]:
        return [param.name for param in self.decl.params]


@dataclass
class ProgramInfo:
    """Symbol tables produced by :func:`check_program`."""

    program: ast.Program
    types: Dict[str, AldaType] = field(default_factory=dict)
    consts: Dict[str, int] = field(default_factory=dict)
    maps: Dict[str, MapInfo] = field(default_factory=dict)
    funcs: Dict[str, FuncInfo] = field(default_factory=dict)
    inserts: List[ast.InsertDecl] = field(default_factory=list)
    externals: Set[str] = field(default_factory=set)


def _set_type(elem: AldaType) -> str:
    return f"set({elem.name})"


class _Checker:
    def __init__(self, program: ast.Program) -> None:
        self.program = program
        self.info = ProgramInfo(program, types=builtin_types())

    # ------------------------------------------------------------------
    def run(self) -> ProgramInfo:
        for decl in self.program.type_decls():
            self._declare_type(decl)
        for decl in self.program.const_decls():
            self._declare_const(decl)
        for decl in self.program.meta_decls():
            self._declare_meta(decl)
        for decl in self.program.func_decls():
            self._declare_func(decl)
        for decl in self.program.func_decls():
            self._check_func_body(self.info.funcs[decl.name])
        self._check_no_recursion()
        for decl in self.program.insert_decls():
            self._check_insert(decl)
        return self.info

    # -- declarations ----------------------------------------------------
    def _declare_type(self, decl: ast.TypeDecl) -> None:
        if decl.name in self.info.types:
            raise AldaTypeError(f"duplicate type {decl.name!r}", decl.line)
        base = resolve_type(decl.base, self.info.types, decl.line)
        if decl.bound is not None and decl.bound <= 0:
            raise AldaTypeError(f"domain bound must be positive", decl.line)
        self.info.types[decl.name] = AldaType(
            name=decl.name,
            base=base.base,
            sync=decl.sync or base.sync,
            bound=decl.bound if decl.bound is not None else base.bound,
        )

    def _declare_const(self, decl: ast.ConstDecl) -> None:
        if decl.name in self.info.consts:
            raise AldaTypeError(f"duplicate const {decl.name!r}", decl.line)
        self.info.consts[decl.name] = decl.value

    def _declare_meta(self, decl: ast.MetaDecl) -> None:
        if decl.name in self.info.maps:
            raise AldaTypeError(f"duplicate metadata {decl.name!r}", decl.line)
        mtype = decl.mtype
        universe = mtype.specifier == "universe"
        shape = mtype.shape
        if isinstance(shape, ast.MapType):
            key = resolve_type(shape.key, self.info.types, decl.line)
            value = self._resolve_value(shape.value, decl)
            self.info.maps[decl.name] = MapInfo(
                name=decl.name, key=key, value=value, universe=universe
            )
        elif isinstance(shape, ast.SetType):
            raise AldaTypeError(
                f"standalone set {decl.name!r}: wrap sets in a map "
                "(e.g. map(threadid, set(...))) so they are keyed metadata",
                decl.line,
            )
        else:
            raise AldaTypeError(
                f"metadata {decl.name!r} must be a map; bare scalars have no "
                "program value to associate with",
                decl.line,
            )

    def _resolve_value(self, value_type: ast.MetaType, decl: ast.MetaDecl):
        universe = value_type.specifier == "universe"
        shape = value_type.shape
        if isinstance(shape, ast.SetType):
            elem = resolve_type(shape.elem, self.info.types, decl.line)
            return SetValue(elem=elem, universe=universe)
        if isinstance(shape, ast.MapType):
            raise AldaTypeError(
                f"metadata {decl.name!r}: nested map values are not supported "
                "by this compiler; use an external handle (see FastTrack's "
                "vector clocks) — paper section 4.3 escape hatch",
                decl.line,
            )
        return ScalarValue(type=resolve_type(shape, self.info.types, decl.line))

    def _declare_func(self, decl: ast.FuncDecl) -> None:
        if decl.name in self.info.funcs:
            raise AldaTypeError(f"duplicate handler {decl.name!r}", decl.line)
        if decl.name in self.info.maps or decl.name in self.info.consts:
            raise AldaTypeError(f"{decl.name!r} already names metadata", decl.line)
        param_types = [
            resolve_type(param.type_name, self.info.types, param.line)
            for param in decl.params
        ]
        seen = set()
        for param in decl.params:
            if param.name in seen:
                raise AldaTypeError(f"duplicate parameter {param.name!r}", param.line)
            seen.add(param.name)
        ret_type = (
            resolve_type(decl.ret_type, self.info.types, decl.line)
            if decl.ret_type
            else None
        )
        self.info.funcs[decl.name] = FuncInfo(decl, param_types, ret_type)

    # -- handler bodies -----------------------------------------------------
    def _check_func_body(self, func: FuncInfo) -> None:
        scope = set(func.param_names)
        for statement in func.decl.body:
            self._check_stmt(statement, func, scope)

    def _check_stmt(self, statement: ast.Stmt, func: FuncInfo, scope: Set[str]) -> None:
        if isinstance(statement, ast.If):
            cond = self._check_expr(statement.cond, func, scope)
            if cond == _VOID:
                raise AldaTypeError("void expression in condition", statement.line)
            for child in statement.then_body:
                self._check_stmt(child, func, scope)
            for child in statement.else_body:
                self._check_stmt(child, func, scope)
            return
        if isinstance(statement, ast.Return):
            if func.ret_type is None:
                if statement.value is not None:
                    raise AldaTypeError(
                        f"{func.name} returns a value but declares none",
                        statement.line,
                    )
                return
            if statement.value is None:
                raise AldaTypeError(
                    f"{func.name} must return a {func.ret_type.name}", statement.line
                )
            value = self._check_expr(statement.value, func, scope)
            if value != _INT:
                raise AldaTypeError(
                    f"{func.name} must return a scalar, got {value}", statement.line
                )
            return
        if isinstance(statement, ast.Assign):
            self._check_assign(statement, func, scope)
            return
        if isinstance(statement, ast.ExprStmt):
            self._check_expr(statement.expr, func, scope)
            return
        raise AldaTypeError(f"unknown statement {statement!r}", statement.line)

    def _check_assign(self, statement: ast.Assign, func: FuncInfo, scope: Set[str]) -> None:
        target_type = self._check_index(statement.target, func, scope)
        value_type = self._check_expr(statement.value, func, scope)
        if target_type == _INT:
            if value_type != _INT:
                raise AldaTypeError(
                    f"assigning {value_type} into scalar map entry", statement.line
                )
        elif target_type != value_type:
            raise AldaTypeError(
                f"assigning {value_type} into {target_type} map entry", statement.line
            )

    # -- expressions -----------------------------------------------------------
    def _check_expr(self, expr: ast.Expr, func: FuncInfo, scope: Set[str]) -> str:
        if isinstance(expr, ast.Num):
            return _INT
        if isinstance(expr, ast.Name):
            return self._check_name(expr, scope)
        if isinstance(expr, ast.Unary):
            operand = self._check_expr(expr.operand, func, scope)
            if operand != _INT:
                raise AldaTypeError(f"unary {expr.op!r} needs a scalar", expr.line)
            return _INT
        if isinstance(expr, ast.Binary):
            return self._check_binary(expr, func, scope)
        if isinstance(expr, ast.Index):
            return self._check_index(expr, func, scope)
        if isinstance(expr, ast.MethodCall):
            return self._check_method(expr, func, scope)
        if isinstance(expr, ast.CallExpr):
            return self._check_call(expr, func, scope)
        raise AldaTypeError(f"unknown expression {expr!r}", getattr(expr, "line", 0))

    def _check_name(self, expr: ast.Name, scope: Set[str]) -> str:
        if expr.ident in scope:
            return _INT
        if expr.ident in self.info.consts:
            return _INT
        if expr.ident in self.info.maps:
            raise AldaTypeError(
                f"map {expr.ident!r} used as a value (index it or call a method)",
                expr.line,
            )
        raise AldaTypeError(
            f"unknown name {expr.ident!r} (ALDA has no local variables)", expr.line
        )

    def _check_binary(self, expr: ast.Binary, func: FuncInfo, scope: Set[str]) -> str:
        lhs = self._check_expr(expr.lhs, func, scope)
        rhs = self._check_expr(expr.rhs, func, scope)
        if lhs == _VOID or rhs == _VOID:
            raise AldaTypeError("void value in expression", expr.line)
        both_sets = lhs.startswith("set(") and rhs.startswith("set(")
        if both_sets:
            if lhs != rhs:
                raise AldaTypeError(f"set type mismatch: {lhs} vs {rhs}", expr.line)
            if expr.op not in ("&", "|"):
                raise AldaTypeError(
                    f"operator {expr.op!r} not defined on sets (only & and |)",
                    expr.line,
                )
            return lhs
        if lhs.startswith("set(") or rhs.startswith("set("):
            raise AldaTypeError(
                f"cannot mix set and scalar in {expr.op!r}", expr.line
            )
        return _INT

    def _map_for(self, name: str, line: int) -> MapInfo:
        map_info = self.info.maps.get(name)
        if map_info is None:
            raise AldaTypeError(f"unknown metadata map {name!r}", line)
        return map_info

    def _check_index(self, expr: ast.Index, func: FuncInfo, scope: Set[str]) -> str:
        map_info = self._map_for(expr.base, expr.line)
        key_type = self._check_expr(expr.key, func, scope)
        if key_type != _INT:
            raise AldaTypeError(f"map key must be scalar, got {key_type}", expr.line)
        if isinstance(map_info.value, SetValue):
            return _set_type(map_info.value.elem)
        return _INT

    def _check_method(self, expr: ast.MethodCall, func: FuncInfo, scope: Set[str]) -> str:
        arg_types = [self._check_expr(arg, func, scope) for arg in expr.args]
        if isinstance(expr.base, ast.Name):
            return self._check_map_method(expr, arg_types)
        return self._check_set_method(expr, arg_types, func, scope)

    def _check_map_method(self, expr: ast.MethodCall, arg_types: List[str]) -> str:
        map_info = self._map_for(expr.base.ident, expr.line)
        value_is_set = isinstance(map_info.value, SetValue)
        value_type = _set_type(map_info.value.elem) if value_is_set else _INT
        if expr.method == "get":
            if len(arg_types) not in (1, 2):
                raise AldaTypeError("map.get takes (k) or (k, n)", expr.line)
            if any(t != _INT for t in arg_types):
                raise AldaTypeError("map.get arguments must be scalars", expr.line)
            if len(arg_types) == 2 and value_is_set:
                raise AldaTypeError(
                    "range map.get is only defined for scalar values", expr.line
                )
            return value_type
        if expr.method == "set":
            if len(arg_types) not in (2, 3):
                raise AldaTypeError("map.set takes (k, v) or (k, v, n)", expr.line)
            if arg_types[0] != _INT:
                raise AldaTypeError("map.set key must be a scalar", expr.line)
            if arg_types[1] != value_type:
                raise AldaTypeError(
                    f"map.set value must be {value_type}, got {arg_types[1]}",
                    expr.line,
                )
            if len(arg_types) == 3:
                if value_is_set:
                    raise AldaTypeError(
                        "range map.set is only defined for scalar values", expr.line
                    )
                if arg_types[2] != _INT:
                    raise AldaTypeError("map.set length must be a scalar", expr.line)
            return _VOID
        raise AldaTypeError(
            f"unknown map method {expr.method!r} (only get/set)", expr.line
        )

    def _check_set_method(
        self, expr: ast.MethodCall, arg_types: List[str], func: FuncInfo, scope: Set[str]
    ) -> str:
        base_type = self._check_index(expr.base, func, scope)
        if not base_type.startswith("set("):
            raise AldaTypeError(
                f"method {expr.method!r} on non-set map entry", expr.line
            )
        if expr.method in ("add", "remove", "find"):
            if len(arg_types) != 1 or arg_types[0] != _INT:
                raise AldaTypeError(
                    f"set.{expr.method} takes one scalar element", expr.line
                )
            return _INT if expr.method == "find" else _VOID
        if expr.method == "empty":
            if arg_types:
                raise AldaTypeError("set.empty takes no arguments", expr.line)
            return _INT
        raise AldaTypeError(
            f"unknown set method {expr.method!r} (add/remove/find/empty)", expr.line
        )

    def _check_call(self, expr: ast.CallExpr, func: FuncInfo, scope: Set[str]) -> str:
        arg_types = [self._check_expr(arg, func, scope) for arg in expr.args]
        if any(t == _VOID for t in arg_types):
            raise AldaTypeError("void value passed as argument", expr.line)

        builtin = BUILTIN_FUNCTIONS.get(expr.func)
        if builtin is not None:
            arity, result = builtin
            if len(arg_types) != arity:
                raise AldaTypeError(
                    f"{expr.func} takes {arity} arguments", expr.line
                )
            return result

        callee = self.info.funcs.get(expr.func)
        if callee is not None:
            if len(arg_types) != len(callee.param_types):
                raise AldaTypeError(
                    f"{expr.func} takes {len(callee.param_types)} arguments",
                    expr.line,
                )
            if any(t != _INT for t in arg_types):
                raise AldaTypeError(
                    "handler arguments must be scalars", expr.line
                )
            return _INT if callee.ret_type is not None else _VOID

        # Unknown name: the external-function escape hatch (section 4.3).
        if any(t != _INT for t in arg_types):
            raise AldaTypeError(
                f"external {expr.func!r} arguments must be scalars", expr.line
            )
        self.info.externals.add(expr.func)
        return _INT

    # -- recursion ---------------------------------------------------------
    def _check_no_recursion(self) -> None:
        edges: Dict[str, Set[str]] = {name: set() for name in self.info.funcs}

        def collect(expr, out: Set[str]) -> None:
            if isinstance(expr, ast.CallExpr):
                if expr.func in self.info.funcs:
                    out.add(expr.func)
                for arg in expr.args:
                    collect(arg, out)
            elif isinstance(expr, ast.Binary):
                collect(expr.lhs, out)
                collect(expr.rhs, out)
            elif isinstance(expr, ast.Unary):
                collect(expr.operand, out)
            elif isinstance(expr, ast.Index):
                collect(expr.key, out)
            elif isinstance(expr, ast.MethodCall):
                if isinstance(expr.base, ast.Index):
                    collect(expr.base.key, out)
                for arg in expr.args:
                    collect(arg, out)

        def walk(statements, out: Set[str]) -> None:
            for statement in statements:
                if isinstance(statement, ast.If):
                    collect(statement.cond, out)
                    walk(statement.then_body, out)
                    walk(statement.else_body, out)
                elif isinstance(statement, ast.Return) and statement.value is not None:
                    collect(statement.value, out)
                elif isinstance(statement, ast.Assign):
                    collect(statement.target.key, out)
                    collect(statement.value, out)
                elif isinstance(statement, ast.ExprStmt):
                    collect(statement.expr, out)

        for name, func in self.info.funcs.items():
            walk(func.decl.body, edges[name])

        WHITE, GRAY, BLACK = 0, 1, 2
        color = {name: WHITE for name in edges}

        def dfs(name: str, path: List[str]) -> None:
            color[name] = GRAY
            for callee in edges[name]:
                if color[callee] == GRAY:
                    cycle = " -> ".join(path + [name, callee])
                    raise AldaTypeError(f"recursive handler calls: {cycle}")
                if color[callee] == WHITE:
                    dfs(callee, path + [name])
            color[name] = BLACK

        for name in edges:
            if color[name] == WHITE:
                dfs(name, [])

    # -- insertion declarations ----------------------------------------------
    def _check_insert(self, decl: ast.InsertDecl) -> None:
        handler = self.info.funcs.get(decl.handler)
        if handler is None:
            raise AldaTypeError(
                f"insertion references unknown handler {decl.handler!r}", decl.line
            )
        if decl.point_kind == "inst" and decl.point_name not in INSTRUMENTABLE_KINDS:
            raise AldaTypeError(
                f"unknown instruction kind {decl.point_name!r} "
                f"(expected one of {sorted(INSTRUMENTABLE_KINDS)})",
                decl.line,
            )
        has_splat = any(arg.base == "p" for arg in decl.args)
        if not has_splat and len(decl.args) != len(handler.param_types):
            raise AldaTypeError(
                f"handler {decl.handler} takes {len(handler.param_types)} "
                f"arguments, insertion passes {len(decl.args)}",
                decl.line,
            )
        if has_splat and len(decl.args) - 1 > len(handler.param_types):
            raise AldaTypeError(
                f"handler {decl.handler} cannot receive $p plus "
                f"{len(decl.args) - 1} fixed arguments",
                decl.line,
            )
        max_operands = (
            INSTRUCTION_OPERANDS.get(decl.point_name, 8)
            if decl.point_kind == "inst"
            else 8
        )
        for arg in decl.args:
            if arg.base == "r":
                # sizeof($r) is static (the instruction's result width) and
                # legal anywhere; the result *value* only exists after.
                if decl.position != "after" and not arg.sizeof:
                    raise AldaTypeError(
                        "$r is only available in 'after' insertions", decl.line
                    )
            elif arg.base.isdigit():
                index = int(arg.base)
                if index < 1 or index > max_operands:
                    raise AldaTypeError(
                        f"${index} out of range for {decl.point_name} "
                        f"(has {max_operands} operands)",
                        decl.line,
                    )
            elif arg.base not in ("p", "t"):
                raise AldaTypeError(f"bad call-arg ${arg.base}", decl.line)
        self.info.inserts.append(decl)


def check_program(program: ast.Program) -> ProgramInfo:
    """Type-check and resolve an ALDA program."""
    return _Checker(program).run()

"""AST-based read/write-set inference for smart contracts.

The runtime :class:`~repro.blockchain.contracts.StateView` records the
*concrete* keys one invocation touched; this module predicts, before any
transaction runs, the *shape* of every handler's footprint — which keys
an event can read and write as :class:`KeyPattern` templates such as
``asset/{creator}/6`` or ``item/{arg:item_id}``.

The inference is a symbolic abstract interpretation of the handler
bodies:

* ``ctx.view.get/put/exists`` calls record reads/writes; the key
  expression is partially evaluated (constants fold, f-strings become
  patterns, ``ctx.creator``/``payload[...]`` become tagged symbols).
* ``self._helper(...)`` calls are inlined with their arguments bound,
  so ``self._put(ctx, player, AssetId.HEALTH, v)`` resolves through the
  helper's f-string to ``asset/{creator}/1``.
* Module-level key helpers (``asset_key``, ``item_key``, ...) resolved
  through the contract module's namespace are inlined the same way.
* Both arms of unresolvable conditionals are explored and unioned, so
  the result over-approximates: inferred footprints are a *superset* of
  any runtime footprint (the property the differential test checks).

Every footprint also carries the runtime wrapper's replay-defence
marker ``~nonce/{creator}/{nonce}`` (read + write), which
:func:`~repro.blockchain.contracts.execute_transaction` adds around
every invocation.
"""

from __future__ import annotations

import ast
import inspect
import sys
import textwrap
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from .symbols import KeyPattern, Sym, SymKind, make_pattern

__all__ = ["Footprint", "infer_footprints", "RUNTIME_NONCE_READS", "RUNTIME_NONCE_WRITES"]

#: Cap on pattern fan-out per key expression and loop unrolling.
_MAX_PATTERNS = 64
_MAX_UNROLL = 64
_MAX_INLINE_DEPTH = 10
_MAX_INLINE_STATEMENTS = 120

#: The replay-defence marker the contract runtime touches around every
#: invocation (`execute_transaction` reads it, then writes it).
_NONCE_PATTERN = make_pattern(
    ["~nonce/", Sym("creator", SymKind.CREATOR), "/", Sym("nonce", SymKind.NONCE)]
)
RUNTIME_NONCE_READS = (_NONCE_PATTERN,)
RUNTIME_NONCE_WRITES = (_NONCE_PATTERN,)


@dataclass(frozen=True)
class Footprint:
    """The statically inferred key footprint of one handler."""

    handler: str
    reads: Tuple[KeyPattern, ...]
    writes: Tuple[KeyPattern, ...]

    def read_covers(self, key: str) -> bool:
        return any(p.covers(key) for p in self.reads)

    def write_covers(self, key: str) -> bool:
        return any(p.covers(key) for p in self.writes)

    def to_json(self) -> dict:
        return {
            "handler": self.handler,
            "reads": sorted(str(p) for p in self.reads),
            "writes": sorted(str(p) for p in self.writes),
        }


# ----------------------------------------------------------------------
# symbolic values

class _Marker:
    def __init__(self, label: str):
        self.label = label

    def __repr__(self) -> str:
        return f"<{self.label}>"


_SELF = _Marker("self")
_CTX = _Marker("ctx")
_VIEW = _Marker("view")
_PAYLOAD = _Marker("payload")
_UNKNOWN = _Marker("unknown")


@dataclass(frozen=True)
class _Lit:
    value: Any


@dataclass(frozen=True)
class _SymV:
    sym: Sym


@dataclass(frozen=True)
class _PatternV:
    pattern: KeyPattern


class _UnionV:
    def __init__(self, members: Sequence[Any]):
        seen: Dict[str, Any] = {}
        for member in members:
            if isinstance(member, _UnionV):
                for inner in member.members:
                    seen.setdefault(_vkey(inner), inner)
            else:
                seen.setdefault(_vkey(member), member)
        self.members: List[Any] = list(seen.values())


@dataclass(frozen=True)
class _ObjV:
    """A live Python object resolved from the module namespace."""

    obj: Any


@dataclass(frozen=True)
class _MethodV:
    """A reference to a method of the analyzed class (for inlining)."""

    node: ast.FunctionDef
    env: Optional[dict]


@dataclass(frozen=True)
class _FuncV:
    """A module-level function we may inline."""

    node: ast.FunctionDef
    env: Optional[dict]


def _vkey(value: Any) -> str:
    if isinstance(value, _Lit):
        return f"lit:{value.value!r}"
    if isinstance(value, _SymV):
        return f"sym:{value.sym.name}:{value.sym.kind}"
    if isinstance(value, _PatternV):
        return f"pat:{value.pattern}"
    return f"other:{id(value)}"


def _union(members: Sequence[Any]) -> Any:
    u = _UnionV(members)
    if len(u.members) == 1:
        return u.members[0]
    return u


def _wrap_object(obj: Any) -> Any:
    if obj is None or isinstance(obj, (str, int, float, bool, tuple, frozenset)):
        return _Lit(obj)
    return _ObjV(obj)


# ----------------------------------------------------------------------
# class model

@dataclass
class _ClassInfo:
    name: str
    node: ast.ClassDef
    methods: Dict[str, ast.FunctionDef]
    consts: Dict[str, Any]  # class attrs + __init__ parameter defaults
    env: Optional[dict]


def _literal(node: ast.AST) -> Tuple[bool, Any]:
    try:
        return True, ast.literal_eval(node)
    except (ValueError, TypeError, SyntaxError, MemoryError):
        return False, None


def _build_class_info(node: ast.ClassDef, env: Optional[dict]) -> _ClassInfo:
    methods: Dict[str, ast.FunctionDef] = {}
    consts: Dict[str, Any] = {}
    for stmt in node.body:
        if isinstance(stmt, ast.FunctionDef):
            methods[stmt.name] = stmt
        elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            if isinstance(target, ast.Name):
                ok, value = _literal(stmt.value)
                if ok:
                    consts[target.id] = value
    # Instance attributes assigned verbatim from __init__ parameters take
    # the parameter's default (e.g. ``split_kvs=True``): the analyzer
    # assumes the default deployment configuration.
    init = methods.get("__init__")
    if init is not None:
        defaults: Dict[str, Any] = {}
        args = init.args
        positional = args.args[1:]  # drop self
        for arg, default in zip(
            positional[len(positional) - len(args.defaults):], args.defaults
        ):
            ok, value = _literal(default)
            if ok:
                defaults[arg.arg] = value
        for kwarg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                ok, value = _literal(default)
                if ok:
                    defaults[kwarg.arg] = value
        for stmt in init.body:
            if (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Attribute)
                and isinstance(stmt.targets[0].value, ast.Name)
                and stmt.targets[0].value.id == "self"
            ):
                attr = stmt.targets[0].attr
                ok, value = _literal(stmt.value)
                if ok:
                    consts.setdefault(attr, value)
                elif isinstance(stmt.value, ast.Name) and stmt.value.id in defaults:
                    consts.setdefault(attr, defaults[stmt.value.id])
    return _ClassInfo(name=node.name, node=node, methods=methods, consts=consts, env=env)


# ----------------------------------------------------------------------
# the abstract interpreter

class _Analyzer:
    def __init__(self, info: _ClassInfo):
        self.info = info
        self.reads: Dict[str, KeyPattern] = {}
        self.writes: Dict[str, KeyPattern] = {}
        self._depth = 0

    # -- entry ----------------------------------------------------------

    def run_handler(self, method: ast.FunctionDef) -> None:
        bind: Dict[str, Any] = {}
        params = [a.arg for a in method.args.args]
        roles = [_SELF, _CTX, _PAYLOAD]
        for name, role in zip(params, roles):
            bind[name] = role
        for name in params[len(roles):]:
            bind[name] = _SymV(Sym(f"param:{name}", SymKind.ARG))
        collector: List[Any] = []
        self._exec_block(method.body, bind, self.info.env, collector)

    def footprint(self, handler: str) -> Footprint:
        reads = dict(self.reads)
        writes = dict(self.writes)
        for pattern in RUNTIME_NONCE_READS:
            reads.setdefault(str(pattern), pattern)
        for pattern in RUNTIME_NONCE_WRITES:
            writes.setdefault(str(pattern), pattern)
        return Footprint(
            handler=handler,
            reads=tuple(reads.values()),
            writes=tuple(writes.values()),
        )

    # -- footprint recording -------------------------------------------

    def _patterns_of(self, value: Any) -> List[KeyPattern]:
        if isinstance(value, _Lit):
            return [make_pattern([str(value.value)])]
        if isinstance(value, _SymV):
            return [make_pattern([value.sym])]
        if isinstance(value, _PatternV):
            return [value.pattern]
        if isinstance(value, _UnionV):
            out: List[KeyPattern] = []
            for member in value.members:
                out.extend(self._patterns_of(member))
                if len(out) >= _MAX_PATTERNS:
                    break
            return out[:_MAX_PATTERNS]
        return [make_pattern([Sym("?", SymKind.UNKNOWN)])]

    def _record(self, table: Dict[str, KeyPattern], key_value: Any) -> None:
        for pattern in self._patterns_of(key_value):
            table.setdefault(str(pattern), pattern)

    # -- statement execution -------------------------------------------

    def _exec_block(
        self,
        stmts: Sequence[ast.stmt],
        bind: Dict[str, Any],
        env: Optional[dict],
        returns: List[Any],
    ) -> bool:
        """Execute statements; True if every path through them returns
        or raises (used to prune code after a definite exit)."""
        for stmt in stmts:
            if self._exec_stmt(stmt, bind, env, returns):
                return True
        return False

    def _exec_stmt(
        self, stmt: ast.stmt, bind: Dict[str, Any], env: Optional[dict], returns: List[Any]
    ) -> bool:
        if isinstance(stmt, ast.Return):
            returns.append(
                self._eval(stmt.value, bind, env) if stmt.value is not None else _Lit(None)
            )
            return True
        if isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self._eval(stmt.exc, bind, env)
            return True
        if isinstance(stmt, ast.Expr):
            self._eval(stmt.value, bind, env)
            return False
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            self._exec_assign(stmt, bind, env)
            return False
        if isinstance(stmt, ast.If):
            return self._exec_if(stmt, bind, env, returns)
        if isinstance(stmt, ast.For):
            self._exec_for(stmt, bind, env, returns)
            return False
        if isinstance(stmt, ast.While):
            self._eval(stmt.test, bind, env)
            branch = dict(bind)
            self._exec_block(stmt.body, branch, env, returns)
            self._merge(bind, branch)
            return False
        if isinstance(stmt, ast.Try):
            self._exec_block(stmt.body, bind, env, returns)
            for handler in stmt.handlers:
                branch = dict(bind)
                self._exec_block(handler.body, branch, env, returns)
                self._merge(bind, branch)
            self._exec_block(stmt.orelse, bind, env, returns)
            self._exec_block(stmt.finalbody, bind, env, returns)
            return False
        if isinstance(stmt, ast.With):
            for item in stmt.items:
                self._eval(item.context_expr, bind, env)
            return self._exec_block(stmt.body, bind, env, returns)
        if isinstance(stmt, ast.Assert):
            self._eval(stmt.test, bind, env)
            return False
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bind[stmt.name] = _UNKNOWN
            return False
        return False

    def _exec_assign(self, stmt: ast.stmt, bind: Dict[str, Any], env: Optional[dict]) -> None:
        if isinstance(stmt, ast.AugAssign):
            self._eval(stmt.value, bind, env)
            if isinstance(stmt.target, ast.Name):
                bind[stmt.target.id] = _SymV(Sym(f"acc:{stmt.target.id}", SymKind.UNKNOWN))
            return
        value_node = stmt.value
        if value_node is None:  # bare annotation
            return
        value = self._eval(value_node, bind, env)
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        for target in targets:
            self._bind_target(target, value, bind)

    def _bind_target(self, target: ast.AST, value: Any, bind: Dict[str, Any]) -> None:
        if isinstance(target, ast.Name):
            bind[target.id] = value
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            elements = None
            if isinstance(value, _Lit) and isinstance(value.value, (tuple, list)):
                if len(value.value) == len(target.elts):
                    elements = [_Lit(v) for v in value.value]
            for i, elt in enumerate(target.elts):
                if elements is not None:
                    self._bind_target(elt, elements[i], bind)
                elif isinstance(elt, ast.Name):
                    bind[elt.id] = _SymV(Sym(f"unpack:{elt.id}", SymKind.UNKNOWN))

    def _exec_if(
        self, stmt: ast.If, bind: Dict[str, Any], env: Optional[dict], returns: List[Any]
    ) -> bool:
        truth = self._truth(self._eval(stmt.test, bind, env))
        if truth is True:
            return self._exec_block(stmt.body, bind, env, returns)
        if truth is False:
            return self._exec_block(stmt.orelse, bind, env, returns)
        then_bind = dict(bind)
        else_bind = dict(bind)
        t_term = self._exec_block(stmt.body, then_bind, env, returns)
        e_term = self._exec_block(stmt.orelse, else_bind, env, returns)
        if t_term and not e_term:
            bind.clear()
            bind.update(else_bind)
            return False
        if e_term and not t_term:
            bind.clear()
            bind.update(then_bind)
            return False
        self._merge_into(bind, then_bind, else_bind)
        return t_term and e_term

    def _exec_for(
        self, stmt: ast.For, bind: Dict[str, Any], env: Optional[dict], returns: List[Any]
    ) -> None:
        iterable = self._eval(stmt.iter, bind, env)
        concrete: Optional[List[Any]] = None
        if isinstance(iterable, _Lit) and isinstance(iterable.value, (list, tuple)):
            if len(iterable.value) <= _MAX_UNROLL:
                concrete = [_Lit(v) for v in iterable.value]
        elif isinstance(iterable, _Lit) and isinstance(iterable.value, dict):
            if len(iterable.value) <= _MAX_UNROLL:
                concrete = [_Lit(k) for k in iterable.value]
        if concrete is not None:
            for element in concrete:
                body_bind = dict(bind)
                self._bind_target(stmt.target, element, body_bind)
                self._exec_block(stmt.body, body_bind, env, returns)
                self._merge(bind, body_bind)
        else:
            body_bind = dict(bind)
            self._bind_target(
                stmt.target, _SymV(Sym("loop", SymKind.UNKNOWN)), body_bind
            )
            self._exec_block(stmt.body, body_bind, env, returns)
            self._merge(bind, body_bind)
        self._exec_block(stmt.orelse, bind, env, returns)

    def _merge(self, into: Dict[str, Any], branch: Dict[str, Any]) -> None:
        for name, value in branch.items():
            if name in into and _vkey(into[name]) != _vkey(value):
                into[name] = _union([into[name], value])
            else:
                into[name] = value

    def _merge_into(
        self, bind: Dict[str, Any], a: Dict[str, Any], b: Dict[str, Any]
    ) -> None:
        bind.clear()
        for name in set(a) | set(b):
            if name in a and name in b:
                if _vkey(a[name]) == _vkey(b[name]):
                    bind[name] = a[name]
                else:
                    bind[name] = _union([a[name], b[name]])
            else:
                bind[name] = a.get(name, b.get(name))

    # -- expression evaluation -----------------------------------------

    def _truth(self, value: Any) -> Optional[bool]:
        if isinstance(value, _Lit):
            try:
                return bool(value.value)
            except Exception:
                return None
        return None

    def _eval(self, node: Optional[ast.AST], bind: Dict[str, Any], env: Optional[dict]) -> Any:
        if node is None:
            return _Lit(None)
        handler = getattr(self, f"_eval_{type(node).__name__}", None)
        if handler is not None:
            return handler(node, bind, env)
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._eval(child, bind, env)
        return _UNKNOWN

    def _eval_Constant(self, node: ast.Constant, bind, env) -> Any:
        return _Lit(node.value)

    def _eval_Name(self, node: ast.Name, bind, env) -> Any:
        if node.id in bind:
            return bind[node.id]
        if env is not None and node.id in env:
            return _wrap_object(env[node.id])
        return _SymV(Sym(node.id, SymKind.UNKNOWN))

    def _eval_Tuple(self, node: ast.Tuple, bind, env) -> Any:
        values = [self._eval(e, bind, env) for e in node.elts]
        if all(isinstance(v, _Lit) for v in values):
            return _Lit(tuple(v.value for v in values))
        return _UNKNOWN

    _eval_List = _eval_Tuple

    def _eval_Dict(self, node: ast.Dict, bind, env) -> Any:
        keys = [self._eval(k, bind, env) for k in node.keys if k is not None]
        values = [self._eval(v, bind, env) for v in node.values]
        if len(keys) == len(values) and all(
            isinstance(v, _Lit) for v in keys + values
        ):
            try:
                return _Lit({k.value: v.value for k, v in zip(keys, values)})
            except TypeError:
                return _UNKNOWN
        return _UNKNOWN

    def _eval_Set(self, node: ast.Set, bind, env) -> Any:
        for e in node.elts:
            self._eval(e, bind, env)
        return _UNKNOWN

    def _eval_Starred(self, node: ast.Starred, bind, env) -> Any:
        return self._eval(node.value, bind, env)

    def _eval_NamedExpr(self, node, bind, env) -> Any:
        value = self._eval(node.value, bind, env)
        if isinstance(node.target, ast.Name):
            bind[node.target.id] = value
        return value

    def _eval_IfExp(self, node: ast.IfExp, bind, env) -> Any:
        truth = self._truth(self._eval(node.test, bind, env))
        if truth is True:
            return self._eval(node.body, bind, env)
        if truth is False:
            return self._eval(node.orelse, bind, env)
        return _union([self._eval(node.body, bind, env), self._eval(node.orelse, bind, env)])

    def _eval_BoolOp(self, node: ast.BoolOp, bind, env) -> Any:
        values = [self._eval(v, bind, env) for v in node.values]
        if all(isinstance(v, _Lit) for v in values):
            try:
                raw = [v.value for v in values]
                if isinstance(node.op, ast.And):
                    result = raw[0]
                    for value in raw[1:]:
                        result = result and value
                else:
                    result = raw[0]
                    for value in raw[1:]:
                        result = result or value
                return _Lit(result)
            except Exception:
                return _UNKNOWN
        # `x or default` with a symbolic x: either side may be the value.
        if isinstance(node.op, ast.Or) and len(values) == 2:
            return _union(values)
        return _UNKNOWN

    def _eval_UnaryOp(self, node: ast.UnaryOp, bind, env) -> Any:
        operand = self._eval(node.operand, bind, env)
        if isinstance(operand, _Lit):
            try:
                if isinstance(node.op, ast.Not):
                    return _Lit(not operand.value)
                if isinstance(node.op, ast.USub):
                    return _Lit(-operand.value)
                if isinstance(node.op, ast.UAdd):
                    return _Lit(+operand.value)
            except Exception:
                return _UNKNOWN
        return _UNKNOWN

    def _eval_Compare(self, node: ast.Compare, bind, env) -> Any:
        left = self._eval(node.left, bind, env)
        rights = [self._eval(c, bind, env) for c in node.comparators]
        if isinstance(left, _Lit) and all(isinstance(r, _Lit) for r in rights):
            try:
                current = left.value
                for op, right in zip(node.ops, rights):
                    ok = _COMPARE_OPS[type(op)](current, right.value)
                    if not ok:
                        return _Lit(False)
                    current = right.value
                return _Lit(True)
            except Exception:
                return _UNKNOWN
        return _UNKNOWN

    def _eval_BinOp(self, node: ast.BinOp, bind, env) -> Any:
        left = self._eval(node.left, bind, env)
        right = self._eval(node.right, bind, env)
        if isinstance(left, _Lit) and isinstance(right, _Lit):
            try:
                return _Lit(_BIN_OPS[type(node.op)](left.value, right.value))
            except Exception:
                return _UNKNOWN
        if isinstance(node.op, ast.Add):
            # string concatenation building a key
            parts = self._concat_parts(left) + self._concat_parts(right)
            if parts is not None and any(isinstance(p, Sym) for p in parts):
                return _PatternV(make_pattern(parts))
        return _UNKNOWN

    def _concat_parts(self, value: Any) -> List[Any]:
        if isinstance(value, _Lit):
            return [str(value.value)]
        if isinstance(value, _SymV):
            return [value.sym]
        if isinstance(value, _PatternV):
            return list(value.pattern.parts)
        return [Sym("?", SymKind.UNKNOWN)]

    def _eval_JoinedStr(self, node: ast.JoinedStr, bind, env) -> Any:
        variants: List[List[Any]] = [[]]
        for piece in node.values:
            if isinstance(piece, ast.Constant):
                for variant in variants:
                    variant.append(str(piece.value))
                continue
            value = self._eval(piece.value, bind, env)
            options = self._format_options(value)
            new_variants: List[List[Any]] = []
            for variant in variants:
                for option in options:
                    if len(new_variants) >= _MAX_PATTERNS:
                        break
                    new_variants.append(variant + option)
            variants = new_variants or variants
        patterns = [make_pattern(v) for v in variants]
        if len(patterns) == 1 and patterns[0].is_literal:
            return _Lit(str(patterns[0]))
        if len(patterns) == 1:
            return _PatternV(patterns[0])
        return _union([
            _Lit(str(p)) if p.is_literal else _PatternV(p) for p in patterns
        ])

    def _format_options(self, value: Any) -> List[List[Any]]:
        """Possible part-lists one interpolated value expands to."""
        if isinstance(value, _Lit):
            return [[str(value.value)]]
        if isinstance(value, _SymV):
            return [[value.sym]]
        if isinstance(value, _PatternV):
            return [list(value.pattern.parts)]
        if isinstance(value, _UnionV):
            out: List[List[Any]] = []
            for member in value.members:
                out.extend(self._format_options(member))
            return out[:_MAX_PATTERNS]
        return [[Sym("?", SymKind.UNKNOWN)]]

    def _eval_Subscript(self, node: ast.Subscript, bind, env) -> Any:
        base = self._eval(node.value, bind, env)
        index = self._eval(node.slice, bind, env)
        if base is _PAYLOAD and isinstance(index, _Lit) and isinstance(index.value, str):
            return _SymV(Sym(f"arg:{index.value}", SymKind.ARG))
        if isinstance(base, _Lit) and isinstance(index, _Lit):
            try:
                return _wrap_object(base.value[index.value])
            except Exception:
                return _UNKNOWN
        return _UNKNOWN

    def _eval_Attribute(self, node: ast.Attribute, bind, env) -> Any:
        base = self._eval(node.value, bind, env)
        attr = node.attr
        if base is _CTX:
            if attr == "view":
                return _VIEW
            if attr == "creator":
                return _SymV(Sym("creator", SymKind.CREATOR))
            if attr in ("nonce", "tx_id"):
                return _SymV(Sym(attr, SymKind.NONCE))
            if attr == "timestamp":
                return _SymV(Sym("timestamp", SymKind.ARG))
            return _UNKNOWN
        if base is _SELF:
            if attr in self.info.methods:
                return _MethodV(self.info.methods[attr], env)
            if attr in self.info.consts:
                return _wrap_object(self.info.consts[attr])
            return _UNKNOWN
        if isinstance(base, _ObjV):
            try:
                return _wrap_object(getattr(base.obj, attr))
            except AttributeError:
                return _UNKNOWN
        return _UNKNOWN

    # -- calls ----------------------------------------------------------

    def _eval_Call(self, node: ast.Call, bind, env) -> Any:
        func = node.func
        # view.get/put/exists — the whole point of the analysis
        if isinstance(func, ast.Attribute):
            receiver = self._eval(func.value, bind, env)
            if receiver is _VIEW:
                return self._eval_view_call(func.attr, node, bind, env)
            if receiver is _PAYLOAD:
                return self._eval_payload_call(func.attr, node, bind, env)
            if receiver is _SELF:
                if func.attr in self.info.methods:
                    return self._inline(
                        self.info.methods[func.attr], node, bind, env, skip_self=True
                    )
                self._eval_args(node, bind, env)
                return _UNKNOWN
            if isinstance(receiver, (_Lit, _ObjV)):
                return self._eval_resolved_call(receiver, func.attr, node, bind, env)
            if isinstance(receiver, _MethodV):  # bound method object?  rare
                return self._inline(receiver.node, node, bind, receiver.env, skip_self=True)
            # unknown receiver: evaluate arguments for their side effects
            self._eval_args(node, bind, env)
            return _UNKNOWN

        callee = self._eval(func, bind, env)
        if isinstance(callee, _MethodV):
            return self._inline(callee.node, node, bind, callee.env, skip_self=True)
        if isinstance(callee, _FuncV):
            return self._inline(callee.node, node, bind, callee.env, skip_self=False)
        if isinstance(callee, _ObjV) and inspect.isfunction(callee.obj):
            inlined = self._function_ast(callee.obj)
            if inlined is not None:
                return self._inline(
                    inlined, node, bind, getattr(callee.obj, "__globals__", None),
                    skip_self=False,
                )
        if isinstance(func, ast.Name):
            return self._eval_builtin_call(func.id, node, bind, env)
        self._eval_args(node, bind, env)
        return _UNKNOWN

    def _eval_args(self, node: ast.Call, bind, env) -> List[Any]:
        values = [self._eval(a, bind, env) for a in node.args]
        for kw in node.keywords:
            self._eval(kw.value, bind, env)
        return values

    def _eval_view_call(self, attr: str, node: ast.Call, bind, env) -> Any:
        args = self._eval_args(node, bind, env)
        if attr in ("get", "exists") and args:
            self._record(self.reads, args[0])
            return _SymV(Sym("state", SymKind.UNKNOWN)) if attr == "get" else _UNKNOWN
        if attr == "put" and args:
            self._record(self.writes, args[0])
            return _Lit(None)
        return _UNKNOWN

    def _eval_payload_call(self, attr: str, node: ast.Call, bind, env) -> Any:
        args = self._eval_args(node, bind, env)
        if attr == "get" and args:
            key = args[0]
            if isinstance(key, _Lit) and isinstance(key.value, str):
                sym = _SymV(Sym(f"arg:{key.value}", SymKind.ARG))
                if len(args) > 1:
                    return _union([sym, args[1]])
                # No default: a missing argument yields None, which every
                # handler guards on before touching keys — keep the
                # argument symbol only.
                return sym
        return _UNKNOWN

    def _eval_resolved_call(self, receiver, attr: str, node: ast.Call, bind, env) -> Any:
        args = self._eval_args(node, bind, env)
        if isinstance(receiver, _Lit):
            if attr == "items" and isinstance(receiver.value, dict):
                return _Lit(list(receiver.value.items()))
            if attr == "keys" and isinstance(receiver.value, dict):
                return _Lit(list(receiver.value))
            if attr == "values" and isinstance(receiver.value, dict):
                return _Lit(list(receiver.value.values()))
            if attr == "get" and isinstance(receiver.value, dict) and args:
                if isinstance(args[0], _Lit):
                    default = args[1] if len(args) > 1 else _Lit(None)
                    try:
                        found = receiver.value[args[0].value]
                    except KeyError:
                        return default
                    return _wrap_object(found)
            return _UNKNOWN
        if isinstance(receiver, _ObjV):
            target = getattr(receiver.obj, attr, None)
            if inspect.isfunction(target) or inspect.ismethod(target):
                raw = getattr(target, "__func__", target)
                inlined = self._function_ast(raw)
                if inlined is not None:
                    return self._inline(
                        inlined, node, bind, getattr(raw, "__globals__", None),
                        skip_self=inspect.ismethod(target),
                        prebound=args,
                    )
        return _UNKNOWN

    def _eval_builtin_call(self, name: str, node: ast.Call, bind, env) -> Any:
        args = self._eval_args(node, bind, env)
        if name in ("str", "int", "float", "bool", "len", "abs", "min", "max", "round"):
            if args and all(isinstance(a, _Lit) for a in args):
                try:
                    import builtins

                    return _Lit(getattr(builtins, name)(*[a.value for a in args]))
                except Exception:
                    return _UNKNOWN
            if name == "str" and len(args) == 1 and isinstance(args[0], (_SymV, _PatternV)):
                return args[0]
        if name in ("dict", "list", "tuple", "sorted", "set", "frozenset"):
            if len(args) == 1:
                if args[0] is _PAYLOAD:
                    return _PAYLOAD
                if isinstance(args[0], _Lit):
                    try:
                        caster = {"dict": dict, "list": list, "tuple": tuple,
                                  "sorted": sorted, "set": set, "frozenset": frozenset}[name]
                        return _Lit(caster(args[0].value))
                    except Exception:
                        return _UNKNOWN
                return args[0] if name in ("list", "tuple", "sorted") else _UNKNOWN
            if not args:
                return _Lit({} if name == "dict" else [])
        if name == "isinstance":
            return _UNKNOWN
        return _UNKNOWN

    # -- inlining -------------------------------------------------------

    def _function_ast(self, fn) -> Optional[ast.FunctionDef]:
        module = getattr(fn, "__module__", "") or ""
        if not module.startswith("repro"):
            return None
        try:
            source = textwrap.dedent(inspect.getsource(fn))
        except (OSError, TypeError):
            return None
        try:
            tree = ast.parse(source)
        except SyntaxError:
            return None
        for stmt in tree.body:
            if isinstance(stmt, ast.FunctionDef):
                if sum(1 for _ in ast.walk(stmt)) > 40 * _MAX_INLINE_STATEMENTS:
                    return None
                return stmt
        return None

    def _inline(
        self,
        funcdef: ast.FunctionDef,
        call: ast.Call,
        caller_bind: Dict[str, Any],
        callee_env: Optional[dict],
        skip_self: bool,
        prebound: Optional[List[Any]] = None,
    ) -> Any:
        if self._depth >= _MAX_INLINE_DEPTH:
            self._eval_args(call, caller_bind, callee_env)
            return _UNKNOWN
        args = (
            prebound
            if prebound is not None
            else [self._eval(a, caller_bind, callee_env) for a in call.args]
        )
        kwargs = {
            kw.arg: self._eval(kw.value, caller_bind, callee_env)
            for kw in call.keywords
            if kw.arg is not None
        }

        params = [a.arg for a in funcdef.args.args]
        bind: Dict[str, Any] = {}
        if skip_self and params:
            bind[params[0]] = _SELF
            params = params[1:]
        # positional
        for name, value in zip(params, args):
            bind[name] = value
        # keyword
        for name in params[len(args):]:
            if name in kwargs:
                bind[name] = kwargs[name]
        # defaults for whatever is still missing
        defaults = funcdef.args.defaults
        positional = funcdef.args.args[1:] if skip_self else funcdef.args.args
        for arg, default in zip(
            positional[len(positional) - len(defaults):], defaults
        ):
            if arg.arg not in bind:
                ok, value = _literal(default)
                bind[arg.arg] = _Lit(value) if ok else _UNKNOWN
        for name in params:
            bind.setdefault(name, _UNKNOWN)

        returns: List[Any] = []
        self._depth += 1
        try:
            self._exec_block(funcdef.body, bind, callee_env, returns)
        finally:
            self._depth -= 1
        if not returns:
            return _Lit(None)
        return _union(returns)


_COMPARE_OPS = {
    ast.Eq: lambda a, b: a == b,
    ast.NotEq: lambda a, b: a != b,
    ast.Lt: lambda a, b: a < b,
    ast.LtE: lambda a, b: a <= b,
    ast.Gt: lambda a, b: a > b,
    ast.GtE: lambda a, b: a >= b,
    ast.In: lambda a, b: a in b,
    ast.NotIn: lambda a, b: a not in b,
    ast.Is: lambda a, b: a is b,
    ast.IsNot: lambda a, b: a is not b,
}

_BIN_OPS = {
    ast.Add: lambda a, b: a + b,
    ast.Sub: lambda a, b: a - b,
    ast.Mult: lambda a, b: a * b,
    ast.Div: lambda a, b: a / b,
    ast.FloorDiv: lambda a, b: a // b,
    ast.Mod: lambda a, b: a % b,
    ast.Pow: lambda a, b: a ** b,
}


# ----------------------------------------------------------------------
# handler discovery + public API

def _find_class(tree: ast.Module, class_name: Optional[str]) -> ast.ClassDef:
    classes = [n for n in tree.body if isinstance(n, ast.ClassDef)]
    if class_name is not None:
        for node in classes:
            if node.name == class_name:
                return node
        raise ValueError(f"no class {class_name!r} in source")
    if not classes:
        raise ValueError("source defines no class")
    return classes[0]


def _const_eval(node: ast.AST, env: Optional[dict]) -> Tuple[bool, Any]:
    ok, value = _literal(node)
    if ok:
        return True, value
    # Attribute chains like EventType.LOCATION resolved via the module
    # namespace.
    if isinstance(node, ast.Attribute) and env is not None:
        parts: List[str] = []
        current: ast.AST = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if isinstance(current, ast.Name) and current.id in env:
            obj = env[current.id]
            try:
                for attr in reversed(parts):
                    obj = getattr(obj, attr)
            except AttributeError:
                return False, None
            if isinstance(obj, (str, int)):
                return True, obj
    return False, None


def _class_table(info: _ClassInfo, name: str) -> Optional[ast.Dict]:
    """The dict display assigned to ``name`` in the class body, if any."""
    for stmt in info.node.body:
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and stmt.targets[0].id == name
            and isinstance(stmt.value, ast.Dict)
        ):
            return stmt.value
    return None


def _discover_handlers(info: _ClassInfo) -> Dict[str, str]:
    """Map public function name → method name for every handler."""
    handlers = _class_table(info, "HANDLERS")
    if handlers is not None:
        table: Dict[str, str] = {}
        for key_node, value_node in zip(handlers.keys, handlers.values):
            if key_node is None:
                continue
            ok, key = _const_eval(key_node, info.env)
            if not ok or not isinstance(key, str):
                continue
            if isinstance(value_node, ast.Name) and value_node.id in info.methods:
                table[key] = value_node.id
            elif (
                isinstance(value_node, ast.Attribute)
                and value_node.attr in info.methods
            ):
                table[key] = value_node.attr
        if table:
            return table
    # Fallback: lifecycle + on_* naming convention.
    table = {}
    if "add_player" in info.methods:
        table["addPlayer"] = "add_player"
    if "start_game" in info.methods:
        table["startGame"] = "start_game"
    for name in info.methods:
        if name.startswith("on_"):
            table[name[3:]] = name
    return table


def infer_footprints(
    target: Union[str, type],
    class_name: Optional[str] = None,
    include_runtime: bool = True,
) -> Dict[str, Footprint]:
    """Infer per-handler footprints for a contract.

    ``target`` is either a live :class:`Contract` subclass or contract
    source text (e.g. generated by ``generate_contract_source``).
    Returns ``{public function name: Footprint}``.
    """
    if isinstance(target, str):
        tree = ast.parse(textwrap.dedent(target))
        node = _find_class(tree, class_name)
        env: Optional[dict] = None
    else:
        source = textwrap.dedent(inspect.getsource(target))
        tree = ast.parse(source)
        node = _find_class(tree, class_name or target.__name__)
        module = sys.modules.get(target.__module__)
        env = dict(getattr(module, "__dict__", {})) if module else None

    info = _build_class_info(node, env)
    footprints: Dict[str, Footprint] = {}
    for public_name, method_name in sorted(_discover_handlers(info).items()):
        analyzer = _Analyzer(info)
        analyzer.run_handler(info.methods[method_name])
        if not include_runtime:
            footprints[public_name] = Footprint(
                handler=public_name,
                reads=tuple(analyzer.reads.values()),
                writes=tuple(analyzer.writes.values()),
            )
        else:
            footprints[public_name] = analyzer.footprint(public_name)
    return footprints

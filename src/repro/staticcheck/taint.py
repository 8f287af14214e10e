"""Interprocedural taint rules for cheat vulnerabilities (CHT001–CHT005).

The determinism rules (:mod:`repro.staticcheck.rules`) keep contracts
*replayable*; these rules keep them *honest*.  Every handler receives an
untrusted client payload — the exact attack surface the paper's cheat
taxonomy (``core/cheats.py``) exploits: IDDQD writes an absurd health
value, IDKFA mints ammunition, IDCLIP teleports by sending impossible
coordinates.  The runtime defends by validating inside the handler; this
module verifies **statically** that the validation is actually there, by
tracking taint from sources to the ``ctx.view.put`` sink through every
helper the handler calls (reusing the RWSet interpreter's inliner, so
guards inside ``DoomRules.validate_*`` etc. are observed).

Sources
    ``payload[...]`` / ``payload.get(...)`` / extra handler parameters /
    ``ctx.timestamp`` (client-claimed simulation time).

Guards (collected flow-insensitively per handler, including inlined
helpers — a guard anywhere on the path to the sink counts):

======================  ================================================
``existence``           any truthiness / ``is None`` test on the value
``bounds``              an order comparison (``<`` ``<=`` ``>`` ``>=``),
                        or the value passed into an opaque predicate in
                        test position (``game_map.in_bounds(x, y)``)
``membership``          ``in`` / ``not in`` / equality against a
                        collection or identity (roster checks)
======================  ================================================

Rules
    CHT001  *(error)* — a tainted value reaches a state write with **no**
            guard of any kind on any path.
    CHT002  *(warning)* — a tainted value reaches a state write through
            arithmetic, and no **bounds** check constrains it (existence
            or membership alone does not bound a delta).
    CHT003  *(error)* — statically provable non-conservation: a handler
            credits a tainted amount into an ``asset/…`` key on top of a
            state-read base, and no write in the handler debits the same
            source (a mint — IDKFA in one line).
    CHT004  *(error)* — a tainted value selects the state **key** being
            written (acting on another principal's state) with no
            validation at all — the handler is reachable without any
            roster/auth/existence check on the target.
    CHT005  *(error)* — a handler listed in ``HANDLERS`` reads
            ``payload["f"]`` or ``payload.get("f")`` (itself or in a
            helper it calls) and ``f`` is not declared in its
            ``PAYLOADS`` entry.  ``Contract.invoke`` checks only declared
            fields, so an undeclared one reaches the handler unchecked:
            a client can crash it with a missing key or a wrong type.

False positives are treated as bugs: every shipped contract (Doom,
Monopoly, the codegen output) must pass clean — see the fixture suite in
:mod:`repro.staticcheck.vulnfixtures`.  A contract may carry an explicit
``STATICCHECK_WAIVERS = {"CHT00x": "reason"}`` class attribute; waived
findings are reported separately, never silently dropped.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple

from .rules import SEVERITY_ERROR, SEVERITY_WARNING, Diagnostic
from .rwset import (
    _Analyzer,
    _BIN_OPS,
    _Lit,
    _PatternV,
    _SymV,
    _UNKNOWN,
    _UnionV,
    _build_class_info,
    _class_table,
    _const_eval,
    _discover_handlers,
    _find_class,
    make_pattern,
)
from .symbols import KeyPattern, Sym, SymKind

__all__ = [
    "CHT_RULES",
    "TaintReport",
    "taint_contract",
    "taint_source",
]

GUARD_EXISTENCE = "existence"
GUARD_BOUNDS = "bounds"
GUARD_MEMBERSHIP = "membership"

#: Rule id → one-line description (also used for SARIF rule metadata).
CHT_RULES: Dict[str, str] = {
    "CHT001": "untrusted input written to world state with no guard",
    "CHT002": "tainted arithmetic written to state without a bounds check",
    "CHT003": "asset credit from untrusted input without a matching debit",
    "CHT004": "state key addressed by unvalidated untrusted input",
    "CHT005": "payload field read but not declared in the handler's PAYLOADS",
}


def _is_taint_source(sym: Sym) -> bool:
    """ARG-kind symbols that originate from the client."""
    return sym.kind == SymKind.ARG and (
        sym.name.startswith(("arg:", "param:")) or sym.name == "timestamp"
    )


#: Weak sources are client-influenced but only dangerous when they
#: *derive* authoritative values: the claimed simulation time is
#: routinely logged verbatim (audit records), which is harmless, but
#: folding it unbounded into movement or expiry math is IDCLEV.  Weak
#: sources skip CHT001/CHT004 and still participate in CHT002/CHT003.
_WEAK_SOURCES = frozenset({"timestamp"})


# ----------------------------------------------------------------------
# taint values


@dataclass(frozen=True)
class _TaintV:
    """A value derived from tainted input and/or world state.

    ``credits``/``debits`` track the additive sign of each source inside
    the value (``state + amount`` credits ``amount``; ``state - cost``
    debits ``cost``) — the ingredient for the CHT003 conservation check.
    """

    sources: FrozenSet[str] = frozenset()
    state_based: bool = False
    arith: bool = False
    credits: FrozenSet[str] = frozenset()
    debits: FrozenSet[str] = frozenset()


#: The value returned by ``ctx.view.get`` — world state, not client data.
_STATE_READ = _TaintV(state_based=True)


def _sources_of(value: Any) -> Set[str]:
    """Every taint source a value may carry."""
    if isinstance(value, _SymV):
        return {value.sym.name} if _is_taint_source(value.sym) else set()
    if isinstance(value, _PatternV):
        return {
            p.name
            for p in value.pattern.parts
            if isinstance(p, Sym) and _is_taint_source(p)
        }
    if isinstance(value, _UnionV):
        out: Set[str] = set()
        for member in value.members:
            out |= _sources_of(member)
        return out
    if isinstance(value, _TaintV):
        return set(value.sources)
    return set()


def _is_state_based(value: Any) -> bool:
    if isinstance(value, _TaintV):
        return value.state_based
    if isinstance(value, _UnionV):
        return any(_is_state_based(m) for m in value.members)
    return False


def _is_arith(value: Any) -> bool:
    if isinstance(value, _TaintV):
        return value.arith
    if isinstance(value, _UnionV):
        return any(_is_arith(m) for m in value.members)
    return False


def _signs_of(value: Any) -> Tuple[Set[str], Set[str]]:
    """(credits, debits) carried by a value.

    A bare tainted symbol counts as a credit of itself: used as a term
    it adds its full client-chosen magnitude.
    """
    if isinstance(value, _TaintV):
        return set(value.credits), set(value.debits)
    if isinstance(value, _UnionV):
        credits: Set[str] = set()
        debits: Set[str] = set()
        for member in value.members:
            c, d = _signs_of(member)
            credits |= c
            debits |= d
        return credits, debits
    return _sources_of(value), set()


def _contains_taintv(value: Any) -> bool:
    if isinstance(value, _TaintV):
        return True
    if isinstance(value, _UnionV):
        return any(_contains_taintv(m) for m in value.members)
    return False


def _merge_taint(values: List[Any], arith: bool) -> Optional[_TaintV]:
    """Combine operand taint additively (Add / min / max / casts)."""
    sources: Set[str] = set()
    credits: Set[str] = set()
    debits: Set[str] = set()
    state = False
    touched = False
    for value in values:
        s = _sources_of(value)
        c, d = _signs_of(value)
        if s or _is_state_based(value):
            touched = True
        sources |= s
        credits |= c
        debits |= d
        state = state or _is_state_based(value)
    if not touched:
        return None
    return _TaintV(
        sources=frozenset(sources),
        state_based=state,
        arith=arith or any(_is_arith(v) for v in values),
        credits=frozenset(credits),
        debits=frozenset(debits),
    )


# ----------------------------------------------------------------------
# per-write evidence


@dataclass
class _WriteRec:
    """One observed ``ctx.view.put`` with its taint evidence."""

    patterns: List[KeyPattern]
    key_sources: Set[str]
    value_sources: Set[str]
    arith: bool
    state_based: bool
    credits: Set[str]
    debits: Set[str]
    line: int


def _is_asset_write(patterns: List[KeyPattern]) -> bool:
    for pattern in patterns:
        if pattern.parts and isinstance(pattern.parts[0], str):
            if pattern.parts[0].startswith("asset/"):
                return True
    return False


# ----------------------------------------------------------------------
# the taint interpreter


class _TaintAnalyzer(_Analyzer):
    """RWSet interpreter extended with taint propagation + guard notes."""

    def __init__(self, info) -> None:
        super().__init__(info)
        #: source name → set of guard kinds observed anywhere on the path
        self.guards: Dict[str, Set[str]] = {}
        self.write_recs: List[_WriteRec] = []
        #: payload field → line of its first read (CHT005)
        self.fields_read: Dict[str, int] = {}

    def _eval_Subscript(self, node: ast.Subscript, bind, env) -> Any:
        result = super()._eval_Subscript(node, bind, env)
        if isinstance(result, _SymV) and result.sym.name.startswith("arg:"):
            self.fields_read.setdefault(result.sym.name[4:], node.lineno)
        return result

    def _eval_payload_call(self, attr: str, node: ast.Call, bind, env) -> Any:
        if attr == "get" and node.args:
            ok, name = _const_eval(node.args[0], self.info.env)
            if ok and isinstance(name, str):
                self.fields_read.setdefault(name, node.lineno)
        return super()._eval_payload_call(attr, node, bind, env)

    # -- sources and sinks ---------------------------------------------

    def _eval_view_call(self, attr: str, node: ast.Call, bind, env) -> Any:
        args = self._eval_args(node, bind, env)
        if attr in ("get", "exists") and args:
            self._record(self.reads, args[0])
            return _STATE_READ if attr == "get" else _UNKNOWN
        if attr == "put" and args:
            self._record(self.writes, args[0])
            key = args[0]
            value = args[1] if len(args) > 1 else _UNKNOWN
            patterns = self._patterns_of(key)
            credits, debits = _signs_of(value)
            self.write_recs.append(
                _WriteRec(
                    patterns=patterns,
                    key_sources={
                        p.name
                        for pattern in patterns
                        for p in pattern.parts
                        if isinstance(p, Sym) and _is_taint_source(p)
                    },
                    value_sources=_sources_of(value),
                    arith=_is_arith(value),
                    state_based=_is_state_based(value),
                    credits=credits,
                    debits=debits,
                    line=getattr(node, "lineno", 0),
                )
            )
            return _Lit(None)
        return _UNKNOWN

    # -- taint through arithmetic --------------------------------------

    def _eval_BinOp(self, node: ast.BinOp, bind, env) -> Any:
        left = self._eval(node.left, bind, env)
        right = self._eval(node.right, bind, env)
        if isinstance(left, _Lit) and isinstance(right, _Lit):
            try:
                return _Lit(_BIN_OPS[type(node.op)](left.value, right.value))
            except Exception:
                return _UNKNOWN
        if isinstance(node.op, ast.Sub):
            merged = _merge_taint([left], arith=True)
            flipped = _merge_taint([right], arith=True)
            if merged is None and flipped is None:
                return _UNKNOWN
            merged = merged or _TaintV(arith=True)
            flipped = flipped or _TaintV(arith=True)
            # state - cost: the right operand's credits become debits.
            return _TaintV(
                sources=merged.sources | flipped.sources,
                state_based=merged.state_based or flipped.state_based,
                arith=True,
                credits=merged.credits | flipped.debits,
                debits=merged.debits | flipped.credits,
            )
        if isinstance(node.op, ast.Add):
            # Preserve the base analyzer's key-concatenation behaviour
            # only when a string literal proves this is concat and no
            # operand carries arithmetic/state taint; the syms inside
            # the pattern still count as key taint at the sink.  A
            # numeric literal (``x + 0.5``) or a state read means this
            # is arithmetic, not key building.
            str_concat = any(
                isinstance(v, _Lit) and isinstance(v.value, str)
                for v in (left, right)
            )
            if str_concat and not (
                _contains_taintv(left) or _contains_taintv(right)
            ):
                parts = self._concat_parts(left) + self._concat_parts(right)
                if any(isinstance(p, Sym) for p in parts):
                    return _PatternV(make_pattern(parts))
            merged = _merge_taint([left, right], arith=True)
            return merged if merged is not None else _UNKNOWN
        # Mult / Div / FloorDiv / Mod / Pow: magnitude scaling — taint
        # (and credit direction, for positive factors) flows through.
        merged = _merge_taint([left, right], arith=True)
        return merged if merged is not None else _UNKNOWN

    def _bind_target(self, target: ast.AST, value: Any, bind) -> None:
        # Unpacking propagates taint: ``d1, d2 = dice`` makes each
        # element carry the tuple's sources, so a later bounds check on
        # d1/d2 counts as a guard on the original payload value.
        if isinstance(target, (ast.Tuple, ast.List)) and not isinstance(
            value, _Lit
        ):
            merged = _merge_taint([value], arith=False)
            if merged is not None:
                for elt in target.elts:
                    if isinstance(elt, ast.Name):
                        bind[elt.id] = merged
                    else:
                        super()._bind_target(elt, _UNKNOWN, bind)
                return
        super()._bind_target(target, value, bind)

    def _eval_Dict(self, node: ast.Dict, bind, env) -> Any:
        # A dict display carrying tainted members is itself tainted —
        # handlers routinely write composite records ({"x": x, "y": y}).
        result = super()._eval_Dict(node, bind, env)
        if result is _UNKNOWN:
            values = [self._eval(v, bind, env) for v in node.values]
            merged = _merge_taint(values, arith=False)
            if merged is not None:
                return merged
        return result

    def _eval_builtin_call(self, name: str, node: ast.Call, bind, env) -> Any:
        result = super()._eval_builtin_call(name, node, bind, env)
        if result is _UNKNOWN and name in (
            "int", "float", "abs", "min", "max", "round", "dict", "bool",
        ):
            # clamps and casts preserve taint (min(cap, state + amount)
            # is still a mint of `amount`).
            args = [self._eval(a, bind, env) for a in node.args]
            merged = _merge_taint(args, arith=False)
            if merged is not None:
                return merged
        return result

    # -- guard collection ----------------------------------------------

    def _note_guard(self, test: ast.AST, bind, env) -> None:
        """Record which taint sources a branch/assert test constrains."""
        for node in ast.walk(test):
            if isinstance(node, ast.Compare):
                values = [self._eval(node.left, bind, env)]
                values += [self._eval(c, bind, env) for c in node.comparators]
                sources: Set[str] = set()
                for value in values:
                    sources |= _sources_of(value)
                if not sources:
                    continue
                kinds = {GUARD_EXISTENCE}
                for op in node.ops:
                    if isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)):
                        kinds.add(GUARD_BOUNDS)
                    if isinstance(op, (ast.In, ast.NotIn, ast.Eq, ast.NotEq)):
                        kinds.add(GUARD_MEMBERSHIP)
                for source in sources:
                    self.guards.setdefault(source, set()).update(kinds)
            elif isinstance(node, ast.Call):
                # An opaque predicate in test position validates its
                # arguments (``if not game_map.in_bounds(x, y)``): treat
                # as a domain/sanity check on every tainted argument.
                arg_sources: Set[str] = set()
                for arg in node.args:
                    arg_sources |= _sources_of(self._eval(arg, bind, env))
                for source in arg_sources:
                    self.guards.setdefault(source, set()).update(
                        {GUARD_EXISTENCE, GUARD_BOUNDS}
                    )
        # Bare truthiness of the whole test (``if target: ...``).
        for source in _sources_of(self._eval(test, bind, env)):
            self.guards.setdefault(source, set()).add(GUARD_EXISTENCE)

    def _exec_if(self, stmt: ast.If, bind, env, returns) -> bool:
        self._note_guard(stmt.test, bind, env)
        return super()._exec_if(stmt, bind, env, returns)

    def _exec_stmt(self, stmt: ast.stmt, bind, env, returns) -> bool:
        if isinstance(stmt, (ast.Assert, ast.While)):
            self._note_guard(stmt.test, bind, env)
        return super()._exec_stmt(stmt, bind, env, returns)

    def _eval_IfExp(self, node: ast.IfExp, bind, env) -> Any:
        self._note_guard(node.test, bind, env)
        return super()._eval_IfExp(node, bind, env)


# ----------------------------------------------------------------------
# rule evaluation


def _describe_key(rec: _WriteRec) -> str:
    return str(rec.patterns[0]) if rec.patterns else "?"


def _pretty_source(source: str) -> str:
    if source.startswith("arg:"):
        return f"payload[{source[4:]!r}]"
    if source.startswith("param:"):
        return f"argument {source[6:]!r}"
    return f"ctx.{source}"


def _emit_handler_diags(
    handler: str, analyzer: _TaintAnalyzer
) -> List[Diagnostic]:
    diags: List[Diagnostic] = []
    seen: Set[Tuple[str, int, str]] = set()

    def emit(code: str, line: int, source: str, message: str, severity: str) -> None:
        key = (code, line, source)
        if key in seen:
            return
        seen.add(key)
        diags.append(
            Diagnostic(
                code=code,
                message=message,
                line=line,
                col=0,
                severity=severity,
                context=handler,
            )
        )

    guards = analyzer.guards
    all_debits: Set[str] = set()
    for rec in analyzer.write_recs:
        all_debits |= rec.debits

    for rec in analyzer.write_recs:
        key_str = _describe_key(rec)
        for source in sorted(rec.value_sources):
            held = guards.get(source, set())
            if not held and source not in _WEAK_SOURCES:
                emit(
                    "CHT001",
                    rec.line,
                    source,
                    f"handler {handler!r} writes {_pretty_source(source)} "
                    f"to state key {key_str} with no guard of any kind — "
                    "a client controls committed state directly",
                    SEVERITY_ERROR,
                )
            elif rec.arith and GUARD_BOUNDS not in held:
                emit(
                    "CHT002",
                    rec.line,
                    source,
                    f"handler {handler!r} folds {_pretty_source(source)} "
                    f"arithmetically into {key_str} without a bounds check "
                    f"(guards seen: {', '.join(sorted(held))}) — the "
                    "client chooses the delta's magnitude",
                    SEVERITY_WARNING,
                )
        if rec.state_based and rec.credits and _is_asset_write(rec.patterns):
            for source in sorted(rec.credits):
                if source not in all_debits:
                    emit(
                        "CHT003",
                        rec.line,
                        source,
                        f"handler {handler!r} credits {_pretty_source(source)} "
                        f"into asset key {key_str} with no matching debit "
                        "anywhere in the handler — assets are minted, not "
                        "conserved",
                        SEVERITY_ERROR,
                    )
        for source in sorted(rec.key_sources):
            if not guards.get(source) and source not in _WEAK_SOURCES:
                emit(
                    "CHT004",
                    rec.line,
                    source,
                    f"handler {handler!r} writes to key {key_str} selected "
                    f"by {_pretty_source(source)} without any roster/auth/"
                    "existence check — any client can act on any "
                    "principal's state",
                    SEVERITY_ERROR,
                )
    return diags


def _field_names(node: ast.AST, env: Optional[dict]) -> Optional[Set[str]]:
    """Field names of one ``PAYLOADS`` entry: a dict display (``**``
    splats included) or a module-level dict.  None if unresolvable."""
    if isinstance(node, ast.Name):
        value = (env or {}).get(node.id)
        return set(value) if isinstance(value, dict) else None
    if not isinstance(node, ast.Dict):
        return None
    names: Set[str] = set()
    for key_node, value_node in zip(node.keys, node.values):
        if key_node is None:
            splat = _field_names(value_node, env)
            if splat is None:
                return None
            names |= splat
            continue
        ok, key = _const_eval(key_node, env)
        if not ok or not isinstance(key, str):
            return None
        names.add(key)
    return names


def _declared_fields(info) -> Optional[Dict[str, Optional[Set[str]]]]:
    """Handler → the payload fields its ``PAYLOADS`` entry declares
    (empty when it has no entry; None when an entry is unresolvable).
    None for a class with no ``HANDLERS`` table: CHT005 concerns the
    dispatch of :meth:`Contract.invoke` only."""
    if _class_table(info, "HANDLERS") is None:
        return None
    declared: Dict[str, Optional[Set[str]]] = {}
    table = _class_table(info, "PAYLOADS")
    if table is not None:
        for key_node, value_node in zip(table.keys, table.values):
            ok, handler = _const_eval(key_node, info.env) if key_node else (False, None)
            if ok and isinstance(handler, str):
                declared[handler] = _field_names(value_node, info.env)
    return declared


def _undeclared_field_diags(
    handler: str, analyzer: _TaintAnalyzer, declared: Optional[Set[str]]
) -> List[Diagnostic]:
    if declared is None:
        return []
    return [
        Diagnostic(
            code="CHT005",
            message=(
                f"handler {handler!r} reads payload[{name!r}], which its "
                "PAYLOADS entry does not declare — Contract.invoke lets "
                "it through unchecked, so a client can send it missing "
                "or of any type"
            ),
            line=line,
            col=0,
            severity=SEVERITY_ERROR,
            context=handler,
        )
        for name, line in sorted(analyzer.fields_read.items())
        if name not in declared
    ]


# ----------------------------------------------------------------------
# public API


@dataclass
class TaintReport:
    """Result of the CHT analysis over one contract."""

    contract: str
    diagnostics: List[Diagnostic] = field(default_factory=list)
    waived: List[Diagnostic] = field(default_factory=list)
    waivers: Dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.diagnostics

    def to_json(self) -> dict:
        return {
            "contract": self.contract,
            "diagnostics": [d.to_json() for d in self.diagnostics],
            "waived": [d.to_json() for d in self.waived],
            "waivers": dict(self.waivers),
        }


def _taint_class(info) -> TaintReport:
    raw_waivers = info.consts.get("STATICCHECK_WAIVERS")
    waivers: Dict[str, str] = (
        dict(raw_waivers) if isinstance(raw_waivers, dict) else {}
    )
    report = TaintReport(contract=info.name, waivers=waivers)
    declared = _declared_fields(info)
    for public_name, method_name in sorted(_discover_handlers(info).items()):
        analyzer = _TaintAnalyzer(info)
        analyzer.run_handler(info.methods[method_name])
        diags = _emit_handler_diags(public_name, analyzer)
        if declared is not None:
            diags += _undeclared_field_diags(
                public_name, analyzer, declared.get(public_name, set())
            )
        for diag in diags:
            if diag.code in waivers:
                report.waived.append(diag)
            else:
                report.diagnostics.append(diag)
    report.diagnostics.sort(key=lambda d: (d.line, d.col, d.code))
    report.waived.sort(key=lambda d: (d.line, d.col, d.code))
    return report


def taint_source(source: str, class_name: Optional[str] = None) -> TaintReport:
    """Run the CHT rules over contract source text."""
    tree = ast.parse(textwrap.dedent(source))
    node = _find_class(tree, class_name)
    return _taint_class(_build_class_info(node, env=None))


def taint_contract(cls: type, class_name: Optional[str] = None) -> TaintReport:
    """Run the CHT rules over a live contract class."""
    import sys

    source = textwrap.dedent(inspect.getsource(cls))
    tree = ast.parse(source)
    node = _find_class(tree, class_name or cls.__name__)
    module = sys.modules.get(cls.__module__)
    env = dict(getattr(module, "__dict__", {})) if module else None
    return _taint_class(_build_class_info(node, env))

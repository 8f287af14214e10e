"""Smart-contract code generator.

"Manually writing contracts from scratch is error-prone.  Thus, we
provide a template for developers to easily specify constraints on game
events and assets, and a code generator that reads the specification to
generate boilerplate contract code." (§4.1)

The boilerplate of §4.1.2 and §6 is written once, as :class:`SpecContract`:
the per-player per-asset KVS (§6 opt. i; ``split_kvs = False`` is the
one-record-per-player ablation), ``addPlayer`` and ``startGame``, and
the power modes with bound checks (Table 1's ``value ∈ R≥0`` plus
optional min/max), so a generated contract already rejects, e.g.,
shooting with an empty magazine.  The replay verifier is the contract
runtime's (``repro.blockchain.contracts.execute_transaction``).

:func:`generate_contract_source` emits real Python source (the paper's
generator emits Go via Jennifer) for a subclass holding the spec's
tables, one handler per specified event, ``HANDLERS`` and ``PAYLOADS``
(an event that affects the player its payload names, ``pId="*"``,
requires a ``target`` string); :func:`compile_contract_source` loads
it.  Logic beyond the constraint language ("any additional logic must
be added by the developer himself") subclasses :class:`SpecContract`
by hand, as ``repro.core.doom_contract`` does.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Type

from ..blockchain.contracts import Contract, ContractError, InvocationContext
from ..game.assets import asset_key
from .spec import ANY, GameSpec, SpecError

__all__ = ["SpecContract", "generate_contract_source", "compile_contract_source", "generate_contract"]


class SpecContract(Contract):
    """The boilerplate every spec-derived contract shares.

    A subclass supplies the spec's tables and its event handlers, which
    read and write assets only through :meth:`_read_asset` and
    :meth:`_write_asset`: the KVS layout lives here alone.
    """

    #: Per-player per-asset keys (§6 opt. i) when True; one record per
    #: player, keyed by ``str(aid)``, when False (the ablation).
    split_kvs = True
    MAX_PLAYERS = 4
    #: aid -> starting value, aid -> (low, high) bound, (aid, pwId) ->
    #: (change, factor): the spec's tables.
    ASSET_DEFAULTS = {}
    ASSET_BOUNDS = {}
    POWERS = {}

    # ------------------------------------------------------------------
    # KVS layout

    def kvs_key(self, player: str, aid: int) -> str:
        """The world-state key that holds ``player``'s asset ``aid``."""
        return asset_key(player, aid) if self.split_kvs else f"player/{player}"

    def _read_asset(self, ctx: InvocationContext, player: str, aid: int) -> Any:
        value = ctx.view.get(self.kvs_key(player, aid))
        if value is not None and not self.split_kvs:
            value = value.get(str(aid))
        if value is None:
            raise ContractError(f"player {player} has no asset {aid} (not joined?)")
        return value

    def _write_asset(self, ctx: InvocationContext, player: str, aid: int, value: Any) -> None:
        key = self.kvs_key(player, aid)
        if not self.split_kvs:
            record = dict(ctx.view.get(key) or {})
            record[str(aid)] = value
            value = record
        ctx.view.put(key, value)

    # ------------------------------------------------------------------
    # lifecycle APIs

    def starting_assets(self, seat: int) -> Dict[int, Any]:
        """aid -> value for the player who joins at roster index ``seat``."""
        return self.ASSET_DEFAULTS

    def add_player(self, ctx: InvocationContext, payload: Dict) -> None:
        player = ctx.creator
        roster = list(ctx.view.get("game/roster") or [])
        if player in roster:
            raise ContractError(f"player {player} already joined")
        if len(roster) >= self.MAX_PLAYERS:
            raise ContractError(f"game room is full ({self.MAX_PLAYERS} players)")
        roster.append(player)
        ctx.view.put("game/roster", roster)
        for aid, value in self.starting_assets(len(roster) - 1).items():
            self._write_asset(ctx, player, aid, value)

    def start_game(self, ctx: InvocationContext, payload: Dict) -> None:
        if not ctx.view.get("game/roster"):
            raise ContractError("no players joined")
        if ctx.view.get("game/started"):
            raise ContractError("game already started")
        ctx.view.put("game/started", True)

    def _require_started(self, ctx: InvocationContext) -> None:
        if not ctx.view.get("game/started"):
            raise ContractError("game has not started")

    # ------------------------------------------------------------------
    # constraint engine

    def _apply_power(self, ctx: InvocationContext, target: str, aid: int, pw_id: int) -> Any:
        change, factor = self.POWERS[(aid, pw_id)]
        value = self._read_asset(ctx, target, aid)
        new = value + factor if change == "+" else value * factor
        low, high = self.ASSET_BOUNDS[aid]
        if low is not None and new < low:
            raise ContractError(f"asset {aid} of {target} would drop below {low}")
        if high is not None and new > high:
            raise ContractError(f"asset {aid} of {target} would exceed {high}")
        self._write_asset(ctx, target, aid, new)
        return new

    def _resolve(self, ctx: InvocationContext, pid: Any, payload: Dict) -> str:
        """The player a spec ``pId`` names: ``self``, ``*`` (the payload's
        ``target``) or a 1-based roster position."""
        if pid == "self":
            return ctx.creator
        if pid == "*":
            return payload["target"]
        roster = ctx.view.get("game/roster") or []
        index = int(pid) - 1
        if index >= len(roster):
            raise ContractError(f"no player with pId {pid}")
        return roster[index]


def _identifier(name: str) -> str:
    out = "".join(ch if ch.isalnum() else "_" for ch in name)
    if not out or out[0].isdigit():
        out = "_" + out
    return out


def generate_contract_source(
    spec: GameSpec,
    class_name: Optional[str] = None,
    split_kvs: bool = True,
) -> str:
    """Emit the Python source of a contract implementing ``spec``."""
    spec.validate()
    cls = class_name or f"{_identifier(spec.name)}GeneratedContract"

    defaults = {asset.aid: asset.value for asset in spec.assets.values()}
    bounds = {
        asset.aid: (
            asset.minimum if asset.minimum is not None else 0.0,
            asset.maximum,
        )
        for asset in spec.assets.values()
    }
    powers = {
        (asset.aid, power.pw_id): (power.change, power.factor)
        for asset in spec.assets.values()
        for power in asset.powers
    }

    lines = [
        '"""Auto-generated by repro.core.codegen — do not edit.',
        "",
        f"Game: {spec.name} ({len(spec.assets)} assets, "
        f"{len(spec.events)} events, {len(spec.players)} players).",
        '"""',
        "",
        "from repro.core.codegen import SpecContract",
        "",
        "",
        f"class {cls}(SpecContract):",
        f"    name = {spec.name.lower()!r}",
        f"    split_kvs = {split_kvs!r}",
        f"    MAX_PLAYERS = {len(spec.players)}",
        f"    ASSET_DEFAULTS = {defaults!r}",
        f"    ASSET_BOUNDS = {bounds!r}",
        f"    POWERS = {powers!r}",
        "",
        "    # ------------------------------------------------------------",
        "    # event APIs (one per specified event)",
        "",
    ]

    handler_names: Dict[str, str] = {}
    targeted = []  # events whose payload names the player they affect
    for event in sorted(spec.events.values(), key=lambda e: e.eid):
        handler = f"on_{_identifier(event.name).lower()}"
        handler_names[event.name] = handler
        lines.append(f"    def {handler}(self, ctx, args):")
        lines.append(f"        # eId {event.eid}: {event.name}")
        lines.append("        self._require_started(ctx)")
        if not event.affects:
            lines.append("        pass")
        if any(affects.pid == ANY for affects in event.affects):
            targeted.append(event.name)
        for affects in event.affects:
            pid = affects.pid if isinstance(affects.pid, int) else repr(affects.pid)
            lines.append(
                f"        self._apply_power(ctx, self._resolve(ctx, {pid}, args), "
                f"{affects.aid}, {affects.pw_id})"
            )
        lines.append("")

    lines += [
        "    # ------------------------------------------------------------",
        "    # dispatch",
        "",
        "    HANDLERS = {",
        "        'addPlayer': SpecContract.add_player,",
        "        'startGame': SpecContract.start_game,",
    ]
    for event_name, handler in handler_names.items():
        lines.append(f"        {event_name!r}: {handler},")
    lines += ["    }", "    PAYLOADS = {"]
    for event_name in targeted:
        lines.append(f"        {event_name!r}: {{'target': ((str,), True)}},")
    lines += ["    }", ""]
    return "\n".join(lines)


def compile_contract_source(source: str, strict: Optional[bool] = True) -> Type[Contract]:
    """Compile generated source and return the last contract class it binds.

    Before the source is executed it is gated through the determinism
    linter (:mod:`repro.staticcheck`): every peer must reach the same
    verdict for the same transaction (§4.2.2), so nondeterministic
    contract code is rejected at compile time rather than at consensus
    time.  ``strict=True`` (default) fails on warnings too,
    ``strict=False`` fails only on errors, and ``strict=None`` skips
    the gate entirely (the escape hatch for intentionally hazardous
    test fixtures).

    Every finding the relaxed modes let through is counted in the
    process-level ``staticcheck_waivers_total`` telemetry counter
    (:data:`repro.staticcheck.metrics.REGISTRY`), so the escape hatch
    leaves an audit trail instead of disappearing findings.
    """
    from ..staticcheck import gate, lint_source
    from ..staticcheck.metrics import record_waived_findings

    if strict is not None:
        from ..staticcheck import StaticCheckError

        diagnostics = lint_source(source)
        failures = gate(diagnostics, strict=strict)
        if failures:
            summary = "; ".join(str(d) for d in failures[:5])
            raise StaticCheckError(
                f"generated contract failed static verification "
                f"({len(failures)} diagnostic(s)): {summary}",
                failures,
            )
        if not strict:
            record_waived_findings(len(diagnostics), mode="no-strict")
    else:
        record_waived_findings(len(lint_source(source)), mode="gate-skipped")
    namespace: Dict[str, object] = {}
    exec(compile(source, "<generated-contract>", "exec"), namespace)
    # The last one: the source imports its base class before defining it.
    for value in reversed(list(namespace.values())):
        if (
            isinstance(value, type)
            and issubclass(value, Contract)
            and value is not Contract
        ):
            return value
    raise SpecError("generated source defines no Contract subclass")


def generate_contract(
    spec: GameSpec,
    split_kvs: bool = True,
    class_name: Optional[str] = None,
    strict: Optional[bool] = True,
) -> Type[Contract]:
    """Generate, compile and return the contract class in one step."""
    return compile_contract_source(
        generate_contract_source(spec, class_name=class_name, split_kvs=split_kvs),
        strict=strict,
    )

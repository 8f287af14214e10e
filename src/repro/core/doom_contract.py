"""The Doom smart contract: generated boilerplate + developer logic.

This is the contract the evaluation deploys.  It keeps the generated
boilerplate's shape — ``addPlayer``, ``startGame``, one public API per
event, per-player per-asset KVS — and adds the game-specific validation
the constraint language cannot express ("any additional logic must be
added by the developer himself", §4.1.2): movement-speed geometry,
item-pickup locality/respawn, per-weapon ammunition costs, armour
absorption and power-up timers.

A rejected invocation is a prevented cheat: the peers will not reach
consensus on the offending asset update, and the shim reports failure
to the game client (§7.2.2).
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any, Dict, List, Optional, Tuple

from ..blockchain.contracts import Contract, ContractError, InvocationContext
from ..game.assets import AssetId, asset_key
from ..game.doom import DoomMap, DoomRules, RuleViolation, WEAPONS, initial_assets
from ..game.events import EventType

__all__ = ["DoomContract", "item_key"]


def item_key(item_id: str) -> str:
    """World-state key tracking a map item's pickup state."""
    return f"item/{item_id}"


_REQUIRED = object()


def _field(payload: Dict, field: str, default: Any = _REQUIRED, kind: Any = (int, float)):
    """``payload[field]`` (or ``default``), checked to be of ``kind``.

    The payload is whatever a client signed: a missing or wrong-typed
    field must reject the invocation, not raise out of the peer.
    """
    value = payload.get(field, default)
    if value is _REQUIRED:
        raise ContractError(f"payload has no {field!r}")
    if not isinstance(value, kind):
        raise ContractError(f"payload field {field!r} has the wrong type: {value!r}")
    return value


class DoomContract(Contract):
    """Server-side Doom logic as a smart contract.

    Args:
        game_map: the level's item placement (every peer must deploy the
            contract with the same map — the platform guarantees "the
            same contract is deployed on every peer", §4.2.2).
        split_kvs: per-player per-asset keys (§6 opt. i) when True;
            one monolithic key per player when False (the ablation).
        strict_pickups: require pickups to name the map item they
            collect, enabling locality/respawn validation.
    """

    name = "doom"
    MAX_PLAYERS = 4

    def __init__(
        self,
        game_map: Optional[DoomMap] = None,
        split_kvs: bool = True,
        strict_pickups: bool = True,
    ):
        self.map = game_map if game_map is not None else DoomMap.default_map()
        self.split_kvs = split_kvs
        self.strict_pickups = strict_pickups

    # ------------------------------------------------------------------
    # KVS layout (optimisation §6 i)

    def _get(self, ctx: InvocationContext, player: str, aid: int):
        if self.split_kvs:
            value = ctx.view.get(asset_key(player, aid))
        else:
            record = ctx.view.get(f"player/{player}")
            value = None if record is None else record.get(str(aid))
        if value is None:
            raise ContractError(f"player {player} has no asset {aid} (not joined?)")
        return value

    def _put(self, ctx: InvocationContext, player: str, aid: int, value) -> None:
        if self.split_kvs:
            ctx.view.put(asset_key(player, aid), value)
        else:
            record = dict(ctx.view.get(f"player/{player}") or {})
            record[str(aid)] = value
            ctx.view.put(f"player/{player}", record)

    # ------------------------------------------------------------------
    # dispatch

    def invoke(self, ctx: InvocationContext, function: str, args: Tuple[Any, ...]):
        if args and not isinstance(args[0], Mapping):
            raise ContractError(f"payload is not a mapping: {args[0]!r}")
        payload: Dict[str, Any] = dict(args[0]) if args else {}
        handler = self._HANDLERS.get(function)
        if handler is None:
            raise ContractError(f"unknown function {function!r}")
        try:
            return handler(self, ctx, payload)
        except RuleViolation as violation:
            raise ContractError(str(violation)) from None

    def functions(self) -> List[str]:
        return list(self._HANDLERS)

    # ------------------------------------------------------------------
    # lifecycle

    def add_player(self, ctx: InvocationContext, payload: Dict) -> None:
        player = ctx.creator
        roster = list(ctx.view.get("game/roster") or [])
        if player in roster:
            raise ContractError(f"player {player} already joined")
        if len(roster) >= self.MAX_PLAYERS:
            raise ContractError("Doom supports at most four players")
        roster.append(player)
        ctx.view.put("game/roster", roster)
        spawn = self.map.spawn_points[(len(roster) - 1) % len(self.map.spawn_points)]
        for aid, value in initial_assets(spawn).items():
            self._put(ctx, player, aid, value)

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
    # event APIs

    def on_location(self, ctx: InvocationContext, payload: Dict) -> None:
        self._require_started(ctx)
        player = ctx.creator
        old = self._get(ctx, player, AssetId.POSITION)
        t = _field(payload, "t", ctx.timestamp)
        new = DoomRules.validate_move(
            old, _field(payload, "x"), _field(payload, "y"), t, self.map
        )
        self._put(ctx, player, AssetId.POSITION, new)

    def on_shoot(self, ctx: InvocationContext, payload: Dict) -> None:
        self._require_started(ctx)
        player = ctx.creator
        weapon = self._get(ctx, player, AssetId.WEAPON)
        ammo = self._get(ctx, player, AssetId.AMMUNITION)
        remaining = DoomRules.validate_shoot(weapon, ammo, _field(payload, "count", 1))
        self._put(ctx, player, AssetId.AMMUNITION, remaining)

    def on_weapon_change(self, ctx: InvocationContext, payload: Dict) -> None:
        self._require_started(ctx)
        player = ctx.creator
        weapon = self._get(ctx, player, AssetId.WEAPON)
        self._put(
            ctx, player, AssetId.WEAPON,
            DoomRules.validate_weapon_change(weapon, _field(payload, "wid", kind=int)),
        )

    def on_damage(self, ctx: InvocationContext, payload: Dict) -> None:
        self._require_started(ctx)
        target = payload.get("target", ctx.creator)
        roster = ctx.view.get("game/roster") or []
        if target not in roster:
            raise ContractError(f"damage target {target!r} not in this game")
        t = _field(payload, "t", ctx.timestamp)
        amount = _field(payload, "amount")
        health = self._get(ctx, target, AssetId.HEALTH)
        armor = self._get(ctx, target, AssetId.ARMOR)
        new_health, new_armor, _ = DoomRules.apply_damage(health, armor, amount, t)
        self._put(ctx, target, AssetId.HEALTH, new_health)
        if new_armor != armor:
            self._put(ctx, target, AssetId.ARMOR, new_armor)

    # ------------------------------------------------------------------
    # pickups

    def _validate_item(
        self, ctx: InvocationContext, payload: Dict, expected_kind: Optional[str]
    ) -> Optional[str]:
        """Validate item locality/respawn; returns the item id consumed."""
        item_id = payload.get("item_id")
        if item_id is None:
            if self.strict_pickups:
                raise ContractError("pickup does not name a map item")
            return None
        item = self.map.item(item_id)
        t = _field(payload, "t", ctx.timestamp)
        taken = ctx.view.get(item_key(item_id))
        pos = self._get(ctx, ctx.creator, AssetId.POSITION)
        DoomRules.validate_pickup(item, taken, pos, t)
        if expected_kind is not None and item.kind != expected_kind:
            raise ContractError(
                f"item {item_id} is a {item.kind}, not a {expected_kind}"
            )
        ctx.view.put(item_key(item_id), {"taken_at": t, "by": ctx.creator})
        return item_id

    def on_pickup_weapon(self, ctx: InvocationContext, payload: Dict) -> None:
        self._require_started(ctx)
        player = ctx.creator
        wid = _field(payload, "wid", kind=int)
        if wid not in WEAPONS:
            raise ContractError(f"no such weapon {wid}")
        self._validate_item(ctx, payload, f"weapon:{wid}")
        weapon = dict(self._get(ctx, player, AssetId.WEAPON))
        owned = list(weapon.get("owned", []))
        if wid not in owned:
            owned.append(wid)
        weapon["owned"] = owned
        weapon["current"] = wid
        self._put(ctx, player, AssetId.WEAPON, weapon)
        ammo = self._get(ctx, player, AssetId.AMMUNITION)
        self._put(
            ctx, player, AssetId.AMMUNITION,
            DoomRules.add_ammo(ammo, DoomRules.WEAPON_PICKUP_AMMO),
        )

    def on_pickup_clip(self, ctx: InvocationContext, payload: Dict) -> None:
        self._require_started(ctx)
        self._validate_item(ctx, payload, "clip")
        player = ctx.creator
        ammo = self._get(ctx, player, AssetId.AMMUNITION)
        self._put(
            ctx, player, AssetId.AMMUNITION,
            DoomRules.add_ammo(ammo, DoomRules.CLIP_AMMO),
        )

    def on_pickup_medkit(self, ctx: InvocationContext, payload: Dict) -> None:
        self._require_started(ctx)
        self._validate_item(ctx, payload, "medkit")
        player = ctx.creator
        health = self._get(ctx, player, AssetId.HEALTH)
        self._put(
            ctx, player, AssetId.HEALTH,
            DoomRules.heal(health, DoomRules.MEDKIT_HEAL),
        )

    def _pickup_powerup(
        self, ctx: InvocationContext, payload: Dict, kind: str, aid: int
    ) -> float:
        self._require_started(ctx)
        self._validate_item(ctx, payload, kind)
        t = _field(payload, "t", ctx.timestamp)
        expiry = t + DoomRules.POWERUP_DURATION_MS
        self._put(ctx, ctx.creator, aid, expiry)
        return expiry

    def on_pickup_radsuit(self, ctx: InvocationContext, payload: Dict) -> None:
        self._pickup_powerup(ctx, payload, "radsuit", AssetId.RADIATION_SUIT)

    def on_pickup_invis(self, ctx: InvocationContext, payload: Dict) -> None:
        self._pickup_powerup(ctx, payload, "invis", AssetId.INVISIBILITY)

    def on_pickup_invuln(self, ctx: InvocationContext, payload: Dict) -> None:
        self._require_started(ctx)
        self._validate_item(ctx, payload, "invuln")
        player = ctx.creator
        t = _field(payload, "t", ctx.timestamp)
        health = dict(self._get(ctx, player, AssetId.HEALTH))
        health["invuln_until"] = t + DoomRules.POWERUP_DURATION_MS
        self._put(ctx, player, AssetId.HEALTH, health)

    def on_pickup_berserk(self, ctx: InvocationContext, payload: Dict) -> None:
        self._require_started(ctx)
        self._validate_item(ctx, payload, "berserk")
        player = ctx.creator
        t = _field(payload, "t", ctx.timestamp)
        self._put(ctx, player, AssetId.BERSERK, t + DoomRules.POWERUP_DURATION_MS)
        health = self._get(ctx, player, AssetId.HEALTH)
        self._put(ctx, player, AssetId.HEALTH, DoomRules.heal(health, 100))

    _HANDLERS = {
        "addPlayer": add_player,
        "startGame": start_game,
        EventType.LOCATION: on_location,
        EventType.SHOOT: on_shoot,
        EventType.WEAPON_CHANGE: on_weapon_change,
        EventType.DAMAGE: on_damage,
        EventType.PICKUP_WEAPON: on_pickup_weapon,
        EventType.PICKUP_CLIP: on_pickup_clip,
        EventType.PICKUP_MEDKIT: on_pickup_medkit,
        EventType.PICKUP_RADSUIT: on_pickup_radsuit,
        EventType.PICKUP_INVIS: on_pickup_invis,
        EventType.PICKUP_INVULN: on_pickup_invuln,
        EventType.PICKUP_BERSERK: on_pickup_berserk,
    }

"""The Doom smart contract: generated boilerplate + developer logic.

This is the contract the evaluation deploys.  It subclasses the
generated boilerplate, :class:`~repro.core.codegen.SpecContract`, which
owns the per-player per-asset KVS layout (§6 i), ``addPlayer`` with its
roster rules, ``startGame`` and the started-game check.  What it adds is
the game-specific validation the constraint language cannot express
("any additional logic must be added by the developer himself",
§4.1.2): movement-speed geometry, item-pickup locality/respawn,
per-weapon ammunition costs, armour absorption and power-up timers.

It does not subclass the contract generated from ``doom_spec()``: the
spec stores one number per asset, while Doom's assets are structured
(health carries ``invuln_until``, the weapon its ``owned`` list, the
position ``t``).  So a new player's starting assets come from
``game/doom.py``'s ``initial_assets(spawn)``, through
:meth:`DoomContract.starting_assets`, not from the spec's ``value=``.

A rejected invocation is a prevented cheat: the peers will not reach
consensus on the offending asset update, and the shim reports failure
to the game client (§7.2.2).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..blockchain.contracts import ContractError, InvocationContext
from ..game.assets import AssetId
from ..game.doom import DoomMap, DoomRules, RuleViolation, WEAPONS, initial_assets
from ..game.events import EventType
from .codegen import SpecContract

__all__ = ["DoomContract", "item_key"]


def item_key(item_id: str) -> str:
    """World-state key tracking a map item's pickup state."""
    return f"item/{item_id}"


_NUMBER = (int, float)  # the accepted types of a numeric payload field
#: A pickup may name the map item it collects, and the time it did so.
_PICKUP = {"item_id": ((str,), False), "t": (_NUMBER, False)}


class DoomContract(SpecContract):
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

    def __init__(
        self,
        game_map: Optional[DoomMap] = None,
        split_kvs: bool = True,
        strict_pickups: bool = True,
    ):
        self.map = game_map if game_map is not None else DoomMap.default_map()
        self.split_kvs = split_kvs
        self.strict_pickups = strict_pickups

    def starting_assets(self, seat: int) -> Dict[int, Any]:
        """Doom's structured starting assets at the seat's spawn point."""
        spawn = self.map.spawn_points[seat % len(self.map.spawn_points)]
        return initial_assets(spawn)

    # ------------------------------------------------------------------
    # event APIs

    def on_location(self, ctx: InvocationContext, payload: Dict) -> None:
        self._require_started(ctx)
        player = ctx.creator
        old = self._read_asset(ctx, player, AssetId.POSITION)
        t = payload.get("t", ctx.timestamp)
        new = DoomRules.validate_move(old, payload["x"], payload["y"], t, self.map)
        self._write_asset(ctx, player, AssetId.POSITION, new)

    def on_shoot(self, ctx: InvocationContext, payload: Dict) -> None:
        self._require_started(ctx)
        player = ctx.creator
        weapon = self._read_asset(ctx, player, AssetId.WEAPON)
        ammo = self._read_asset(ctx, player, AssetId.AMMUNITION)
        remaining = DoomRules.validate_shoot(weapon, ammo, payload.get("count", 1))
        self._write_asset(ctx, player, AssetId.AMMUNITION, remaining)

    def on_weapon_change(self, ctx: InvocationContext, payload: Dict) -> None:
        self._require_started(ctx)
        player = ctx.creator
        weapon = self._read_asset(ctx, player, AssetId.WEAPON)
        self._write_asset(
            ctx, player, AssetId.WEAPON,
            DoomRules.validate_weapon_change(weapon, payload["wid"]),
        )

    def on_damage(self, ctx: InvocationContext, payload: Dict) -> None:
        self._require_started(ctx)
        target = payload.get("target", ctx.creator)
        roster = ctx.view.get("game/roster") or []
        if target not in roster:
            raise ContractError(f"damage target {target!r} not in this game")
        t = payload.get("t", ctx.timestamp)
        amount = payload["amount"]
        health = self._read_asset(ctx, target, AssetId.HEALTH)
        armor = self._read_asset(ctx, target, AssetId.ARMOR)
        new_health, new_armor, _ = DoomRules.apply_damage(health, armor, amount, t)
        self._write_asset(ctx, target, AssetId.HEALTH, new_health)
        if new_armor != armor:
            self._write_asset(ctx, target, AssetId.ARMOR, new_armor)

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
        t = payload.get("t", ctx.timestamp)
        taken = ctx.view.get(item_key(item_id))
        pos = self._read_asset(ctx, ctx.creator, AssetId.POSITION)
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
        wid = payload["wid"]
        if wid not in WEAPONS:
            raise ContractError(f"no such weapon {wid}")
        self._validate_item(ctx, payload, f"weapon:{wid}")
        weapon = dict(self._read_asset(ctx, player, AssetId.WEAPON))
        owned = list(weapon.get("owned", []))
        if wid not in owned:
            owned.append(wid)
        weapon["owned"] = owned
        weapon["current"] = wid
        self._write_asset(ctx, player, AssetId.WEAPON, weapon)
        ammo = self._read_asset(ctx, player, AssetId.AMMUNITION)
        self._write_asset(
            ctx, player, AssetId.AMMUNITION,
            DoomRules.add_ammo(ammo, DoomRules.WEAPON_PICKUP_AMMO),
        )

    def on_pickup_clip(self, ctx: InvocationContext, payload: Dict) -> None:
        self._require_started(ctx)
        self._validate_item(ctx, payload, "clip")
        player = ctx.creator
        ammo = self._read_asset(ctx, player, AssetId.AMMUNITION)
        self._write_asset(
            ctx, player, AssetId.AMMUNITION,
            DoomRules.add_ammo(ammo, DoomRules.CLIP_AMMO),
        )

    def on_pickup_medkit(self, ctx: InvocationContext, payload: Dict) -> None:
        self._require_started(ctx)
        self._validate_item(ctx, payload, "medkit")
        player = ctx.creator
        health = self._read_asset(ctx, player, AssetId.HEALTH)
        self._write_asset(
            ctx, player, AssetId.HEALTH,
            DoomRules.heal(health, DoomRules.MEDKIT_HEAL),
        )

    def _pickup_powerup(
        self, ctx: InvocationContext, payload: Dict, kind: str, aid: int
    ) -> float:
        self._require_started(ctx)
        self._validate_item(ctx, payload, kind)
        t = payload.get("t", ctx.timestamp)
        expiry = t + DoomRules.POWERUP_DURATION_MS
        self._write_asset(ctx, ctx.creator, aid, expiry)
        return expiry

    def on_pickup_radsuit(self, ctx: InvocationContext, payload: Dict) -> None:
        self._pickup_powerup(ctx, payload, "radsuit", AssetId.RADIATION_SUIT)

    def on_pickup_invis(self, ctx: InvocationContext, payload: Dict) -> None:
        self._pickup_powerup(ctx, payload, "invis", AssetId.INVISIBILITY)

    def on_pickup_invuln(self, ctx: InvocationContext, payload: Dict) -> None:
        self._require_started(ctx)
        self._validate_item(ctx, payload, "invuln")
        player = ctx.creator
        t = payload.get("t", ctx.timestamp)
        health = dict(self._read_asset(ctx, player, AssetId.HEALTH))
        health["invuln_until"] = t + DoomRules.POWERUP_DURATION_MS
        self._write_asset(ctx, player, AssetId.HEALTH, health)

    def on_pickup_berserk(self, ctx: InvocationContext, payload: Dict) -> None:
        self._require_started(ctx)
        self._validate_item(ctx, payload, "berserk")
        player = ctx.creator
        t = payload.get("t", ctx.timestamp)
        self._write_asset(ctx, player, AssetId.BERSERK, t + DoomRules.POWERUP_DURATION_MS)
        health = self._read_asset(ctx, player, AssetId.HEALTH)
        self._write_asset(ctx, player, AssetId.HEALTH, DoomRules.heal(health, 100))

    HANDLERS = {
        "addPlayer": SpecContract.add_player,
        "startGame": SpecContract.start_game,
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

    PAYLOADS = {
        EventType.LOCATION: {"x": (_NUMBER, True), "y": (_NUMBER, True), "t": (_NUMBER, False)},
        EventType.SHOOT: {"count": (_NUMBER, False)},
        EventType.WEAPON_CHANGE: {"wid": ((int,), True)},
        EventType.DAMAGE: {
            "amount": (_NUMBER, True), "target": ((str,), False), "t": (_NUMBER, False),
        },
        EventType.PICKUP_WEAPON: {"wid": ((int,), True), **_PICKUP},
        EventType.PICKUP_CLIP: _PICKUP,
        EventType.PICKUP_MEDKIT: _PICKUP,
        EventType.PICKUP_RADSUIT: _PICKUP,
        EventType.PICKUP_INVIS: _PICKUP,
        EventType.PICKUP_INVULN: _PICKUP,
        EventType.PICKUP_BERSERK: _PICKUP,
    }
    RULE_ERRORS = (RuleViolation,)

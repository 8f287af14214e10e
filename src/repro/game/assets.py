"""The nine tracked Doom assets.

"We integrated the shim with the client and registered packet formats
for 9 assets, i.e., ammunition, weapon, health, armor, keys, player
position, invisibility pack, radiation suit and berserk pack." (§6 i)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

__all__ = ["AssetId", "AssetDef", "ASSETS", "asset_key", "FREQUENT_ASSETS"]


class AssetId:
    """Stable numeric identifiers for the nine tracked assets."""

    HEALTH = 1
    AMMUNITION = 2
    WEAPON = 3
    ARMOR = 4
    KEYS = 5
    POSITION = 6
    INVISIBILITY = 7
    RADIATION_SUIT = 8
    BERSERK = 9

    ALL = (
        HEALTH,
        AMMUNITION,
        WEAPON,
        ARMOR,
        KEYS,
        POSITION,
        INVISIBILITY,
        RADIATION_SUIT,
        BERSERK,
    )


@dataclass(frozen=True)
class AssetDef:
    """Static description of a tracked asset.

    ``minimum`` and ``maximum`` bound legal values (the contract rejects
    transitions outside them); they are None for the structured weapon,
    keys and position assets.  The values a player starts with are
    ``repro.game.doom.initial_assets``.
    """

    aid: int
    name: str
    minimum: Optional[float] = None
    maximum: Optional[float] = None

    def in_bounds(self, value) -> bool:
        if self.minimum is not None and value < self.minimum:
            return False
        if self.maximum is not None and value > self.maximum:
            return False
        return True


#: Doom 1993 limits: health caps at 200 (soulsphere), armor at 200
#: (megaarmor), ammo at 400 (backpack doubles the 200 bullet limit).
#: The same bounds as ``doom_spec()``'s.
ASSETS: Dict[int, AssetDef] = {
    AssetId.HEALTH: AssetDef(AssetId.HEALTH, "Health", 0, 200),
    AssetId.AMMUNITION: AssetDef(AssetId.AMMUNITION, "Ammunition", 0, 400),
    AssetId.WEAPON: AssetDef(AssetId.WEAPON, "Weapon"),
    AssetId.ARMOR: AssetDef(AssetId.ARMOR, "Armor", 0, 200),
    AssetId.KEYS: AssetDef(AssetId.KEYS, "Keys"),
    AssetId.POSITION: AssetDef(AssetId.POSITION, "Position"),
    AssetId.INVISIBILITY: AssetDef(AssetId.INVISIBILITY, "Invisibility", 0),
    AssetId.RADIATION_SUIT: AssetDef(AssetId.RADIATION_SUIT, "RadiationSuit", 0),
    AssetId.BERSERK: AssetDef(AssetId.BERSERK, "Berserk", 0),
}

#: The five most frequently updated assets (§6: block size is tuned to
#: "the number of most frequently updated events operating on mutually
#: exclusive KVS", which is five — matching the five event categories of
#: Fig. 3a: armor, health, location, shoot, weapon).
FREQUENT_ASSETS: Tuple[int, ...] = (
    AssetId.POSITION,
    AssetId.AMMUNITION,
    AssetId.HEALTH,
    AssetId.ARMOR,
    AssetId.WEAPON,
)


def asset_key(player: str, aid: int) -> str:
    """World-state key for one player's asset.

    This is the per-player per-asset KVS split of §6 optimisation (i):
    one key per (player, asset) pair minimises read/write conflicts
    within a block.
    """
    return f"asset/{player}/{aid}"

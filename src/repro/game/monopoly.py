"""Monopoly: the paper's non-repudiation case study (§7.3 ii).

"We apply our approach to C/S-based Monopoly, a full information
multi-player game where all claims can be verified through the
blockchain's event log. … Property is defined on color basis, and has
an owner and price attribute.  Each player has 3 attributes: location,
currency and assets[]."

This module holds the board and the pure game rules; the smart contract
wrapping them lives in ``repro.core.monopoly_contract``, and the dice
come from the distributed random-number generator in ``repro.rng``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

__all__ = [
    "MonopolyError",
    "Property",
    "BOARD_SIZE",
    "STANDARD_PROPERTIES",
    "MonopolyRules",
    "initial_player",
]


class MonopolyError(Exception):
    """An illegal Monopoly move (the Monopoly analogue of a cheat)."""


BOARD_SIZE = 40
STARTING_CURRENCY = 1500
GO_SALARY = 200


@dataclass(frozen=True)
class Property:
    """A purchasable square: color group, price and base rent."""

    square: int
    name: str
    color: str
    price: int
    rent: int


#: A compact standard board: the 22 colour-group streets (positions per
#: the classic layout); railroads/utilities are omitted for parity with
#: the paper's minimal asset model (currency + colour properties).
STANDARD_PROPERTIES: Dict[int, Property] = {
    p.square: p
    for p in (
        Property(1, "Mediterranean Avenue", "brown", 60, 2),
        Property(3, "Baltic Avenue", "brown", 60, 4),
        Property(6, "Oriental Avenue", "lightblue", 100, 6),
        Property(8, "Vermont Avenue", "lightblue", 100, 6),
        Property(9, "Connecticut Avenue", "lightblue", 120, 8),
        Property(11, "St. Charles Place", "pink", 140, 10),
        Property(13, "States Avenue", "pink", 140, 10),
        Property(14, "Virginia Avenue", "pink", 160, 12),
        Property(16, "St. James Place", "orange", 180, 14),
        Property(18, "Tennessee Avenue", "orange", 180, 14),
        Property(19, "New York Avenue", "orange", 200, 16),
        Property(21, "Kentucky Avenue", "red", 220, 18),
        Property(23, "Indiana Avenue", "red", 220, 18),
        Property(24, "Illinois Avenue", "red", 240, 20),
        Property(26, "Atlantic Avenue", "yellow", 260, 22),
        Property(27, "Ventnor Avenue", "yellow", 260, 22),
        Property(29, "Marvin Gardens", "yellow", 280, 24),
        Property(31, "Pacific Avenue", "green", 300, 26),
        Property(32, "North Carolina Avenue", "green", 300, 26),
        Property(34, "Pennsylvania Avenue", "green", 320, 28),
        Property(37, "Park Place", "blue", 350, 35),
        Property(39, "Boardwalk", "blue", 400, 50),
    )
}


def initial_player() -> Dict:
    """A player's starting attributes: location, currency, assets[]."""
    return {"location": 0, "currency": STARTING_CURRENCY, "assets": []}


class MonopolyRules:
    """Pure validation/transition functions over player/property state."""

    @staticmethod
    def validate_roll(dice: Tuple[int, int]) -> int:
        if len(dice) != 2 or not all(isinstance(face, int) for face in dice):
            raise MonopolyError("a roll is two integer dice faces")
        d1, d2 = dice
        if not (1 <= d1 <= 6 and 1 <= d2 <= 6):
            raise MonopolyError(f"impossible dice roll {dice}")
        return d1 + d2

    @staticmethod
    def move(player: Dict, steps: int) -> Dict:
        """Advance a player; passing GO pays the salary."""
        if not 2 <= steps <= 12:
            raise MonopolyError(f"cannot move {steps} squares with two dice")
        new_loc = (player["location"] + steps) % BOARD_SIZE
        passed_go = new_loc < player["location"]
        out = dict(player)
        out["location"] = new_loc
        if passed_go:
            out["currency"] = out["currency"] + GO_SALARY
        return out

    @staticmethod
    def validate_purchase(
        player: Dict, prop: Optional[Property], owner: Optional[str]
    ) -> Dict:
        """A purchase is legal iff the player stands on an unowned
        property it can afford."""
        if prop is None:
            raise MonopolyError("square is not purchasable")
        if owner is not None:
            raise MonopolyError(f"{prop.name} is already owned")
        if player["location"] != prop.square:
            raise MonopolyError(
                f"player is on square {player['location']}, not {prop.square}"
            )
        if player["currency"] < prop.price:
            raise MonopolyError(
                f"{prop.name} costs {prop.price}, player has {player['currency']}"
            )
        out = dict(player)
        out["currency"] -= prop.price
        out["assets"] = list(player["assets"]) + [prop.square]
        return out

    @staticmethod
    def rent_due(prop: Property, owner: str, visitor: Dict) -> int:
        if visitor["location"] != prop.square:
            raise MonopolyError("rent is only due on the visited square")
        return min(prop.rent, visitor["currency"])

    @staticmethod
    def transfer(payer: Dict, payee: Dict, amount: int) -> Tuple[Dict, Dict]:
        if amount < 0:
            raise MonopolyError("cannot transfer a negative amount")
        if payer["currency"] < amount:
            raise MonopolyError("insufficient funds")
        new_payer, new_payee = dict(payer), dict(payee)
        new_payer["currency"] -= amount
        new_payee["currency"] += amount
        return new_payer, new_payee

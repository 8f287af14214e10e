"""Monopoly smart contract (§7.3 ii — non-repudiation case study).

"Smart contract generation was trivial as player assets are limited to
currency and property."  Dice values come from the off-chain
distributed RNG (:class:`repro.rng.DistributedDice`); the contract
validates that every move is explained by a committed dice roll, and
the blockchain's event log makes every claim verifiable — the
non-repudiation property the case study demonstrates.
"""

from __future__ import annotations

from typing import Dict

from ..blockchain.contracts import Contract, ContractError, InvocationContext
from ..game.monopoly import (
    STANDARD_PROPERTIES,
    MonopolyError,
    MonopolyRules,
    initial_player,
)

__all__ = ["MonopolyContract", "player_key", "property_key"]


def player_key(player: str) -> str:
    return f"mp/player/{player}"


def property_key(square: int) -> str:
    return f"mp/property/{square}"


class MonopolyContract(Contract):
    """Server-side Monopoly logic as a smart contract.

    Public APIs: ``addPlayer``, ``startGame``, ``roll`` (move by a dice
    outcome), ``buy`` (purchase the square stood on) and ``payRent``.
    """

    name = "monopoly"
    MAX_PLAYERS = 8

    # ------------------------------------------------------------------
    # lifecycle

    def add_player(self, ctx: InvocationContext, payload: Dict) -> None:
        player = ctx.creator
        roster = list(ctx.view.get("mp/roster") or [])
        if player in roster:
            raise ContractError(f"player {player} already joined")
        if len(roster) >= self.MAX_PLAYERS:
            raise ContractError("table is full")
        roster.append(player)
        ctx.view.put("mp/roster", roster)
        ctx.view.put(player_key(player), initial_player())

    def start_game(self, ctx: InvocationContext, payload: Dict) -> None:
        roster = ctx.view.get("mp/roster") or []
        if len(roster) < 2:
            raise ContractError("Monopoly needs at least two players")
        if ctx.view.get("mp/started"):
            raise ContractError("game already started")
        ctx.view.put("mp/started", True)

    def _require_started(self, ctx: InvocationContext) -> None:
        if not ctx.view.get("mp/started"):
            raise ContractError("game has not started")

    def _get_player(self, ctx: InvocationContext, player: str) -> Dict:
        state = ctx.view.get(player_key(player))
        if state is None:
            raise ContractError(f"player {player} has not joined")
        return dict(state)

    # ------------------------------------------------------------------
    # moves

    def roll(self, ctx: InvocationContext, payload: Dict) -> None:
        """Move by a dice outcome.

        ``payload['dice']`` is the (d1, d2) pair produced by the
        distributed RNG round ``payload['round']``.  The contract logs
        the roll under a per-round key, so a player cannot claim two
        different outcomes for one round (non-repudiation) and every
        spectator can audit the log.
        """
        self._require_started(ctx)
        player = ctx.creator
        dice = tuple(payload["dice"])
        round_id = payload["round"]
        steps = MonopolyRules.validate_roll(dice)
        log_key = f"mp/roll/{player}/{round_id}"
        if ctx.view.get(log_key) is not None:
            raise ContractError(f"round {round_id} already consumed")
        ctx.view.put(log_key, {"dice": list(dice), "t": ctx.timestamp})
        state = self._get_player(ctx, player)
        ctx.view.put(player_key(player), MonopolyRules.move(state, steps))

    def buy(self, ctx: InvocationContext, payload: Dict) -> None:
        self._require_started(ctx)
        player = ctx.creator
        state = self._get_player(ctx, player)
        square = state["location"]
        prop = STANDARD_PROPERTIES.get(square)
        ownership = ctx.view.get(property_key(square))
        owner = None if ownership is None else ownership.get("owner")
        new_state = MonopolyRules.validate_purchase(state, prop, owner)
        ctx.view.put(player_key(player), new_state)
        ctx.view.put(property_key(square), {"owner": player, "price": prop.price})

    def pay_rent(self, ctx: InvocationContext, payload: Dict) -> None:
        self._require_started(ctx)
        visitor_name = ctx.creator
        visitor = self._get_player(ctx, visitor_name)
        square = visitor["location"]
        prop = STANDARD_PROPERTIES.get(square)
        if prop is None:
            raise ContractError("no rent due on this square")
        ownership = ctx.view.get(property_key(square))
        if ownership is None or ownership.get("owner") in (None, visitor_name):
            raise ContractError("no rent due: unowned or own property")
        owner_name = ownership["owner"]
        owner = self._get_player(ctx, owner_name)
        rent = MonopolyRules.rent_due(prop, owner_name, visitor)
        new_visitor, new_owner = MonopolyRules.transfer(visitor, owner, rent)
        ctx.view.put(player_key(visitor_name), new_visitor)
        ctx.view.put(player_key(owner_name), new_owner)

    HANDLERS = {
        "addPlayer": add_player,
        "startGame": start_game,
        "roll": roll,
        "buy": buy,
        "payRent": pay_rent,
    }
    PAYLOADS = {"roll": {"dice": ((list, tuple), True), "round": ((int,), True)}}
    RULE_ERRORS = (MonopolyError,)

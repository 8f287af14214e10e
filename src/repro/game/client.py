"""The game-client model: local state, prediction and reconciliation.

"Clients perform prediction along with entity interpolation to keep the
game responsive.  However, they must reconcile with the global game
state when the server pushes the updates back to the clients." (§4.2.5)

:class:`DoomClient` applies events optimistically the moment the player
produces them and reconciles when the acknowledgement (consensus
verdict) comes back: a rejected event rolls local state back to the
authoritative value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from .assets import AssetId, asset_key
from .doom import DoomMap
from .events import GameEvent

__all__ = ["PredictionStats", "DoomClient"]


@dataclass
class PredictionStats:
    """How often optimistic prediction had to be rolled back."""

    predicted: int = 0
    confirmed: int = 0
    rolled_back: int = 0

    @property
    def misprediction_rate(self) -> float:
        done = self.confirmed + self.rolled_back
        return self.rolled_back / done if done else 0.0


class DoomClient:
    """One player's client-side state machine.

    The client keeps two world states: ``predicted`` (rendered to the
    player immediately) and ``confirmed`` (the last state every ack
    agreed on).  Both advance by running the Doom contract on the
    client's own state, so a prediction obeys exactly the rules the
    peers will apply.  ``apply_event`` advances the prediction;
    ``acknowledge`` either confirms or rolls back.
    """

    def __init__(self, player: str, game_map: Optional[DoomMap] = None):
        # Imported here so that importing repro.game does not import the
        # platform (repro.core itself imports repro.game).
        from ..blockchain.contracts import ContractError, apply_invocation
        from ..blockchain.state import WorldState
        from ..core.doom_contract import DoomContract

        self.player = player
        # Pickups that name no map item are still predicted.
        contract = DoomContract(game_map=game_map, strict_pickups=False)

        def run(state, function: str, payload: Dict, t_ms: float) -> None:
            try:
                apply_invocation(contract, state, player, function, (payload,), t_ms)
            except ContractError:
                # A locally-invalid prediction is simply not applied; the
                # authoritative verdict arrives via acknowledge().
                pass

        self._run = run
        self._confirmed = WorldState()
        run(self._confirmed, "addPlayer", {}, 0.0)
        run(self._confirmed, "startGame", {}, 0.0)
        self._predicted = self._confirmed.copy()
        self._inflight: Dict[int, GameEvent] = {}  # seq -> event
        self.stats = PredictionStats()

    @property
    def predicted(self) -> Dict[int, object]:
        """The predicted assets as ``{AssetId: value}``."""
        return self._assets(self._predicted)

    @property
    def confirmed(self) -> Dict[int, object]:
        """The confirmed assets as ``{AssetId: value}``."""
        return self._assets(self._confirmed)

    def _assets(self, state) -> Dict[int, object]:
        return {aid: state.get(asset_key(self.player, aid)) for aid in AssetId.ALL}

    # ------------------------------------------------------------------
    # outbound events

    def apply_event(self, event: GameEvent) -> None:
        """Optimistically apply the player's own event to predicted state."""
        if event.player != self.player:
            raise ValueError(f"event belongs to {event.player}, not {self.player}")
        self._run(self._predicted, event.etype, event.payload, event.t_ms)
        self._inflight[event.seq] = event
        self.stats.predicted += 1

    # ------------------------------------------------------------------
    # feedback loop

    def acknowledge(self, seq: int, accepted: bool) -> None:
        """Process the shim's per-event acknowledgement (§4.2.5(1))."""
        event = self._inflight.pop(seq, None)
        if event is None:
            return
        if accepted:
            self._run(self._confirmed, event.etype, event.payload, event.t_ms)
            self.stats.confirmed += 1
        else:
            # Server reconciliation: reset prediction to the confirmed
            # state and re-apply surviving in-flight events in order.
            self.stats.rolled_back += 1
            self._predicted = self._confirmed.copy()
            for seq in sorted(self._inflight):
                pending = self._inflight[seq]
                self._run(self._predicted, pending.etype, pending.payload, pending.t_ms)

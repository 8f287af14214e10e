"""The client-server baseline: a trusted game server.

This is the architecture the paper compares against throughout: the
server holds definitive state, validates every client event by running
the smart contract itself on that state, and acknowledges per event.
It detects the same cheat class ("reported client state inconsistent
with the observed state at the server") but is a central point of
failure under DDoS (§2.2, §7.2.4(3)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..blockchain.contracts import ContractError, apply_invocation
from ..blockchain.state import WorldState
from ..core.doom_contract import DoomContract
from ..game.doom import DoomMap
from ..game.events import GameEvent
from ..simnet.latency import Region
from ..simnet.topology import Host

__all__ = ["EventMsg", "AckMsg", "GameServer", "CSClient"]


@dataclass(frozen=True)
class EventMsg:
    event: GameEvent


@dataclass(frozen=True)
class AckMsg:
    seq: int
    accepted: bool
    reason: str = ""


class GameServer(Host):
    """A trusted C/S game server running the Doom contract.

    The server runs :class:`~repro.core.doom_contract.DoomContract`
    directly on its own world state (no consensus, no MVCC), so its
    validation is the contract's, not a copy of it — the paper's claim
    that the blockchain approach "does no worse cheat detection than the
    standard C/S architecture" (§4) is checked test-by-test in
    ``tests/test_baselines.py``.
    """

    def __init__(
        self,
        name: str = "server",
        region: str = Region.DALLAS,
        game_map: Optional[DoomMap] = None,
        compute_ms_per_event: float = 0.25,
        strict_pickups: bool = True,
    ):
        super().__init__(name, region)
        self.compute_ms = compute_ms_per_event
        self.contract = DoomContract(game_map=game_map, strict_pickups=strict_pickups)
        self.state = WorldState()
        self.events_validated = 0
        self.events_rejected = 0
        self._cpu_free_at = 0.0

    # ------------------------------------------------------------------
    # lifecycle

    def add_player(self, player: str) -> None:
        """Join ``player``; the first join also starts the game."""
        try:
            apply_invocation(self.contract, self.state, player, "addPlayer", (), 0.0)
            if not self.state.get("game/started"):
                apply_invocation(self.contract, self.state, player, "startGame", (), 0.0)
        except ContractError as err:
            raise ValueError(err.reason) from None

    # ------------------------------------------------------------------
    # message handling

    def handle_message(self, src: Host, payload) -> None:
        if not isinstance(payload, EventMsg):
            raise TypeError(f"server cannot handle {type(payload).__name__}")
        sched = self.network.scheduler
        start = max(sched.now, self._cpu_free_at)
        done = start + self.compute_ms
        self._cpu_free_at = done
        sched.call_at(done, self._process, src, payload.event)

    def _process(self, src: Host, event: GameEvent) -> None:
        accepted, reason = self.validate_and_apply(event)
        self.send(src, AckMsg(seq=event.seq, accepted=accepted, reason=reason),
                  size_bytes=64)

    # ------------------------------------------------------------------
    # validation (the contract's rules)

    def validate_and_apply(self, event: GameEvent) -> Tuple[bool, str]:
        try:
            apply_invocation(
                self.contract, self.state, event.player, event.etype,
                (event.payload,), event.t_ms,
            )
        except ContractError as err:
            self.events_rejected += 1
            return False, err.reason
        self.events_validated += 1
        return True, ""


class CSClient(Host):
    """A C/S game client: sends events, records per-event ack latency."""

    def __init__(self, name: str, region: str, server: GameServer):
        super().__init__(name, region)
        self.server = server
        self._sent_at: Dict[int, float] = {}
        self.latencies_ms: List[float] = []
        self.accepted = 0
        self.rejected = 0
        self.rejection_reasons: List[str] = []
        self.on_ack: Optional[Callable[[AckMsg, float], None]] = None

    def send_event(self, event: GameEvent) -> None:
        self._sent_at[event.seq] = self.network.scheduler.now
        self.send(self.server, EventMsg(event), size_bytes=128)

    def handle_message(self, src: Host, payload) -> None:
        if not isinstance(payload, AckMsg):
            raise TypeError(f"client cannot handle {type(payload).__name__}")
        sent = self._sent_at.pop(payload.seq, None)
        latency = self.network.scheduler.now - sent if sent is not None else 0.0
        self.latencies_ms.append(latency)
        if payload.accepted:
            self.accepted += 1
        else:
            self.rejected += 1
            self.rejection_reasons.append(payload.reason)
        if self.on_ack is not None:
            self.on_ack(payload, latency)

    @property
    def avg_latency_ms(self) -> float:
        return sum(self.latencies_ms) / len(self.latencies_ms) if self.latencies_ms else 0.0

    def pending(self) -> int:
        return len(self._sent_at)
